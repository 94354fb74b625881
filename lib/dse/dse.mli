(** Parallel design-space exploration engine (Section VI).

    The paper's evaluation sweeps micro-architectural parameters — II,
    latency bounds, clock period — over one design and reports the
    area/performance Pareto front (Figures 9–11).  This engine takes a
    design plus a parameter {!grid}, runs every point through
    {!Hls_flow.Flow.run} on OCaml 5 domains, and returns
    per-point results with profiling (wall time, scheduler passes, expert
    actions, and the binder's timing-query count — the paper's "hottest
    query of the timing engine").

    Results are memoized in the engine across sweeps, keyed by a stable
    fingerprint of (design digest, effective flow options): repeated or
    overlapping sweeps never re-schedule the same point, and duplicate
    points within one sweep are scheduled once.

    Determinism: a sweep's results depend only on the design, the base
    options and the point list — never on the worker count — so
    [~jobs:n] produces identical point results to [~jobs:1]. *)

(** {2 Grid} *)

(** An initiation-interval request: sequential, one flat II, or a
    per-dimension vector for a loop nest (outermost first — [Dims [4; 1]]
    initiates the outer loop every 4 cycles and the inner every cycle). *)
type ii_spec = Seq | Flat of int | Dims of int list

val ii_label : ii_spec -> string
(** ["seq"], ["ii=2"] or ["ii=4x1"]. *)

(** One micro-architectural configuration: the fields of
    {!Hls_flow.Flow.options} the evaluation sweeps. *)
type point = {
  pt_ii : ii_spec;
  pt_min_latency : int option;
  pt_max_latency : int option;
  pt_clock_ps : float;
}

val point :
  ?ii:int ->
  ?ii_dims:int list ->
  ?min_latency:int ->
  ?max_latency:int ->
  clock_ps:float ->
  unit ->
  point
(** [?ii_dims] wins over [?ii]; with neither the point is sequential. *)

val point_label : point -> string
(** Compact human label, e.g. ["ii=2 lat=8..8 clk=1200"] or
    ["ii=4x1 lat=auto clk=1600"]. *)

(** A cartesian parameter grid: II specs × latency-bound pairs × clock
    periods. *)
type grid = {
  g_iis : ii_spec list;
  g_latencies : (int option * int option) list;
  g_clocks : float list;
}

val grid :
  ?iis:ii_spec list ->
  ?latencies:(int option * int option) list ->
  ?clocks:float list ->
  unit ->
  grid
(** Defaults: sequential only, designer latency bounds, 1600 ps. *)

val grid_points : grid -> point list
(** The cartesian product in a deterministic order (iis outermost, clocks
    innermost). *)

val parse_grid : string -> (grid, string) result
(** Parse the [--grid] specification language:
    ["ii=none,1,2;latency=8..8,16;clock=1200,1600"] — semicolon-separated
    dimensions, comma-separated values; [none] for sequential / designer
    bounds, a bare latency [n] meaning [n..n].  An II value of the form
    [AxB] (e.g. [4x1]) requests per-dimension IIs for a loop nest,
    outermost first; each dimension must be a positive integer. *)

(** {2 Results} *)

(** Per-point profiling record. *)
type profile = {
  pr_wall_s : float;  (** wall-clock seconds inside [Flow.run] *)
  pr_passes : int;  (** scheduler relaxation passes *)
  pr_actions : int;  (** expert actions applied *)
  pr_queries : int;  (** binder netlist timing queries *)
  pr_warm_passes : int;  (** passes served by warm-start prefix replay *)
  pr_cold_passes : int;  (** passes re-vetted from a cold restart *)
  pr_hints : int;  (** feedback hints the scheduler applied at start *)
  pr_cached : bool;  (** served from the memo cache, not a fresh run *)
}

type result = {
  r_point : point;
  r_flow : (Hls_flow.Flow.t, Hls_diag.Diag.t) Stdlib.result;
  r_profile : profile;
}

(** One sweep's outcome: results in input-point order plus sweep-level
    accounting. *)
type sweep = {
  sw_results : result list;
  sw_wall_s : float;  (** wall-clock of the whole sweep *)
  sw_jobs : int;  (** effective worker-pool size used *)
  sw_new_runs : int;  (** points actually run (not cache-served) *)
  sw_cache_hits : int;
  sw_hint_reuse : int;
      (** fresh runs warm-started from the cross-point hint store (always
          0 unless [options.feedback] is on) *)
  sw_hints_extracted : int;
      (** distinct new hints this sweep mined into the store *)
}

(** {2 Engine} *)

type t
(** An exploration engine: a memo cache shared by every sweep run on it. *)

val create : unit -> t

val runs_performed : t -> int
(** Total [Flow.run] invocations over the engine's lifetime (cache misses
    only) — the observable for cache-hit tests. *)

val base_fingerprint : options:Hls_flow.Flow.options -> Hls_frontend.Ast.design -> string
(** The per-sweep half of the memo key: a digest of the design and the
    point-neutralized options.  [sweep] computes this once and keys the
    cache on [(base, point)], sparing one marshal+digest per point. *)

val shutdown : t -> unit
(** Drop the engine's memo cache and hint store.  The engine stays
    usable: a later sweep runs its points afresh.  Safe to call more
    than once. *)

val validate_jobs : int -> (int, Hls_diag.Diag.t) Stdlib.result
(** Reject non-positive worker counts with a typed [Explore]-phase
    diagnostic (code ["bad_jobs"]); the valid count passes through
    unchanged.  [sweep] itself silently clamps, so drivers call this
    first to surface user errors instead of masking them. *)

val sweep :
  ?jobs:int ->
  ?max_workers:int ->
  t ->
  options:Hls_flow.Flow.options ->
  Hls_frontend.Ast.design ->
  point list ->
  sweep
(** Run every point through the flow on [jobs] workers: one
    {!Hls_pool.Pool.map} over the points not already cached, run by the
    calling domain plus up to [jobs - 1] domains of the process-wide
    pool.  [jobs] is capped at [max_workers], which defaults to
    [Domain.recommended_domain_count ()]; pass it explicitly to allow
    deliberate oversubscription (e.g. exercising the pool on a small
    machine).  One worker runs sequentially on the calling domain and
    spawns no domain.  Results come back in input order regardless of
    [jobs].

    With [options.feedback] on, the sweep threads the engine's shared
    hint store through the points: if the store has nothing for this
    design, the first point runs alone (sequentially) to seed it, then
    every remaining point warm-starts from that one frozen snapshot of
    portable hints — never from a concurrently-finishing neighbor — so
    point results stay identical for every [jobs] count.  All fresh
    results are mined back into the store after the batch.  Warm-started
    points carry different effective options than the seed (the hints),
    and are cached under their own key. *)

(** {2 Reporting} *)

(** Sweep-level summary for [Dse.stats]. *)
type stats = {
  s_points : int;
  s_ok : int;
  s_failed : int;
  s_cache_hits : int;
  s_new_runs : int;
  s_jobs : int;
  s_wall_s : float;
  s_points_per_s : float;
  s_cpu_s : float;  (** sum of per-point wall over fresh runs *)
  s_passes : int;
  s_actions : int;
  s_queries : int;
  s_warm_passes : int;  (** sum of warm-started passes over fresh runs *)
  s_cold_passes : int;  (** sum of cold passes over fresh runs *)
  s_hints : int;  (** sum of feedback hints applied across points *)
  s_hint_reuse : int;  (** fresh runs warm-started from the hint store *)
  s_hints_extracted : int;  (** distinct new hints mined this sweep *)
}

val stats : sweep -> stats
val stats_to_string : stats -> string

val table : result list -> string list list
(** Rows for {!Hls_report.Table}: config, tier, II, LI, delay, area,
    power, passes, queries, wall, cache flag. *)

val pareto_points : result list -> result Hls_report.Pareto.point list
(** Delay (II × Tclk) vs area points of the successful results, tagged
    with their result — feed to {!Hls_report.Pareto.front}. *)

val sweep_to_json : sweep -> string
(** Machine-readable dump of a sweep: per-point configuration, outcome,
    metrics and profile, plus the {!stats} summary. *)
