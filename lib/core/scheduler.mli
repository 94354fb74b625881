(** The pass scheduler (Fig. 7) and the outer relaxation loop.

    A pass walks the control steps in order, binding the highest-priority
    ready operation with every candidate vetted by the netlist timing
    model; failures at the end of an op's life span join [Failed_ops] and
    turn into restraints.  The outer loop re-runs passes under
    expert-guided relaxation.  Pipelining needs only the two Section V
    extensions (equivalence-class busy tables and SCC stage windows), so
    the same pass serves sequential and pipelined regions. *)

open Hls_ir
open Hls_techlib

type options = {
  timing_aware : bool;
      (** [false] is the timing-awareness ablation: each pass binds with
          the sharing muxes unpriced (pure operator delays), and the muxes
          are priced as soon as the pass returns, before the expert or any
          report reads a slack *)
  scc_move : bool;
      (** [false] is the Table 4 ablation: the expert never moves an SCC,
          and SCC members are force-bound at their window, leaving the
          slack for downstream sizing to absorb *)
  max_passes : int;
  warm_start : bool;
      (** reuse pass-invariant analysis across relaxation passes, pick
          ready ops through the lazy-deletion heap, and replay the
          unaffected schedule prefix after a local expert action; disable
          for the cold-restart loop, the test reference every warm-path
          observable is checked against *)
  seed_latency_floor : bool;
      (** start LI at the resource-implied lower bound; disable to follow
          the paper's one-state-at-a-time narratives *)
  max_actions : int;
      (** budget on total relaxation actions across all passes *)
  timeout_s : float option;
      (** wall-clock budget for the whole relaxation loop *)
  hints : Hints.t;
      (** the scheduler's batched input, applied at schedule start: feedback
          hints mined from an earlier run and user dedications (ops that
          must own their resource instance).  Stale op, instance and SCC
          ids are skipped; resource floors keep the largest count per
          type, SCC stages the largest stage, and the latency floor the
          smallest value (clamped to the region's max steps; ignored for
          pipelined regions).  [s_hints_applied] counts the hints that
          took effect, dedications excluded. *)
}

val default_options : options

type t = {
  s_region : Region.t;
  s_li : int;  (** final latency interval *)
  s_binding : Binding.t;
  s_passes : int;
  s_actions : string list;  (** relaxations applied, oldest first *)
  s_scc_stages : (int list * int) list;  (** each SCC's ops and stage *)
  s_sched_time_s : float;
  s_warm_passes : int;  (** passes that replayed a schedule prefix *)
  s_cold_passes : int;  (** passes re-vetted from step 0 *)
  s_hints_applied : int;  (** feedback hints actually applied at start *)
}

type error = {
  e_message : string;
  e_code : string;
      (** stable machine code: ["overconstrained"], ["latency_bound"],
          ["recurrence_infeasible"], ["budget_passes"], ["budget_actions"],
          ["budget_wallclock"] or ["internal"] *)
  e_restraints : Restraint.t list;
  e_passes : int;
  e_actions : string list;
  e_budget : Hls_diag.Diag.budget option;  (** which budget tripped, if any *)
}

val set_jobs : int -> unit
(** Worker count for region-parallel analysis: on regions with 8 or more
    SCCs, the per-SCC recurrence checks run as one {!Hls_pool.Pool.map}
    with this many jobs (inline when the schedule itself runs inside a
    map, e.g. a parallel DSE sweep).  Results are identical for every
    count — the per-SCC computation is pure and the merge order is the
    SCC index order; 1 (the default) runs fully sequentially. *)

type stats = {
  st_passes : int;  (** scheduling passes run by the relaxation loop *)
  st_actions : int;  (** expert relaxation actions applied *)
  st_queries : int;
      (** netlist timing-engine queries issued by the binder — the
          paper's "hottest query of the timing engine" *)
  st_trials : int;  (** netlist what-if transactions opened *)
  st_commits : int;  (** trials that ended in a commit *)
  st_rollbacks : int;  (** trials rolled back by a slack violation *)
  st_visits : int;
      (** cells examined by bounded arrival propagation — stays well below
          the fanout cone when arrivals are unchanged *)
  st_cycle_visits : int;
      (** instances visited by the structural-cycle detector's searches
          (queries and reorders) — deterministic, like the counts above *)
  st_sched_s : float;  (** wall-clock seconds inside the scheduler *)
  st_warm_passes : int;  (** passes served by warm-start prefix replay *)
  st_cold_passes : int;  (** passes run from a cold restart *)
  st_hints : int;  (** feedback hints applied at schedule start *)
  st_decisions : Binding.counters;
      (** a copy of the binder's decision counters, taken by {!stats}:
          exact and equal on every run, each checked candidate either
          binds or is rejected by exactly one stage *)
}

val stats : t -> stats
(** Profiling counters of a completed schedule (consumed by the
    design-space exploration engine). *)

val placement : t -> int -> Binding.placement option

val schedule :
  ?opts:options ->
  ?trace:Trace.t ->
  lib:Library.t ->
  clock_ps:float ->
  Region.t ->
  (t, error) result
(** Schedule and bind a region: initial resource estimation at the latency
    upper bound, then passes from {!Region.initial_steps} under
    relaxation.  Writes nothing but the final LI into [n_steps], so a
    second schedule of the region repeats the first. *)

val to_table : t -> string list list
(** The paper's Table 2 rendering: resources × states. *)
