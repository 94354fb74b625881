(** The [explore] workload: the paper's design-space exploration
    (Figs. 10/11) as [hlsc explore --jobs] runs it — [Dse.sweep] on
    {!jobs} workers, verification off, a fresh engine per sweep.  The DSE
    pool, the memo cache, the slowest point and the degradation ladder
    carry the time; [lib/sim] only runs for the point a designer then
    builds.

    A round sweeps every grid fresh, then sweeps the plain grids again on
    the same engine so the run also has cache reads.  The feedback grid
    is not re-swept: its hint store changes between sweeps, so a re-sweep
    runs every point fresh (a finding, see README). *)

module Flow = Hls_flow.Flow
module Dse = Hls_dse.Dse
module Stats = E2e_kit.Stats
module Span = E2e_kit.Span
module Speed = E2e_kit.Speed

let now = E2e_kit.Clock.now

type grid = { g : Inputs.grid; design : Hls_frontend.Ast.design }

type state = { grids : grid list; jobs : int }

let options (g : Inputs.grid) =
  { Flow.default_options with Flow.verify = false; feedback = g.Inputs.g_feedback }

(** One grid's sweeps in a round. *)
type swept = { grid : grid; fresh : Dse.sweep; again : Dse.sweep option }

(** Sweep workers: one CPU is left to the rest of the host.  OCaml 5
    stops every domain for each minor collection, so a domain the host
    preempts stalls all the others; with a domain per CPU on a two-CPU
    host, the quartile spread of ten runs reached 30%, against 2–3% with
    one CPU left free. *)
let jobs () = max 1 (Host.nproc () - 1)

let sweep_grid ?sp st grid =
  let engine = Dse.create () in
  let sweep () =
    let run () = Dse.sweep ~jobs:st.jobs engine ~options:(options grid.g) grid.design grid.g.Inputs.g_points in
    match sp with None -> run () | Some sp -> Span.with_span sp "dse.sweep" run
  in
  let fresh = sweep () in
  let again = if grid.g.Inputs.g_feedback then None else Some (sweep ()) in
  Dse.shutdown engine;
  { grid; fresh; again }

let swept_wall s = s.fresh.Dse.sw_wall_s +. match s.again with Some a -> a.Dse.sw_wall_s | None -> 0.0

(* [sweep_grid], then a sample of the host's speed *)
let sweep_sampled speed st grid =
  let s = sweep_grid st grid in
  Speed.after speed (swept_wall s);
  s

let setup speed =
  let designs = Inputs.designs () in
  let find name = match List.find_opt (fun (n, _, _) -> n = name) designs with
    | Some (_, _, d) -> d
    | None -> invalid_arg ("no design " ^ name)
  in
  let grids = List.map (fun g -> { g; design = find g.Inputs.g_design }) (Inputs.explore_grids ()) in
  let st = { grids; jobs = jobs () } in
  (* warm-up: one untimed round of fresh sweeps, on this process's own
     domain, so that it can still fork the measured rounds *)
  List.iter (fun g -> ignore (sweep_sampled speed { st with jobs = 1 } g)) grids;
  st

(* as [hlsc explore --jobs N] does, in the process that sweeps *)
let set_jobs st = Hls_core.Scheduler.set_jobs st.jobs

(** [f ()] in a forked process, its result marshalled back.  [Dse.create]
    registers an [at_exit] closure per engine, which keeps every engine
    and its memo cache alive until exit: about 16 MiB per round, some
    750 MiB over the 47 rounds of a 30 s run.  A round in its own process
    frees them.
    [f] returns plain data; the calling process has never started a
    domain, as [Unix.fork] requires. *)
let in_fork (f : unit -> 'a) : 'a =
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      let v = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      Marshal.to_channel oc (v : ('a, string) result) [];
      close_out oc;
      (* no at_exit handlers: they belong to the parent *)
      Unix._exit 0
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v : ('a, string) result option = try Some (Marshal.from_channel ic) with End_of_file -> None in
      close_in ic;
      let rec reap () = try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> reap () in
      match (reap (), v) with
      | Unix.WEXITED 0, Some (Ok x) -> x
      | _, Some (Error m) -> failwith ("explore round: " ^ m)
      | _ -> failwith "explore round: the process died")

let result_signature (r : Dse.result) = Req.signature (Req.verdict_of_flow r.Dse.r_flow)

let signatures (sw : Dse.sweep) = List.map result_signature sw.Dse.sw_results

(** The point a designer builds next: the fastest (least II × Tclk) point
    on the area/delay Pareto front, with the [hlsc flow] defaults —
    verification on — and its Verilog emitted. *)
let pick ~id (s : swept) =
  match Hls_report.Pareto.front (Dse.pareto_points s.fresh.Dse.sw_results) with
  | [] -> None
  | best :: _ ->
      let p = best.Hls_report.Pareto.p_tag.Dse.r_point in
      Some
        {
          Req.id;
          label = s.grid.g.Inputs.g_name ^ " pick " ^ Dse.point_label p;
          design = s.grid.design;
          options = Req.options_of_point Flow.default_options p;
          emit = true;
        }

(** A plain grid's fresh points as requests, as the sweep ran them, each
    with the result the sweep got. *)
let point_requests ~first_id (s : swept) =
  List.mapi
    (fun i (r : Dse.result) ->
      ( {
          Req.id = first_id + i;
          label = s.grid.g.Inputs.g_name ^ " " ^ Dse.point_label r.Dse.r_point;
          design = s.grid.design;
          options = Req.options_of_point (options s.grid.g) r.Dse.r_point;
          emit = false;
        },
        Some (result_signature r) ))
    s.fresh.Dse.sw_results

(* A re-sweep must equal its fresh sweep and be all cache hits. *)
let resweep_problems s =
  let name = s.grid.g.Inputs.g_name in
  match s.again with
  | None -> []
  | Some again ->
      (if signatures again <> signatures s.fresh then [ name ^ ": re-sweep differs from its fresh sweep" ]
       else [])
      @
      if again.Dse.sw_new_runs <> 0 || again.Dse.sw_cache_hits <> List.length again.Dse.sw_results then
        [ Printf.sprintf "%s: re-sweep ran %d point(s) fresh" name again.Dse.sw_new_runs ]
      else []

let failures round =
  List.concat_map
    (fun s ->
      List.filter_map
        (fun (r : Dse.result) ->
          match Req.verdict_of_flow r.Dse.r_flow with
          | Req.Failed m -> Some (s.grid.g.Inputs.g_name ^ " " ^ Dse.point_label r.Dse.r_point ^ ": " ^ m)
          | _ -> None)
        (s.fresh.Dse.sw_results @ match s.again with Some a -> a.Dse.sw_results | None -> []))
    round

let points_attempted round =
  List.fold_left
    (fun a s ->
      a + List.length s.fresh.Dse.sw_results
      + match s.again with Some x -> List.length x.Dse.sw_results | None -> 0)
    0 round

(** What the measuring process keeps of one round. *)
type summary = {
  fresh_signatures : (string * string list) list;  (** per grid *)
  problems : string list;  (** re-sweeps that differ or ran fresh *)
  fails : string list;
  points : int;  (** points swept, fresh and again *)
  new_runs : int;  (** points the fresh sweeps ran, not read from the cache *)
  fresh_wall : float;  (** wall of the fresh sweeps *)
  point_walls : float list;  (** per uncached fresh point *)
  speed : float;  (** the round's {!Speed.factor}, which the walls above are multiplied by *)
  degraded : int;  (** fresh points served below the requested tier *)
  peak_rss_mb : float;  (** VmHWM of the round's process *)
  built : int;  (** picks built *)
  built_failed : int;
  pick_problems : string list;  (** picks that did not verify *)
}

(** One round of sweeps in [order]; the first also builds each plain
    grid's pick, once, with verification on. *)
let round st order ~build_picks =
  set_jobs st;
  let speed = Speed.create () in
  let round = List.map (sweep_sampled speed st) order in
  let f = Speed.factor speed in
  let fresh = List.concat_map (fun s -> s.fresh.Dse.sw_results) round in
  let peak_rss_mb = Host.peak_rss_mb "self" in
  let built =
    if not build_picks then []
    else
      List.filter_map (fun s -> if s.grid.g.Inputs.g_feedback then None else pick ~id:0 s) round
      |> List.map (fun r -> (r, Req.run r))
  in
  {
    fresh_signatures = List.map (fun s -> (s.grid.g.Inputs.g_name, signatures s.fresh)) round;
    problems = List.concat_map resweep_problems round;
    fails = failures round;
    points = points_attempted round;
    new_runs = List.fold_left (fun a s -> a + s.fresh.Dse.sw_new_runs) 0 round;
    fresh_wall = f *. Stats.sum (List.map (fun s -> s.fresh.Dse.sw_wall_s) round);
    point_walls =
      List.filter_map
        (fun (r : Dse.result) ->
          if r.Dse.r_profile.Dse.pr_cached then None else Some (f *. r.Dse.r_profile.Dse.pr_wall_s))
        fresh;
    speed = f;
    degraded =
      List.length
        (List.filter (fun (r : Dse.result) -> Req.degraded (Req.verdict_of_flow r.Dse.r_flow)) fresh);
    peak_rss_mb;
    built = List.length built;
    built_failed = List.length (List.filter (fun (_, (o : Req.outcome)) -> Req.failed o.Req.verdict) built);
    pick_problems =
      List.filter_map
        (fun ((r : Req.t), (o : Req.outcome)) ->
          match o.Req.verdict with
          | Req.Served { qor = { Req.verified = Some true; _ }; _ } -> None
          | v -> Some (r.Req.label ^ ": " ^ Req.signature v))
        built;
  }

let untraced ctx st =
  let rng = Ctx.rng ctx 2 in
  let t0 = now () in
  let rounds = ref [] and n_walls = ref 0 in
  while
    Ctx.another_pass ctx ~t0 ~passes:(List.length !rounds) ~enough:(!n_walls >= Stats.min_samples 0.9)
  do
    let order = Inputs.shuffle rng st.grids in
    let s = in_fork (fun () -> round st order ~build_picks:(!rounds = [])) in
    n_walls := !n_walls + List.length s.point_walls;
    rounds := s :: !rounds
  done;
  let rounds = List.rev !rounds in
  let first = List.hd rounds in
  let differs =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun (name, sg) ->
            if List.assoc name first.fresh_signatures = sg then None
            else Some (name ^ ": fresh sweep differs from round 1"))
          s.fresh_signatures)
      rounds
  in
  let problems = differs @ List.concat_map (fun s -> s.problems) rounds in
  let fails = List.concat_map (fun s -> s.fails) rounds in
  let attempted = List.fold_left (fun a s -> a + s.points + s.built) 0 rounds in
  let failed = List.length fails + first.built_failed in
  let latency = Report.latency (List.concat_map (fun s -> s.point_walls) rounds) in
  let fresh_points = List.fold_left (fun a (_, sg) -> a + List.length sg) 0 first.fresh_signatures in
  {
    Report.attempted;
    failed;
    metrics =
      latency
      @ [
          (* fresh points per second of fresh-sweep wall, over the whole
             run rather than the median round, as in [Closed] *)
          Report.m "req_per_s" "1/s"
            (Stats.ratio
               (float_of_int (List.fold_left (fun a s -> a + s.new_runs) 0 rounds))
               (Stats.sum (List.map (fun s -> s.fresh_wall) rounds)));
          (* one round is what one [hlsc explore] run does *)
          Report.m "peak_rss_mb" "MiB" first.peak_rss_mb;
          Report.m "host_speed" "ratio" (Stats.median (List.map (fun s -> s.speed) rounds));
          Report.m "fail_ratio" "ratio" (Stats.ratio (float_of_int failed) (float_of_int attempted));
          Report.m "degraded_ratio" "ratio"
            (Stats.ratio (float_of_int first.degraded) (float_of_int fresh_points));
        ];
    layers = [];
    checks =
      Ctx.percentile_check ctx (List.length latency = 2)
      @ [
        ("resweeps_cached_and_equal", problems = []);
        ("picks_verified", first.pick_problems = []);
      ];
    notes = problems @ first.pick_problems @ fails;
  }

let dse_layers round =
  let fresh = List.map (fun s -> s.fresh) round in
  let wall = Stats.sum (List.map (fun sw -> sw.Dse.sw_wall_s) fresh) in
  let cpu = Stats.sum (List.map (fun sw -> (Dse.stats sw).Dse.s_cpu_s) fresh) in
  let jobs = float_of_int (List.fold_left (fun a sw -> max a sw.Dse.sw_jobs) 1 fresh) in
  let max_point sw =
    List.fold_left (fun a (r : Dse.result) -> Float.max a r.Dse.r_profile.Dse.pr_wall_s) 0.0 sw.Dse.sw_results
  in
  let all = fresh @ List.filter_map (fun s -> s.again) round in
  let hits = List.fold_left (fun a sw -> a + sw.Dse.sw_cache_hits) 0 all in
  let points = List.fold_left (fun a sw -> a + List.length sw.Dse.sw_results) 0 all in
  let resweeps = List.filter_map (fun s -> Option.map (fun a -> (s.fresh, a)) s.again) round in
  let find name = List.find (fun s -> s.grid.g.Inputs.g_name = name) round in
  let plain = find "idct-fig10" and fb = find "idct-fig10-feedback" in
  [
    Report.m "dse.parallel_eff" "ratio" (Stats.ratio cpu (wall *. jobs));
    Report.m "dse.cache_hit_ratio" "ratio" (Stats.ratio (float_of_int hits) (float_of_int points));
    Report.m "dse.max_point_share" "ratio" (Stats.ratio (Stats.sum (List.map max_point fresh)) wall);
    Report.m "dse.cached_sweep_ratio" "ratio"
      (Stats.ratio
         (Stats.sum (List.map (fun (_, a) -> a.Dse.sw_wall_s) resweeps))
         (Stats.sum (List.map (fun (f, _) -> f.Dse.sw_wall_s) resweeps)));
    Report.m "feedback.sweep_ratio" "ratio" (Stats.ratio fb.fresh.Dse.sw_wall_s plain.fresh.Dse.sw_wall_s);
    Report.m "feedback.hint_reuse" "count" (float_of_int fb.fresh.Dse.sw_hint_reuse);
    Report.m "feedback.hints_extracted" "count" (float_of_int fb.fresh.Dse.sw_hints_extracted);
  ]

(** One round under [dse.sweep] spans for the DSE split, then untraced
    and traced replays of the plain grids' points and the picks. *)
let traced ctx st =
  set_jobs st;
  let rng = Ctx.rng ctx 2 in
  let acc = Req.acc () in
  let speed = Speed.create () in
  let round =
    List.mapi
      (fun i grid ->
        Span.with_span acc.Req.sp ~req:(-1 - i) "explore" (fun () -> sweep_grid ~sp:acc.Req.sp st grid))
      (Inputs.shuffle rng st.grids)
  in
  let plain = List.filter (fun s -> not s.grid.g.Inputs.g_feedback) round in
  let points, _ =
    List.fold_left
      (fun (l, id) s -> (l @ point_requests ~first_id:id s, id + 1000))
      ([], 1) plain
  in
  let picks = List.filter_map Fun.id (List.mapi (fun i s -> pick ~id:(100_000 + i) s) plain) in
  let reqs = points @ List.map (fun r -> (r, None)) picks in
  let t0 = now () in
  let n = ref 0 and passes = ref 0 and notes = ref [] and failed = ref 0 in
  while Ctx.another_pass ctx ~t0 ~passes:!passes ~enough:true do
    List.iter
      (fun ((r : Req.t), expected) ->
        let t1 = now () in
        let u = Req.step acc r in
        Speed.after speed (now () -. t1);
        incr n;
        if Req.failed u.Req.verdict then incr failed;
        if Option.fold ~none:false ~some:(( <> ) (Req.signature u.Req.verdict)) expected then
          notes := (r.Req.label ^ ": Flow.run differs from the sweep's result") :: !notes)
      (Inputs.shuffle rng reqs);
    incr passes
  done;
  let problems = List.concat_map resweep_problems round in
  ( {
      Report.empty with
      Report.attempted = !n + points_attempted round;
      failed = !failed + List.length (failures round);
      layers = Report.with_workload_layers (Req.layer_metrics ~speed:(Speed.factor speed) acc @ dse_layers round);
      checks =
        [
          ("replay_equals_flow", acc.Req.disagreements = [] && !notes = []);
          ("resweeps_cached_and_equal", problems = []);
        ];
      notes = problems @ List.rev !notes @ List.rev acc.Req.disagreements;
    },
    Span.spans acc.Req.sp )

let measure ctx st = if ctx.Ctx.trace then traced ctx st else (untraced ctx st, [])
