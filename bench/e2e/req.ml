(** One compile request, run the way a user runs it, and its traced
    replay through the same public calls [Flow.run] makes, each inside the
    span of the layer it belongs to. *)

open Hls_frontend
module Flow = Hls_flow.Flow
module Diag = Hls_diag.Diag
module Scheduler = Hls_core.Scheduler
module Pipeline = Hls_core.Pipeline
module Region = Hls_ir.Region
module Stats = Hls_rtl.Stats
module Equiv = Hls_sim.Equiv
module Span = E2e_kit.Span

let now = E2e_kit.Clock.now

type t = {
  id : int;
  label : string;
  design : Ast.design;
  options : Flow.options;
  emit : bool;  (** the request ends with [Verilog.emit] on success *)
}

(** What must repeat exactly for one configuration. *)
type qor = { ii : int; li : int; area : float; verified : bool option }

type verdict =
  | Served of { tier : Flow.tier; qor : qor; stats : Scheduler.stats }
  | Refused of string  (** a typed, non-fatal diagnostic after the whole ladder *)
  | Failed of string  (** raised, a Fatal diagnostic, or a verification mismatch *)

type outcome = { verdict : verdict; wall : float; verilog : string option }

let qor_of_flow (f : Flow.t) =
  {
    ii = f.Flow.f_cycles_per_iter;
    li = f.Flow.f_sched.Scheduler.s_li;
    area = f.Flow.f_area.Stats.a_total;
    verified = Option.map (fun v -> v.Equiv.equivalent) f.Flow.f_equiv;
  }

let verdict_of_flow = function
  | Ok f -> (
      match f.Flow.f_equiv with
      | Some v when not v.Equiv.equivalent -> Failed ("verification mismatch: " ^ Equiv.verdict_to_string v)
      | _ -> Served { tier = f.Flow.f_tier; qor = qor_of_flow f; stats = f.Flow.f_stats })
  | Error d when d.Diag.d_severity = Diag.Fatal -> Failed (Diag.to_string d)
  | Error d -> Refused d.Diag.d_code

(** Flow options for one DSE point, derived as [Dse.sweep] derives them.
    A per-dimension II point is refused: the replay in {!attempt} passes
    [Elaborate.main_region] the kernel II only, without the mapping of
    per-dimension requests that [Flow.resolve_ii] does. *)
let options_of_point (base : Flow.options) (p : Hls_dse.Dse.point) =
  let open Hls_dse.Dse in
  {
    base with
    Flow.ii =
      (match p.pt_ii with
      | Flat i -> Some i
      | Seq -> None
      | Dims _ -> invalid_arg "Req.options_of_point: per-dimension II points are not replayed");
    min_latency = p.pt_min_latency;
    max_latency = p.pt_max_latency;
    clock_ps = p.pt_clock_ps;
  }

(** A printable digest of everything a repeat must reproduce. *)
let signature = function
  | Served { tier; qor; _ } ->
      Printf.sprintf "%s ii=%d li=%d area=%h verified=%s" (Flow.tier_to_string tier) qor.ii qor.li
        qor.area
        (match qor.verified with None -> "-" | Some b -> string_of_bool b)
  | Refused code -> "refused " ^ code
  | Failed m -> "failed " ^ m

let failed = function Failed _ -> true | Served _ | Refused _ -> false

let degraded = function
  | Served { tier = Flow.Tier_requested; _ } | Failed _ -> false
  | Served _ | Refused _ -> true

(** The request as a user sends it: [Flow.run], then [Verilog.emit]. *)
let run r =
  let t0 = now () in
  let verdict, verilog =
    match Flow.run ~options:r.options r.design with
    | exception e -> (Failed ("raised " ^ Printexc.to_string e), None)
    | Ok f as res when r.emit -> (
        match Hls_rtl.Verilog.emit f.Flow.f_elab f.Flow.f_sched f.Flow.f_fold with
        | exception e -> (Failed ("emit raised " ^ Printexc.to_string e), None)
        | v -> (verdict_of_flow res, Some v))
    | res -> (verdict_of_flow res, None)
  in
  { verdict; wall = now () -. t0; verilog }

(* ------------------------------------------------------------------ *)
(* Traced replay *)

(** Per-request counters of a replayed attempt. *)
type sample = { stats : Scheduler.stats; alloc_words : float; ops : int; verilog_bytes : int }

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* The requested attempt of [Flow.run] (no ladder), call for call:
   elaborate, schedule, fold, area, simulate, power, then emit.  [None]
   where [Flow.run] would have walked the degradation ladder. *)
let attempt sp r =
  let o = r.options and d = r.design in
  let layer name f = Span.with_span sp name f in
  let ( let* ) = Option.bind in
  let* elab, region =
    layer "frontend" (fun () ->
        let elab = Elaborate.design ~nest:o.Flow.nest_mode d in
        if Hls_ir.Cdfg.validate elab.Elaborate.cdfg <> [] then None
        else
          Some
            ( elab,
              Elaborate.main_region ?ii:o.Flow.ii ?min_latency:o.Flow.min_latency
                ?max_latency:o.Flow.max_latency elab ))
  in
  let a0 = allocated () in
  let* sched =
    layer "core.schedule" (fun () ->
        Result.to_option
          (Scheduler.schedule
             ~opts:(Hls_feedback.Feedback.Hints.apply o.Flow.hints o.Flow.sched)
             ~lib:o.Flow.lib ~clock_ps:o.Flow.clock_ps region))
  in
  let alloc_words = allocated () -. a0 in
  let* fold =
    layer "core.fold" (fun () ->
        let f = Pipeline.fold sched in
        if Pipeline.validate sched f = [] then Some f else None)
  in
  let area =
    layer "rtl" (fun () ->
        Stats.area ~io_widths:(List.map snd (d.Ast.d_ins @ d.Ast.d_outs)) sched)
  in
  let verified, activity, iters =
    if not o.Flow.verify then (None, None, 1)
    else
      let stim, golden =
        layer "sim.behav" (fun () ->
            let stim =
              Hls_sim.Stimulus.small_random ~seed:o.Flow.seed ~n_iters:o.Flow.sim_iters
                ~ports:d.Ast.d_ins
            in
            (stim, Hls_sim.Behav.run ~nest:o.Flow.nest_mode d stim))
      in
      let sim = layer "sim.schedule_sim" (fun () -> Hls_sim.Schedule_sim.run elab sched stim) in
      let v = layer "sim.equiv" (fun () -> Equiv.check ~out_ports:d.Ast.d_outs golden sim) in
      let v =
        if Region.is_pipelined region || Region.nest region <> None then
          let k = layer "sim.kernel" (fun () -> Hls_sim.Kernel_sim.run elab sched stim) in
          layer "sim.equiv" (fun () ->
              Equiv.both v (Equiv.check_kernel ~out_ports:d.Ast.d_outs golden k))
        else v
      in
      ( Some v.Equiv.equivalent,
        Some sim.Hls_sim.Schedule_sim.r_exec_counts,
        sim.Hls_sim.Schedule_sim.r_iters )
  in
  ignore
    (layer "rtl" (fun () -> Stats.power ?activity ~iters sched area ~clock_ps:o.Flow.clock_ps));
  let verilog_bytes =
    if r.emit then
      layer "rtl" (fun () -> String.length (Hls_rtl.Verilog.emit elab sched fold))
    else 0
  in
  Some
    ( { ii = Region.ii region; li = sched.Scheduler.s_li; area = area.Stats.a_total; verified },
      {
        stats = Scheduler.stats sched;
        alloc_words;
        ops = Region.n_members region;
        verilog_bytes;
      } )

(** Everything the traced replays of one run add up to. *)
type acc = {
  sp : Span.t;
  mutable replayed : int;
  mutable samples : sample list;  (** requested-tier attempts *)
  mutable degraded : int;
  mutable ladder_s : float;  (** [Flow.run] wall beyond the replayed attempt *)
  mutable request_s : float;  (** traced request wall, all requests *)
  mutable traced_s : float;  (** traced wall, requested-tier requests *)
  mutable untraced_s : float;  (** untraced wall of the same requests *)
  mutable disagreements : string list;
  qor : (int, qor) Hashtbl.t;  (** first served result per request id *)
  requested : (int, unit) Hashtbl.t;  (** ids [Flow.run] served at the requested tier *)
  mutable gc_minor_words : float;
  mutable gc_major : int;
}

let acc () =
  {
    sp = Span.create ();
    replayed = 0;
    samples = [];
    degraded = 0;
    ladder_s = 0.0;
    request_s = 0.0;
    traced_s = 0.0;
    untraced_s = 0.0;
    disagreements = [];
    qor = Hashtbl.create 64;
    requested = Hashtbl.create 64;
    gc_minor_words = 0.0;
    gc_major = 0;
  }

let disagree acc r msg = acc.disagreements <- (r.label ^ ": " ^ msg) :: acc.disagreements

(* [f] as one traced request: the root span every layer span nests in *)
let traced_request acc r f =
  let t0 = now () in
  let x = Span.with_span acc.sp ~req:r.id "request" f in
  acc.replayed <- acc.replayed + 1;
  acc.request_s <- acc.request_s +. (now () -. t0);
  x

(* a replayed attempt against the untraced result of the same request *)
let check acc r ~(untraced : outcome) ~attempted ~traced_s =
  match (untraced.verdict, attempted) with
  | Served { tier = Flow.Tier_requested; qor; _ }, Some (q, s) ->
      if q <> qor then disagree acc r "replay QoR differs from Flow.run";
      acc.samples <- s :: acc.samples;
      acc.traced_s <- acc.traced_s +. traced_s;
      acc.untraced_s <- acc.untraced_s +. untraced.wall
  | Served { tier = Flow.Tier_requested; _ }, None ->
      disagree acc r "replayed attempt failed where Flow.run served it"
  | Failed m, _ -> disagree acc r ("untraced run failed: " ^ m)
  | (Served _ | Refused _), _ -> disagree acc r "Flow.run degraded a request that replays at the requested tier"

let timed_attempt acc r =
  let t0 = now () in
  let attempted = try attempt acc.sp r with _ -> None in
  (attempted, now () -. t0)

(** Untraced run and traced replay of one request; returns the untraced
    outcome.  A request [Flow.run] served at the requested tier must
    replay to the same II, LI, area and verdict.  A degraded one must fail
    its replayed attempt, and then gets a [flow.run] span around the real
    call, which must reproduce the untraced result.  Requests known to be
    served at the requested tier alternate which of the two runs goes
    first, so neither pays the cold caches every time. *)
let step acc r =
  let untraced () =
    let g0 = Gc.quick_stat () in
    let u = run r in
    let g1 = Gc.quick_stat () in
    acc.gc_minor_words <- acc.gc_minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    acc.gc_major <- acc.gc_major + (g1.Gc.major_collections - g0.Gc.major_collections);
    (match u.verdict with
    | Served { qor; _ } when not (Hashtbl.mem acc.qor r.id) -> Hashtbl.replace acc.qor r.id qor
    | _ -> ());
    u
  in
  if Hashtbl.mem acc.requested r.id && acc.replayed mod 2 = 1 then begin
    let attempted, traced_s = traced_request acc r (fun () -> timed_attempt acc r) in
    let u = untraced () in
    check acc r ~untraced:u ~attempted ~traced_s;
    u
  end
  else begin
    let u = untraced () in
    (match u.verdict with Served { tier = Flow.Tier_requested; _ } -> Hashtbl.replace acc.requested r.id () | _ -> ());
    traced_request acc r (fun () ->
        let attempted, traced_s = timed_attempt acc r in
        match (u.verdict, attempted) with
        | (Served { tier = Flow.Tier_requested; _ } | Failed _), _ -> check acc r ~untraced:u ~attempted ~traced_s
        | (Served _ | Refused _), Some _ -> disagree acc r "replayed attempt served where Flow.run degraded"
        | (Served _ | Refused _), None ->
            let full = Span.with_span acc.sp "flow.run" (fun () -> run r) in
            acc.degraded <- acc.degraded + 1;
            acc.ladder_s <- acc.ladder_s +. Float.max 0.0 (full.wall -. traced_s);
            if signature full.verdict <> signature u.verdict then
              disagree acc r "traced Flow.run differs from the untraced one");
    u
  end

(** QoR geomeans over distinct served requests. *)
let qor_metrics qors =
  let g f = E2e_kit.Stats.geomean (List.map f qors) in
  [
    Report.m "qor.area_geomean" "area" (g (fun q -> q.area));
    Report.m "qor.ii_geomean" "cycles" (g (fun q -> float_of_int q.ii));
    Report.m "qor.li_geomean" "states" (g (fun q -> float_of_int q.li));
  ]

(** The per-layer metrics every workload reports from its replay: layer
    self times per replayed request, scheduler and netlist counters per
    requested-tier attempt, GC per untraced request, and the tracing
    overhead.  Times are multiplied by [speed], the run's
    {!E2e_kit.Speed.factor}. *)
let layer_metrics ~speed acc =
  let open E2e_kit in
  let n = float_of_int (max 1 acc.replayed) in
  let self = Span.self_by_name (Span.spans acc.sp) in
  let ms name = speed *. 1000.0 *. Option.value (List.assoc_opt name self) ~default:0.0 /. n in
  let k = float_of_int (List.length acc.samples) in
  let total f = Stats.sum (List.map f acc.samples) in
  let per f = Stats.ratio (total f) k in
  let st f = per (fun s -> float_of_int (f s.stats)) in
  let trials = total (fun s -> float_of_int s.stats.Scheduler.st_trials) in
  [
    Report.m "frontend.ms" "ms" (ms "frontend");
    Report.m "frontend.ops" "count" (per (fun s -> float_of_int s.ops));
    Report.m "core.schedule_ms" "ms" (ms "core.schedule");
    Report.m "core.fold_ms" "ms" (ms "core.fold");
    Report.m "core.passes" "count" (st (fun s -> s.Scheduler.st_passes));
    Report.m "core.actions" "count" (st (fun s -> s.Scheduler.st_actions));
    Report.m "core.warm_passes" "count" (st (fun s -> s.Scheduler.st_warm_passes));
    Report.m "core.cold_passes" "count" (st (fun s -> s.Scheduler.st_cold_passes));
    Report.m "core.alloc_mwords" "Mwords" (per (fun s -> s.alloc_words /. 1e6));
    Report.m "netlist.queries" "count" (st (fun s -> s.Scheduler.st_queries));
    Report.m "netlist.queries_per_s" "1/s"
      (Stats.ratio
         (total (fun s -> float_of_int s.stats.Scheduler.st_queries))
         (speed *. total (fun s -> s.stats.Scheduler.st_sched_s)));
    Report.m "netlist.trials" "count" (st (fun s -> s.Scheduler.st_trials));
    Report.m "netlist.rollback_ratio" "ratio"
      (Stats.ratio (total (fun s -> float_of_int s.stats.Scheduler.st_rollbacks)) trials);
    Report.m "netlist.visits" "count" (st (fun s -> s.Scheduler.st_visits));
    Report.m "rtl.ms" "ms" (ms "rtl");
    Report.m "rtl.verilog_kb" "KiB" (per (fun s -> float_of_int s.verilog_bytes /. 1024.0));
    Report.m "sim.behav_ms" "ms" (ms "sim.behav");
    Report.m "sim.schedule_sim_ms" "ms" (ms "sim.schedule_sim");
    Report.m "sim.kernel_ms" "ms" (ms "sim.kernel");
    Report.m "sim.equiv_ms" "ms" (ms "sim.equiv");
    Report.m "flow.ladder_share" "ratio" (Stats.ratio acc.ladder_s acc.request_s);
    Report.m "flow.degraded_ratio" "ratio" (float_of_int acc.degraded /. n);
    Report.m "gc.minor_mwords_per_req" "Mwords" (acc.gc_minor_words /. n /. 1e6);
    Report.m "gc.major_per_req" "count" (float_of_int acc.gc_major /. n);
    Report.m "trace.overhead_ratio" "ratio" (Stats.ratio acc.traced_s acc.untraced_s -. 1.0);
  ]
  @ qor_metrics
      (Hashtbl.fold (fun id q l -> (id, q) :: l) acc.qor [] |> List.sort compare |> List.map snd)
