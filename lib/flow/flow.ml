(** End-to-end HLS flow: elaborate → schedule+bind → fold → area/power →
    functional verification.

    One call to {!run} performs what the paper's Fig. 2 tool flow does for
    one micro-architectural configuration, and returns everything the
    evaluation section reports: the schedule, the folded pipeline, the area
    breakdown (post-synthesis sized), the activity-based power estimate,
    the delay point (II × Tclk — the inverse-throughput axis of Figures 10
    and 11), and a functional-equivalence verdict against the behavioural
    golden model.

    Robustness contract: {!run} never raises and always terminates within
    the scheduler's pass/action/wall-clock budgets.  Failures come back as
    typed {!Hls_diag.Diag.t} values.  When [degrade] is on (the default)
    and the requested configuration is overconstrained or runs out of
    budget, the flow walks a graceful-degradation ladder — relax the
    initiation interval, drop to non-pipelined scheduling, finally fall
    back to the decoupled baseline scheduler — and records the tier that
    actually served the result. *)

open Hls_ir
open Hls_frontend
open Hls_core
module Diag = Hls_diag.Diag
module Feedback = Hls_feedback.Feedback

type tier =
  | Tier_requested  (** the configuration the caller asked for *)
  | Tier_relaxed_ii of int  (** pipelined, but at this larger II *)
  | Tier_sequential  (** non-pipelined scheduling of the same design *)
  | Tier_baseline  (** the decoupled schedule-then-fold baseline engine *)

let tier_to_string = function
  | Tier_requested -> "requested"
  | Tier_relaxed_ii ii -> Printf.sprintf "relaxed-ii(%d)" ii
  | Tier_sequential -> "sequential"
  | Tier_baseline -> "baseline"

type options = {
  lib : Hls_techlib.Library.t;
  clock_ps : float;
  ii : int option;  (** pipeline with this initiation interval *)
  ii_dims : int list option;
      (** per-dimension II request for a loop nest, outermost first
          (e.g. [[4; 1]]); the innermost entry is the kernel II, each
          enclosing entry must equal [kernel II x stride] (checked) *)
  nest_mode : Desugar.nest_mode;
      (** counted-nest lowering: [`Flatten] (default) or [`Unroll] (the
          1-D baseline that fully unrolls inner loops) *)
  min_latency : int option;  (** override the loop's latency bounds *)
  max_latency : int option;
  sched : Scheduler.options;
  verify : bool;  (** run the simulators and check equivalence *)
  sim_iters : int;
  seed : int;
  degrade : bool;  (** walk the degradation ladder instead of failing *)
  paranoid : bool;  (** audit every schedule with {!Hls_check.Audit} *)
  feedback : bool;
      (** run the subgraph-extraction feedback loop: schedule → extract
          critical-subgraph hints → re-schedule with them batched in,
          serving the best (II, LI, area) iteration *)
  feedback_iters : int;  (** schedule calls the feedback loop may spend *)
  hints : Feedback.Hints.t;
      (** pre-mined hints applied to every schedule call (the DSE engine
          threads a shared store through here) *)
}

let default_options =
  {
    lib = Hls_techlib.Library.artisan90;
    clock_ps = 1600.0;
    ii = None;
    ii_dims = None;
    nest_mode = `Flatten;
    min_latency = None;
    max_latency = None;
    sched = Scheduler.default_options;
    verify = true;
    sim_iters = 100;
    seed = 1;
    degrade = true;
    paranoid = false;
    feedback = false;
    feedback_iters = 2;
    hints = Feedback.Hints.empty;
  }

type t = {
  f_design : Ast.design;
  f_elab : Elaborate.t;
  f_region : Region.t;
  f_sched : Scheduler.t;
  f_fold : Pipeline.t;
  f_area : Hls_rtl.Stats.breakdown;
  f_power_mw : float;
  f_equiv : Hls_sim.Equiv.verdict option;
  f_cycles_per_iter : int;  (** steady-state initiation interval *)
  f_delay_ps : float;  (** inverse throughput: II * Tclk *)
  f_clock_ps : float;
  f_tier : tier;  (** which degradation tier served this result *)
  f_notes : Diag.t list;  (** warnings accumulated on the way (degradations) *)
  f_stats : Scheduler.stats;  (** pass/action/query profiling counters *)
}

let diag_of_sched_error (e : Scheduler.error) : Diag.t =
  Diag.make ~phase:Diag.Schedule
    ~severity:(if e.Scheduler.e_code = "internal" then Diag.Fatal else Diag.Error)
    ~code:e.Scheduler.e_code
    ~restraints:(List.map Restraint.to_string e.Scheduler.e_restraints)
    ~actions:e.Scheduler.e_actions ~passes:e.Scheduler.e_passes ?budget:e.Scheduler.e_budget "%s"
    e.Scheduler.e_message

(* ------------------------------------------------------------------ *)

(** Resolve the caller's II request to the kernel II the scheduler takes.
    A flat [ii] passes through.  A per-dimension request ([ii_dims],
    outermost first) is validated against the flattened nest: the
    innermost entry is the kernel II, and each enclosing dimension's entry
    must equal [kernel II x stride of that dimension] — on the flattened
    path an outer dimension can only initiate once per full inner sweep. *)
let resolve_ii ~options (elab : Elaborate.t) : (int option, Diag.t) Stdlib.result =
  match (options.ii, options.ii_dims) with
  | Some _, _ | None, None -> Stdlib.Ok options.ii
  | None, Some [] -> Diag.error ~phase:Diag.Frontend ~code:"nest_ii" "empty per-dimension II list"
  | None, Some [ ii ] -> Stdlib.Ok (Some ii)
  | None, Some dims -> (
      match elab.Elaborate.nest with
      | None ->
          Diag.error ~phase:Diag.Frontend ~code:"nest_ii"
            "per-dimension II %s requested but the design has no flattened loop nest"
            (String.concat "x" (List.map string_of_int dims))
      | Some nest ->
          let nd = List.length nest.Region.n_dims in
          if List.length dims <> nd then
            Diag.error ~phase:Diag.Frontend ~code:"nest_ii"
              "per-dimension II has %d entries but the nest has %d dimensions"
              (List.length dims) nd
          else
            let kernel = List.nth dims (nd - 1) in
            let expected = List.map (fun s -> kernel * s) (Region.strides nest) in
            if List.for_all2 ( = ) dims expected then Stdlib.Ok (Some kernel)
            else
              Diag.error ~phase:Diag.Frontend ~code:"nest_ii"
                "per-dimension II %s is unachievable on the flattened nest: with kernel II %d the \
                 achievable vector is %s"
                (String.concat "x" (List.map string_of_int dims))
                kernel
                (String.concat "x" (List.map string_of_int expected)))

(** Elaborate a design and build its main region, converting every frontend
    exception (including designer-bound violations from {!Region.create})
    into a typed diagnostic. *)
let elaborate_guarded ~options (design : Ast.design) :
    (Elaborate.t * Region.t, Diag.t) Stdlib.result =
  match Elaborate.design ~nest:options.nest_mode design with
  | exception Hls_frontend.Fault.Error f ->
      (* preserve the typed machine code (e.g. nest_shape, unroll_overflow) *)
      Diag.error ~phase:Diag.Frontend ~code:(Hls_frontend.Fault.code f) "%s"
        (Hls_frontend.Fault.message f)
  | exception Invalid_argument m ->
      Diag.error ~phase:Diag.Frontend ~code:"invalid_design" "%s" m
  | exception Failure m -> Diag.error ~phase:Diag.Frontend ~code:"internal" ~severity:Diag.Fatal "%s" m
  | elab -> (
      match Cdfg.validate elab.Elaborate.cdfg with
      | _ :: _ as errs ->
          Diag.error ~phase:Diag.Elaborate ~code:"invalid_cdfg" "invalid CDFG: %s"
            (String.concat "; " errs)
      | [] -> (
          match resolve_ii ~options elab with
          | Stdlib.Error d -> Stdlib.Error d
          | Stdlib.Ok ii -> (
              match
                Elaborate.main_region ?ii ?min_latency:options.min_latency
                  ?max_latency:options.max_latency elab
              with
              | exception Invalid_argument m ->
                  Diag.error ~phase:Diag.Elaborate ~code:"invalid_bounds" "%s" m
              | exception Failure m ->
                  Diag.error ~phase:Diag.Elaborate ~code:"internal" ~severity:Diag.Fatal "%s" m
              | region -> Ok (elab, region))))

(** Fold, audit, size, simulate — everything downstream of a successful
    schedule, shared by all tiers.  [check_timing] is off for the
    timing-naive baseline tier. *)
let finish ~options ~tier ~check_timing (design : Ast.design) elab region (sched : Scheduler.t) :
    (t, Diag.t) Stdlib.result =
  let ( let* ) r f = match r with Stdlib.Error e -> Stdlib.Error e | Stdlib.Ok x -> f x in
  let guard ~phase ~code f =
    match f () with
    | exception Invalid_argument m -> Diag.error ~phase ~code "%s" m
    | exception Failure m -> Diag.error ~phase ~code ~severity:Diag.Fatal "%s" m
    | exception Hls_sim.Kernel_sim.Watchdog d -> Stdlib.Error d
    | x -> Stdlib.Ok x
  in
  let* fold = guard ~phase:Diag.Fold ~code:"internal" (fun () -> Pipeline.fold sched) in
  let* () =
    match Pipeline.validate sched fold with
    | [] -> Stdlib.Ok ()
    | errs ->
        Diag.error ~phase:Diag.Fold ~code:"fold_invariants" "folding invariants violated: %s"
          (String.concat "; " errs)
  in
  let* () =
    if not options.paranoid then Stdlib.Ok ()
    else
      let* viols =
        guard ~phase:Diag.Check ~code:"internal" (fun () ->
            Hls_check.Audit.run ~check_timing region sched fold)
      in
      match viols with
      | [] -> Stdlib.Ok ()
      | vs ->
          Diag.error ~phase:Diag.Check ~code:"audit" "paranoid audit found %d violation(s): %s"
            (List.length vs)
            (String.concat "; " (Hls_check.Audit.to_strings vs))
  in
  let* area =
    guard ~phase:Diag.Report ~code:"internal" (fun () ->
        let io_widths = List.map snd (design.Ast.d_ins @ design.Ast.d_outs) in
        Hls_rtl.Stats.area ~io_widths sched)
  in
  let* equiv, activity, iters =
    if not options.verify then Stdlib.Ok (None, None, 1)
    else
      guard ~phase:Diag.Verify ~code:"internal" (fun () ->
          let stim =
            Hls_sim.Stimulus.small_random ~seed:options.seed ~n_iters:options.sim_iters
              ~ports:design.Ast.d_ins
          in
          let golden = Hls_sim.Behav.run ~nest:options.nest_mode design stim in
          let sim = Hls_sim.Schedule_sim.run elab sched stim in
          let v = Hls_sim.Equiv.check ~out_ports:design.Ast.d_outs golden sim in
          let v =
            (* kernel gate: every pipelined region (and every flattened
               nest) must also stay byte-identical through the folded
               kernel — cheap now that the compiled engine is the default *)
            if Region.is_pipelined region || Region.nest region <> None then
              Hls_sim.Equiv.both v
                (Hls_sim.Equiv.check_kernel ~out_ports:design.Ast.d_outs golden
                   (Hls_sim.Kernel_sim.run elab sched stim))
            else v
          in
          (Some v, Some sim.Hls_sim.Schedule_sim.r_exec_counts, sim.Hls_sim.Schedule_sim.r_iters))
  in
  let* power =
    guard ~phase:Diag.Report ~code:"internal" (fun () ->
        Hls_rtl.Stats.power ?activity ~iters sched area ~clock_ps:options.clock_ps)
  in
  let ii = Region.ii region in
  Stdlib.Ok
    {
      f_design = design;
      f_elab = elab;
      f_region = region;
      f_sched = sched;
      f_fold = fold;
      f_area = area;
      f_power_mw = power;
      f_equiv = equiv;
      f_cycles_per_iter = ii;
      f_delay_ps = float_of_int ii *. options.clock_ps;
      f_clock_ps = options.clock_ps;
      f_tier = tier;
      f_notes = [];
      f_stats = Scheduler.stats sched;
    }

(** One complete attempt with the unified scheduler at [options.ii].
    Elaboration is always fresh (scheduling mutates speculation flags and
    the region latency), so one [Ast.design] value can be explored under
    many configurations. *)
let run_unified ~options ~trace ~tier (design : Ast.design) : (t, Diag.t) Stdlib.result =
  match elaborate_guarded ~options design with
  | Stdlib.Error d -> Stdlib.Error d
  | Stdlib.Ok (elab, region) -> (
      match
        Scheduler.schedule ~opts:options.sched ?trace ~lib:options.lib ~clock_ps:options.clock_ps
          region
      with
      | exception Invalid_argument m ->
          Diag.error ~phase:Diag.Schedule ~code:"internal" ~severity:Diag.Fatal "%s" m
      | exception Failure m ->
          Diag.error ~phase:Diag.Schedule ~code:"internal" ~severity:Diag.Fatal "%s" m
      | Stdlib.Error e -> Stdlib.Error (diag_of_sched_error e)
      | Stdlib.Ok sched ->
          let check_timing = not options.sched.Scheduler.tolerate_scc_slack in
          finish ~options ~tier ~check_timing design elab region sched)

(** The last rung: the decoupled schedule-then-fold baseline on a
    sequential region.  Structurally valid by construction (and audited
    like any other tier), but timing-naive — the area report carries any
    residual negative slack as post-synthesis upsizing/WNS. *)
let run_baseline ~options (design : Ast.design) : (t, Diag.t) Stdlib.result =
  (* Sehwa folds at a fixed II with LI in (II, max_steps]; sweep the II
     upward from the request and serve the first configuration that folds.
     Each attempt elaborates fresh, as everywhere else in the flow. *)
  let attempt ii : (t, Diag.t) Stdlib.result =
    match elaborate_guarded ~options:{ options with ii = None; ii_dims = None } design with
    | Stdlib.Error d -> Stdlib.Error d
    | Stdlib.Ok (elab, region) -> (
        match Hls_baseline.Sehwa.schedule ~ii ~lib:options.lib ~clock_ps:options.clock_ps region with
        | exception Invalid_argument m ->
            Diag.error ~phase:Diag.Schedule ~code:"baseline_internal" ~severity:Diag.Fatal "%s" m
        | exception Failure m ->
            Diag.error ~phase:Diag.Schedule ~code:"baseline_internal" ~severity:Diag.Fatal "%s" m
        | Stdlib.Error e ->
            Diag.error ~phase:Diag.Schedule ~code:"baseline_failed" "baseline scheduler failed: %s"
              e.Hls_baseline.Sehwa.s_message
        | Stdlib.Ok b ->
            let sched =
              {
                Scheduler.s_region = region;
                s_li = b.Hls_baseline.Sehwa.s_li;
                s_binding = b.Hls_baseline.Sehwa.s_binding;
                s_passes = b.Hls_baseline.Sehwa.s_attempts;
                s_actions = [ "degraded to the baseline schedule-then-fold engine" ];
                s_scc_stages = List.map (fun scc -> (scc, 0)) (Region.sccs region);
                s_sched_time_s = b.Hls_baseline.Sehwa.s_time_s;
                s_warm_passes = 0;
                s_cold_passes = b.Hls_baseline.Sehwa.s_attempts;
                s_hints_applied = 0;
              }
            in
            finish ~options ~tier:Tier_baseline ~check_timing:false design elab region sched)
  in
  match elaborate_guarded ~options:{ options with ii = None; ii_dims = None } design with
  | Stdlib.Error d -> Stdlib.Error d
  | Stdlib.Ok (_, region0) ->
      let max_ii = max 1 (region0.Region.max_steps - 1) in
      let start = match options.ii with Some i when i >= 1 -> min i max_ii | _ -> 1 in
      let rec sweep ii last =
        if ii > max_ii then last
        else
          match attempt ii with
          | Stdlib.Ok r -> Stdlib.Ok r
          | Stdlib.Error d -> sweep (ii + 1) (Stdlib.Error d)
      in
      sweep start
        (Diag.error ~phase:Diag.Schedule ~code:"baseline_failed"
           "baseline scheduler has no feasible II in [%d, %d]" start max_ii)

(* ------------------------------------------------------------------ *)

(** Phases whose failure the degradation ladder can do something about:
    a weaker configuration may still schedule, fold and audit clean.
    Frontend/elaboration faults and simulation mismatches are not
    recoverable by relaxing performance constraints. *)
let degradable (d : Diag.t) =
  match d.Diag.d_phase with
  | Diag.Schedule | Diag.Fold | Diag.Check -> true
  | Diag.Frontend | Diag.Elaborate | Diag.Report | Diag.Verify | Diag.Explore | Diag.Serve
  | Diag.Feedback ->
      false

let run_ladder ~options ~trace (design : Ast.design) : (t, Diag.t) Stdlib.result =
  match run_unified ~options ~trace ~tier:Tier_requested design with
  | Stdlib.Ok r -> Stdlib.Ok r
  | Stdlib.Error d0 when (not options.degrade) || not (degradable d0) -> Stdlib.Error d0
  | Stdlib.Error d0 ->
      let rungs =
        (match options.ii with
        | Some i ->
            let relaxed =
              List.sort_uniq compare [ i + 1; i * 2 ] |> List.filter (fun j -> j > i)
            in
            List.map
              (fun j ->
                ( Tier_relaxed_ii j,
                  fun () ->
                    run_unified ~options:{ options with ii = Some j; ii_dims = None } ~trace
                      ~tier:(Tier_relaxed_ii j) design ))
              relaxed
            @ [
                ( Tier_sequential,
                  fun () ->
                    run_unified
                      ~options:{ options with ii = None; ii_dims = None }
                      ~trace ~tier:Tier_sequential
                      design );
              ]
        | None -> [])
        @ [ (Tier_baseline, fun () -> run_baseline ~options design) ]
      in
      let note_of tier (d : Diag.t) =
        Diag.make ~phase:d.Diag.d_phase ~severity:Diag.Warning ~code:"degraded"
          ?budget:d.Diag.d_budget ~passes:d.Diag.d_passes
          "%s tier failed (%s: %s); degrading" (tier_to_string tier) d.Diag.d_code
          d.Diag.d_message
      in
      let rec walk notes = function
        | [] -> Stdlib.Error d0  (* every rung failed: report the original fault *)
        | (tier, attempt) :: rest -> (
            match attempt () with
            | Stdlib.Ok r -> Stdlib.Ok { r with f_notes = List.rev notes @ r.f_notes }
            | Stdlib.Error d -> walk (note_of tier d :: notes) rest)
      in
      walk [ note_of Tier_requested d0 ] rungs

let feedback_note (it : Feedback.iter_info) =
  let ii, li, area = it.Feedback.fi_quality in
  Diag.make ~phase:Diag.Feedback ~severity:Diag.Info ~code:"feedback_iter"
    ~passes:it.Feedback.fi_passes
    "feedback iteration %d: %d hint(s) in, %d new, II=%d LI=%d area=%.0f, %d pass(es)%s"
    it.Feedback.fi_iter it.Feedback.fi_hints_in it.Feedback.fi_new_hints ii li area
    it.Feedback.fi_passes
    (if it.Feedback.fi_kept then " [kept]" else " [regressed; discarded]")

let run ?(options = default_options) ?trace (design : Ast.design) : (t, Diag.t) Stdlib.result =
  (* pre-mined hints (the DSE engine's shared store, or a caller's) are
     applied whether or not the iterate loop runs; an empty store leaves
     the scheduler options — and therefore every golden byte — untouched *)
  let run_with hints =
    let sched = Feedback.Hints.apply hints options.sched in
    run_ladder ~options:{ options with sched } ~trace design
  in
  if not options.feedback then run_with options.hints
  else
    let result, iters, _store =
      Feedback.iterate ~max_iters:options.feedback_iters ~hints:options.hints ~run:run_with
        ~extract:(fun f -> Feedback.extract f.f_sched)
        ~quality:(fun f ->
          (f.f_cycles_per_iter, f.f_sched.Scheduler.s_li, f.f_area.Hls_rtl.Stats.a_total))
        ~passes:(fun f -> f.f_stats.Scheduler.st_passes)
        ()
    in
    match result with
    | Stdlib.Ok f -> Stdlib.Ok { f with f_notes = f.f_notes @ List.map feedback_note iters }
    | Stdlib.Error d -> Stdlib.Error d

(** Convenience: run and raise on error (used by examples and benches). *)
let run_exn ?options ?trace design =
  match run ?options ?trace design with
  | Stdlib.Ok r -> r
  | Stdlib.Error e -> failwith (Diag.to_string e)

(** Achieved per-dimension IIs, outermost first, when the scheduled
    region is a flattened loop nest; [[]] otherwise. *)
let per_dim_iis (r : t) = Region.per_dim_iis r.f_region ~kernel_ii:r.f_cycles_per_iter

let summary (r : t) =
  Printf.sprintf "%s: LI=%d II=%d clock=%.0fps delay=%.0fps area=%.0f power=%.2fmW%s%s%s"
    r.f_design.Ast.d_name r.f_sched.Scheduler.s_li r.f_cycles_per_iter r.f_clock_ps r.f_delay_ps
    r.f_area.Hls_rtl.Stats.a_total r.f_power_mw
    (match per_dim_iis r with
    | [] -> ""
    | iis -> Printf.sprintf " nest-II=%s" (String.concat "x" (List.map string_of_int iis)))
    (match r.f_tier with
    | Tier_requested -> ""
    | t -> Printf.sprintf " [degraded: %s]" (tier_to_string t))
    (match r.f_equiv with
    | Some v when v.Hls_sim.Equiv.equivalent -> " [verified]"
    | Some _ -> " [MISMATCH]"
    | None -> "")
