(** The feedback subsystem: hint-store algebra, the scheduler's
    skipping of stale hints, the subgraph-extraction invariant (every
    mined hint points into the scheduled region), the iterate loop's
    no-regress guarantee through the flow, and jobs-invariance of
    feedback-threaded DSE sweeps. *)

module Feedback = Hls_feedback.Feedback
module Hints = Feedback.Hints
module Flow = Hls_flow.Flow
module Dse = Hls_dse.Dse
module Region = Hls_ir.Region
module Synthetic = Hls_designs.Synthetic

(* ---- store algebra ---- *)

let test_store_algebra () =
  let open Hints in
  let a = empty |> add (Boost 3) |> add ~weight:2.0 (Forbid (7, 0)) in
  let b = empty |> add ~weight:5.0 (Boost 3) |> add (Dedicate 1) in
  Alcotest.(check bool) "empty is empty" true (is_empty empty);
  Alcotest.(check int) "sizes" 2 (size a);
  (* merge is commutative on everything observable *)
  Alcotest.(check string) "merge commutes (digest)" (digest (merge a b)) (digest (merge b a));
  Alcotest.(check bool) "merge commutes (bindings)" true
    (to_list (merge a b) = to_list (merge b a));
  (* re-adding bumps recurrence and keeps the larger weight *)
  let m = merge a b in
  let entry = List.assoc (Boost 3) (to_list m) in
  Alcotest.(check int) "recurrence summed" 2 entry.e_recur;
  Alcotest.(check (float 0.0)) "larger weight kept" 5.0 entry.e_weight;
  (* digest tracks the key set only *)
  Alcotest.(check string) "digest ignores weight churn" (digest m)
    (digest (add ~weight:9.0 (Boost 3) m));
  Alcotest.(check bool) "digest sees new keys" false (digest m = digest (add (Boost 99) m))

(* ---- application: stale hints are skipped and not counted ---- *)

(** A store mined on another design or grid point may name ops,
    instances and SCCs this region lacks, and a latency floor means
    nothing to a pipelined region: the scheduler skips every such hint,
    so the schedule is the empty-store one and no hint is counted. *)
let test_stale_hints_skipped () =
  let module Scheduler = Hls_core.Scheduler in
  let run hints =
    let region =
      Hls_frontend.Elaborate.main_region ~ii:2 (Hls_designs.Dotprod.elaborated ())
    in
    let opts = { Scheduler.default_options with Scheduler.hints } in
    match
      Scheduler.schedule ~opts ~lib:Hls_techlib.Library.artisan90 ~clock_ps:1600.0 region
    with
    | Ok s -> (region, s)
    | Error e -> Alcotest.failf "dotprod II=2 failed: %s" e.Scheduler.e_message
  in
  let region, base = run Hints.empty in
  let n_sccs = List.length base.Scheduler.s_scc_stages in
  Alcotest.(check bool) "pipelined, with an SCC" true (Region.is_pipelined region && n_sccs > 0);
  Alcotest.(check bool) "latency floor would raise LI" true
    (base.Scheduler.s_li < region.Region.max_steps);
  let op = (List.hd (Region.member_ops region)).Hls_ir.Dfg.id in
  let absent = Hls_ir.Dfg.size region.Region.dfg + 1000 in
  let stale =
    Hints.(
      empty
      |> add (Boost absent)
      |> add (Boost (-1))
      |> add (Dedicate absent)
      |> add (Forbid (absent, 0))
      |> add (Forbid (op, 1000))
      |> add (Scc_stage (n_sccs, 1))
      |> add (Scc_stage (-1, 1))
      |> add (Latency_floor region.Region.max_steps))
  in
  let _, s = run stale in
  Alcotest.(check int) "no stale hint counted" 0 (Scheduler.stats s).Scheduler.st_hints;
  Alcotest.(check (list int)) "stale dedication dropped" []
    (Hls_core.Binding.dedicated_ops s.Scheduler.s_binding);
  Alcotest.(check bool) "schedule equals the empty-store one" true
    (Test_sched_perf.observables s = Test_sched_perf.observables base);
  let _, live = run (Hints.add (Boost op) stale) in
  Alcotest.(check int) "a live boost is counted" 1 (Scheduler.stats live).Scheduler.st_hints

(* ---- extraction: the mined subgraph lives inside the region ---- *)

let synth_options = { Flow.default_options with Flow.verify = false; ii = Some 2 }

(** Every op id any extracted hint references is a member of the
    scheduled region — the mined subgraph is a genuine subgraph. *)
let prop_extract_subset =
  QCheck.Test.make ~name:"extracted subgraph is a subset of the region's ops" ~count:12
    QCheck.(pair (int_range 1 1000) (int_range 60 180))
    (fun (seed, ops) ->
      let d =
        Synthetic.design
          ~profile:{ Synthetic.default_profile with Synthetic.p_ops = ops; p_seed = seed }
          ()
      in
      match Flow.run ~options:synth_options d with
      | Error _ -> QCheck.assume_fail ()
      | Ok f ->
          let hints = Feedback.extract f.Flow.f_sched in
          let stray =
            List.filter (fun op -> not (Region.mem f.Flow.f_region op)) (Hints.ops hints)
          in
          if stray = [] then true
          else
            QCheck.Test.fail_reportf "seed=%d ops=%d: %d hint op(s) outside the region" seed
              ops (List.length stray))

(* ---- the feedback loop never serves a worse result ---- *)

let quality f = (f.Flow.f_cycles_per_iter, f.Flow.f_sched.Hls_core.Scheduler.s_li)

(** With feedback on, the served (II, LI) is never lexicographically
    worse than the plain run's — the iterate loop's no-regress guard,
    observed end-to-end through the flow. *)
let prop_feedback_never_worse =
  QCheck.Test.make ~name:"feedback never worsens (II, LI)" ~count:8
    QCheck.(pair (int_range 1 1000) (int_range 60 160))
    (fun (seed, ops) ->
      let d =
        Synthetic.design
          ~profile:{ Synthetic.default_profile with Synthetic.p_ops = ops; p_seed = seed }
          ()
      in
      match Flow.run ~options:synth_options d with
      | Error _ -> QCheck.assume_fail ()
      | Ok base -> (
          let options = { synth_options with Flow.feedback = true; feedback_iters = 3 } in
          match Flow.run ~options d with
          | Error diag ->
              QCheck.Test.fail_reportf "feedback run failed: %s" (Hls_diag.Diag.to_string diag)
          | Ok fb ->
              if compare (quality fb) (quality base) <= 0 then true
              else
                QCheck.Test.fail_reportf "seed=%d ops=%d: feedback (%d,%d) worse than (%d,%d)"
                  seed ops (fst (quality fb)) (snd (quality fb)) (fst (quality base))
                  (snd (quality base))))

(* ---- feedback-threaded sweeps are jobs-invariant ---- *)

let fb_options =
  { Flow.default_options with Flow.verify = false; feedback = true; feedback_iters = 2 }

let sweep_points () =
  Dse.grid_points
    (Dse.grid ~iis:[ Dse.Flat 2; Dse.Flat 4 ] ~clocks:[ 1200.0; 1600.0 ] ())

let signature (r : Dse.result) =
  let pr = r.Dse.r_profile in
  Printf.sprintf "%s | %s | passes=%d hints=%d" (Dse.point_label r.Dse.r_point)
    (match r.Dse.r_flow with
    | Ok f -> Flow.summary f
    | Error d -> "error: " ^ Hls_diag.Diag.to_string d)
    pr.Dse.pr_passes pr.Dse.pr_hints

let test_sweep_jobs_invariant () =
  let d = Hls_designs.Fft.design () in
  let pts = sweep_points () in
  let e1 = Dse.create () in
  let sw1 = Dse.sweep ~jobs:1 e1 ~options:fb_options d pts in
  (* max_workers lifted so the pool genuinely runs multi-domain even on
     a single-core host *)
  let e4 = Dse.create () in
  let sw4 = Dse.sweep ~jobs:4 ~max_workers:4 e4 ~options:fb_options d pts in
  (* the seed point runs alone, so the pool sizes to the remaining batch *)
  Alcotest.(check bool) "parallel pool actually used" true (sw4.Dse.sw_jobs > 1);
  Alcotest.(check (list string))
    "jobs=4 point results byte-identical to jobs=1"
    (List.map signature sw1.Dse.sw_results)
    (List.map signature sw4.Dse.sw_results);
  Alcotest.(check bool) "hint store warmed later points" true (sw1.Dse.sw_hint_reuse > 0);
  Alcotest.(check int) "identical hint reuse" sw1.Dse.sw_hint_reuse sw4.Dse.sw_hint_reuse

let suite =
  [
    Alcotest.test_case "hint-store algebra" `Quick test_store_algebra;
    Alcotest.test_case "stale hints skipped and not counted" `Quick test_stale_hints_skipped;
    QCheck_alcotest.to_alcotest prop_extract_subset;
    QCheck_alcotest.to_alcotest prop_feedback_never_worse;
    Alcotest.test_case "feedback sweep jobs-invariant" `Quick test_sweep_jobs_invariant;
  ]
