(** End-to-end flow and design-library checks. *)

open Hls_frontend
module Diag = Hls_diag.Diag

let test_flow_example1 () =
  match Hls_flow.Flow.run (Hls_designs.Example1.design ()) with
  | Error e -> Alcotest.fail (Diag.to_string e)
  | Ok r ->
      Alcotest.(check bool) "verified" true
        (match r.Hls_flow.Flow.f_equiv with Some v -> v.Hls_sim.Equiv.equivalent | None -> false);
      Alcotest.(check bool) "positive area" true (r.Hls_flow.Flow.f_area.Hls_rtl.Stats.a_total > 0.0);
      Alcotest.(check bool) "positive power" true (r.Hls_flow.Flow.f_power_mw > 0.0)

(* an empty stimulus verifies: no engine invents an iteration *)
let test_flow_empty_stimulus () =
  List.iter
    (fun (name, d, ii) ->
      match
        Hls_flow.Flow.run ~options:{ Hls_flow.Flow.default_options with ii = Some ii; sim_iters = 0 } d
      with
      | Error e -> Alcotest.fail (Diag.to_string e)
      | Ok r ->
          Alcotest.(check bool) (Printf.sprintf "%s II=%d verified" name ii) true
            (match r.Hls_flow.Flow.f_equiv with
            | Some v -> v.Hls_sim.Equiv.equivalent
            | None -> false))
    [ ("example1", Hls_designs.Example1.design (), 1); ("fir8", Hls_designs.Fir.design (), 2) ]

let test_flow_reports_frontend_errors () =
  let bad =
    Dsl.(design "bad" ~ins:[ in_port "a" 8 ] ~outs:[] ~vars:[] [ "x" := port "nope" ])
  in
  match Hls_flow.Flow.run bad with
  | Error e ->
      Alcotest.(check bool) "frontend phase" true (e.Diag.d_phase = Diag.Frontend)
  | Ok _ -> Alcotest.fail "must fail in the frontend"

let test_flow_reports_schedule_errors () =
  (* impossible clock: even a single multiplication cannot fit.  Degradation
     is off so the typed diagnostic itself surfaces. *)
  let options =
    { Hls_flow.Flow.default_options with clock_ps = 400.0; degrade = false }
  in
  match Hls_flow.Flow.run ~options (Hls_designs.Example1.design ()) with
  | Error e ->
      Alcotest.(check bool) "schedule phase" true (e.Diag.d_phase = Diag.Schedule)
  | Ok _ -> Alcotest.fail "400 ps must be unschedulable"

let test_flow_rerunnable () =
  (* one design value, many configurations: no cross-run contamination *)
  let d = Hls_designs.Example1.design () in
  let run ii =
    match Hls_flow.Flow.run ~options:{ Hls_flow.Flow.default_options with ii } d with
    | Ok r -> r.Hls_flow.Flow.f_area.Hls_rtl.Stats.a_total
    | Error e -> Alcotest.fail (Diag.to_string e)
  in
  let a1 = run None in
  let _ = run (Some 1) in
  let a1' = run None in
  Alcotest.(check (float 0.01)) "deterministic across runs" a1 a1'

let test_delay_is_ii_times_clock () =
  let options = { Hls_flow.Flow.default_options with ii = Some 2; clock_ps = 2000.0 } in
  match Hls_flow.Flow.run ~options (Hls_designs.Example1.design ()) with
  | Error e -> Alcotest.fail (Diag.to_string e)
  | Ok r -> Alcotest.(check (float 0.01)) "delay" 4000.0 r.Hls_flow.Flow.f_delay_ps

(* The timing-awareness ablation on sobel (sequential, 900 ps): the
   mux-blind binder packs more onto shared instances and hands logic
   synthesis a -47 ps violation the timing-aware run avoids.  The naive
   run's netlist ends priced and agrees with the reference evaluator. *)
let test_timing_awareness_ablation () =
  let aware = { Hls_flow.Flow.default_options with clock_ps = 900.0; sim_iters = 60 } in
  let naive =
    {
      aware with
      Hls_flow.Flow.sched = { Hls_core.Scheduler.default_options with timing_aware = false };
      verify = false;
    }
  in
  let run options =
    match Hls_flow.Flow.run ~options (Hls_designs.Conv.design ()) with
    | Ok r -> r
    | Error e -> Alcotest.fail (Diag.to_string e)
  in
  let area_wns (r : Hls_flow.Flow.t) =
    Printf.sprintf "%.0f/%.0f" r.Hls_flow.Flow.f_area.Hls_rtl.Stats.a_total
      r.Hls_flow.Flow.f_area.Hls_rtl.Stats.wns
  in
  Alcotest.(check string) "aware area/wns" "11927/0" (area_wns (run aware));
  let n = run naive in
  Alcotest.(check string) "naive area/wns" "12277/-47" (area_wns n);
  let net = n.Hls_flow.Flow.f_sched.Hls_core.Scheduler.s_binding.Hls_core.Binding.net in
  Alcotest.(check bool) "naive netlist matches the reference evaluator" true
    (Hls_timing.Graph.reference_deviation (Hls_netlist.Netlist.graph net) < 1e-6)

(* ---- design library sanity ---- *)

let test_designs_check_clean () =
  List.iter
    (fun (name, d) ->
      Alcotest.(check (list string)) (name ^ " checks clean") [] (Check.run (Desugar.design d)))
    [
      ("example1", Hls_designs.Example1.design ());
      ("fir8", Hls_designs.Fir.design ());
      ("fft", Hls_designs.Fft.design ());
      ("idct", Hls_designs.Idct.design ());
      ("sobel", Hls_designs.Conv.design ());
      ("dotprod", Hls_designs.Dotprod.design ());
      ("agc", Hls_designs.Agc.design ());
      ("synthetic", Hls_designs.Synthetic.design ());
    ]

let test_synthetic_deterministic () =
  let p = { Hls_designs.Synthetic.default_profile with p_ops = 150; p_seed = 42 } in
  let d1 = Hls_designs.Synthetic.design ~profile:p () in
  let d2 = Hls_designs.Synthetic.design ~profile:p () in
  Alcotest.(check bool) "same seed, same design" true (d1 = d2);
  let p2 = { p with p_seed = 43 } in
  let d3 = Hls_designs.Synthetic.design ~profile:p2 () in
  Alcotest.(check bool) "different seed, different design" false (d1 = d3)

let test_synthetic_population_sizes () =
  let pop = Hls_designs.Synthetic.population ~n:10 ~lo:100 ~hi:1000 ~seed:5 () in
  Alcotest.(check int) "ten designs" 10 (List.length pop);
  (* op counts grow across the population *)
  let sizes =
    List.map
      (fun d ->
        let e = Elaborate.design d in
        Hls_ir.Dfg.size e.Elaborate.cdfg.Hls_ir.Cdfg.dfg)
      pop
  in
  Alcotest.(check bool) "monotone-ish growth" true (List.nth sizes 9 > List.nth sizes 0 * 3)

let test_idct_is_multiplier_rich () =
  let e = Hls_designs.Idct.elaborated () in
  let dfg = e.Elaborate.cdfg.Hls_ir.Cdfg.dfg in
  let muls =
    List.length
      (List.filter (fun o -> o.Hls_ir.Dfg.kind = Hls_ir.Opkind.Bin Hls_ir.Opkind.Mul)
         (Hls_ir.Dfg.ops dfg))
  in
  Alcotest.(check int) "sixteen constant multiplications" 16 muls

let suite =
  [
    Alcotest.test_case "flow example1" `Quick test_flow_example1;
    Alcotest.test_case "flow empty stimulus verifies" `Quick test_flow_empty_stimulus;
    Alcotest.test_case "flow frontend errors" `Quick test_flow_reports_frontend_errors;
    Alcotest.test_case "flow schedule errors" `Quick test_flow_reports_schedule_errors;
    Alcotest.test_case "flow rerunnable" `Quick test_flow_rerunnable;
    Alcotest.test_case "delay = II x Tclk" `Quick test_delay_is_ii_times_clock;
    Alcotest.test_case "timing-awareness ablation (sobel seq)" `Quick
      test_timing_awareness_ablation;
    Alcotest.test_case "designs check clean" `Quick test_designs_check_clean;
    Alcotest.test_case "synthetic deterministic" `Quick test_synthetic_deterministic;
    Alcotest.test_case "synthetic population" `Quick test_synthetic_population_sizes;
    Alcotest.test_case "idct multiplier-rich" `Quick test_idct_is_multiplier_rich;
  ]
