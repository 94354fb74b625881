(** RTL back end: register allocation, area statistics, Verilog emission. *)

open Hls_core
open Hls_frontend

let lib = Hls_techlib.Library.artisan90

let schedule ?ii ?(clock = 1600.0) design =
  let e = Elaborate.design design in
  let region = Elaborate.main_region ?ii e in
  match Scheduler.schedule ~lib ~clock_ps:clock region with
  | Ok s -> (e, s)
  | Error err -> Alcotest.failf "schedule failed: %s" err.Scheduler.e_message

let test_regalloc_example1 () =
  let _, s = schedule (Hls_designs.Example1.design ~max_latency:3 ()) in
  let ra = Hls_rtl.Regalloc.analyze s in
  Alcotest.(check bool) "some registers" true (Hls_rtl.Regalloc.n_registers ra > 0);
  (* every value crossing a step boundary is covered *)
  let covered = List.map (fun v -> v.Hls_rtl.Regalloc.v_op) ra.Hls_rtl.Regalloc.values in
  List.iter
    (fun id -> Alcotest.(check bool) "registered op covered" true (List.mem id covered))
    (Hls_netlist.Netlist.registered_ops s.Scheduler.s_binding.Binding.net)

let test_regalloc_pipeline_copies () =
  (* a value produced in stage 1 and consumed in stage 2 of an II=1
     pipeline needs as many copies as the stage distance *)
  let _, s = schedule ~ii:1 (Hls_designs.Example1.design ()) in
  let ra = Hls_rtl.Regalloc.analyze s in
  let multi = List.filter (fun v -> v.Hls_rtl.Regalloc.v_copies > 1) ra.Hls_rtl.Regalloc.values in
  (* mask is read in stage 0 but consumed by mul3 in the last stage *)
  Alcotest.(check bool) "shift-chain copies exist" true (multi <> [])

let test_regalloc_sharing_disjoint () =
  let _, s = schedule (Hls_designs.Idct.design ~max_latency:24 ()) in
  let ra = Hls_rtl.Regalloc.analyze s in
  (* sharing must never exceed the number of values *)
  Alcotest.(check bool) "fewer registers than values (sharing happened)" true
    (Hls_rtl.Regalloc.n_registers ra <= List.length ra.Hls_rtl.Regalloc.values);
  (* shared registers host values with disjoint life spans *)
  List.iter
    (fun r ->
      let vs = r.Hls_rtl.Regalloc.r_values in
      List.iteri
        (fun i a ->
          List.iteri
            (fun j b ->
              if i < j then
                Alcotest.(check bool) "disjoint spans" true
                  (a.Hls_rtl.Regalloc.v_last_use < b.Hls_rtl.Regalloc.v_def
                  || b.Hls_rtl.Regalloc.v_last_use < a.Hls_rtl.Regalloc.v_def))
            vs)
        vs)
    (Hls_rtl.Regalloc.shared_regs ra)

let test_stats_breakdown () =
  let _, s = schedule (Hls_designs.Example1.design ~max_latency:3 ()) in
  let bd = Hls_rtl.Stats.area ~io_widths:[ 32; 32; 32; 32; 32 ] s in
  Alcotest.(check bool) "total = sum of parts" true
    (abs_float
       (bd.Hls_rtl.Stats.a_total
       -. (bd.Hls_rtl.Stats.a_resources +. bd.Hls_rtl.Stats.a_input_muxes
          +. bd.Hls_rtl.Stats.a_registers +. bd.Hls_rtl.Stats.a_reg_muxes +. bd.Hls_rtl.Stats.a_control))
    < 0.01);
  Alcotest.(check bool) "timing met -> wns 0" true (bd.Hls_rtl.Stats.wns >= -0.01);
  Alcotest.(check bool) "resources dominated by the multiplier" true
    (bd.Hls_rtl.Stats.a_resources > 7000.0)

let test_power_positive_and_scaling () =
  let _, s3 = schedule (Hls_designs.Example1.design ~max_latency:3 ()) in
  let bd3 = Hls_rtl.Stats.area s3 in
  let p3 = Hls_rtl.Stats.power s3 bd3 ~clock_ps:1600.0 in
  let _, s1 = schedule ~ii:1 (Hls_designs.Example1.design ()) in
  let bd1 = Hls_rtl.Stats.area s1 in
  let p1 = Hls_rtl.Stats.power s1 bd1 ~clock_ps:1600.0 in
  Alcotest.(check bool) "positive power" true (p3 > 0.0);
  (* II=1 runs an iteration every cycle: more activity, more power *)
  Alcotest.(check bool) "higher throughput costs power" true (p1 > p3)

let test_verilog_emission () =
  let e, s = schedule ~ii:2 (Hls_designs.Example1.design ()) in
  let f = Pipeline.fold s in
  let src = Hls_rtl.Verilog.emit e s f in
  Alcotest.(check bool) "module present" true
    (String.length src > 200
    && String.sub src 0 2 = "//");
  List.iter
    (fun needle ->
      let contains =
        let nl = String.length needle and sl = String.length src in
        let rec go i = i + nl <= sl && (String.sub src i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("contains " ^ needle) true contains)
    [ "module example1"; "endmodule"; "stage_valid"; "first_iter"; "pixel_valid"; "always @(posedge clk)" ];
  Alcotest.(check (list string)) "lint clean" [] (Hls_rtl.Verilog.lint src)

let test_verilog_sequential () =
  let e, s = schedule (Hls_designs.Dotprod.design ()) in
  let f = Pipeline.fold s in
  let src = Hls_rtl.Verilog.emit e s f in
  Alcotest.(check (list string)) "lint clean" [] (Hls_rtl.Verilog.lint src)

(* idct8x8 has predicates that finish in an early step and are read only
   by the guards of ops committing later: their registers must be
   declared and committed for the enables to refer to them *)
let test_verilog_guard_registers () =
  List.iter
    (fun ii ->
      let r =
        Hls_flow.Flow.run_exn
          ~options:{ Hls_flow.Flow.default_options with ii; clock_ps = 1600.0; verify = false }
          (Hls_designs.Idct2d.design ())
      in
      let src = Hls_rtl.Verilog.emit r.Hls_flow.Flow.f_elab r.Hls_flow.Flow.f_sched r.Hls_flow.Flow.f_fold in
      Alcotest.(check (list string)) "lint clean" [] (Hls_rtl.Verilog.lint src))
    [ None; Some 1 ]

let test_verilog_lint_catches () =
  Alcotest.(check bool) "undeclared id reported" true
    (Hls_rtl.Verilog.lint "module m; assign v1_x = v2_ghost; endmodule" <> [])

let suite =
  [
    Alcotest.test_case "regalloc covers registered values" `Quick test_regalloc_example1;
    Alcotest.test_case "regalloc pipeline copies" `Quick test_regalloc_pipeline_copies;
    Alcotest.test_case "regalloc sharing disjoint" `Quick test_regalloc_sharing_disjoint;
    Alcotest.test_case "stats breakdown" `Quick test_stats_breakdown;
    Alcotest.test_case "power scaling" `Quick test_power_positive_and_scaling;
    Alcotest.test_case "verilog pipelined emission" `Quick test_verilog_emission;
    Alcotest.test_case "verilog sequential emission" `Quick test_verilog_sequential;
    Alcotest.test_case "verilog guard registers (idct8x8)" `Quick test_verilog_guard_registers;
    Alcotest.test_case "verilog lint" `Quick test_verilog_lint_catches;
  ]
