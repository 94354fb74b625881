(** Extension features: multi-cycle black-box IP binding and pipeline
    stalling — the paper's Section IV.B item 2 ("possibly pipelined
    multi-cycle operations ... binding of operations to predesigned IP
    blocks") and Section V's stalling loops. *)

open Hls_ir
open Hls_core
open Hls_frontend

let base_lib = Hls_techlib.Library.artisan90

let test_multicycle_blackbox () =
  (* a 3-cycle pipelined IP block in the middle of the dataflow *)
  let lib =
    Hls_techlib.Library.with_blackbox base_lib ~name:"sqrt3" ~latency:3 ~stage_delay:900.0
      ~area:4200.0 ~energy:8.0
  in
  let open Dsl in
  let d =
    design "mc" ~ins:[ in_port "a" 16 ] ~outs:[ out_port "y" 24 ] ~vars:[ var "x" 24 ]
      [
        "x" := int 0;
        wait;
        do_while ~min_latency:1 ~max_latency:12
          [ "x" := call "sqrt3" [ port "a" ] ~width:20 +: int 1; wait; write "y" (v "x") ]
          (int 1);
      ]
  in
  let e = Elaborate.design d in
  let region = Elaborate.main_region e in
  match Scheduler.schedule ~lib ~clock_ps:1600.0 region with
  | Error err -> Alcotest.failf "multicycle schedule failed: %s" err.Scheduler.e_message
  | Ok s ->
      let dfg = e.Elaborate.cdfg.Cdfg.dfg in
      let call_op =
        List.find
          (fun o -> match o.Dfg.kind with Opkind.Call _ -> true | _ -> false)
          (Dfg.ops dfg)
      in
      let pl = Option.get (Binding.placement s.Scheduler.s_binding call_op.Dfg.id) in
      Alcotest.(check int) "occupies three steps" 2 (pl.Binding.pl_finish - pl.Binding.pl_step);
      (* its consumer starts strictly after the IP finishes *)
      let add =
        List.find (fun o -> o.Dfg.kind = Opkind.Bin Opkind.Add) (Dfg.ops dfg)
      in
      let apl = Option.get (Binding.placement s.Scheduler.s_binding add.Dfg.id) in
      Alcotest.(check bool) "consumer waits for the pipeline" true
        (apl.Binding.pl_step >= pl.Binding.pl_finish + 1);
      Alcotest.(check bool) "LI covers the latency" true (s.Scheduler.s_li >= 4)

let test_multicycle_busy_across_steps () =
  let lib =
    Hls_techlib.Library.with_blackbox base_lib ~name:"ip2" ~latency:2 ~stage_delay:800.0
      ~area:3000.0 ~energy:5.0
  in
  let dfg = Dfg.create () in
  let r = Dfg.add_op dfg (Opkind.Read "a") ~width:16 in
  let c1 = Dfg.add_op dfg (Opkind.Call { Opkind.callee = "ip2"; call_latency = 1 }) ~width:16 ~name:"c1" in
  let c2 = Dfg.add_op dfg (Opkind.Call { Opkind.callee = "ip2"; call_latency = 1 }) ~width:16 ~name:"c2" in
  Dfg.connect dfg ~src:r.Dfg.id ~dst:c1.Dfg.id ~port:0;
  Dfg.connect dfg ~src:r.Dfg.id ~dst:c2.Dfg.id ~port:0;
  let region = Region.create ~min_steps:4 ~max_steps:4 ~name:"mc2" dfg in
  let b = Binding.create ~lib ~clock_ps:1600.0 region in
  let ip =
    Binding.add_inst b { Hls_techlib.Resource.rclass = Opkind.R_blackbox "ip2"; in_widths = [ 16 ]; out_width = 16 }
  in
  Binding.reset_pass b;
  (match Binding.try_bind b r ~step:0 ~inst_opt:None with Ok () -> () | Error _ -> Alcotest.fail "read");
  (match Binding.try_bind b c1 ~step:0 ~inst_opt:(Some ip.Binding.inst_id) with
  | Ok () -> ()
  | Error f -> Alcotest.failf "c1: %s" (Restraint.fail_to_string f));
  (* step 1 is still occupied by the 2-cycle c1 *)
  (match Binding.try_bind b c2 ~step:1 ~inst_opt:(Some ip.Binding.inst_id) with
  | Error (Restraint.F_busy _) -> ()
  | Ok () -> Alcotest.fail "IP must be busy in its second cycle"
  | Error f -> Alcotest.failf "expected busy, got %s" (Restraint.fail_to_string f));
  match Binding.try_bind b c2 ~step:2 ~inst_opt:(Some ip.Binding.inst_id) with
  | Ok () -> ()
  | Error f -> Alcotest.failf "c2 at step 2: %s" (Restraint.fail_to_string f)

let test_stall_condition_plumbed () =
  let open Dsl in
  let d =
    design "st" ~ins:[ in_port "a" 8; in_port "go" 1 ] ~outs:[ out_port "y" 8 ]
      ~vars:[ var "x" 8 ]
      [
        "x" := int 0;
        wait;
        do_while ~ii:1 ~max_latency:4
          [ stall_until (port "go"); "x" := port "a"; wait; write "y" (v "x") ]
          (int 1);
      ]
  in
  let e = Elaborate.design d in
  let region = Elaborate.main_region e in
  Alcotest.(check bool) "stall condition recorded" true (region.Region.stall_cond <> None);
  match Scheduler.schedule ~lib:base_lib ~clock_ps:1600.0 region with
  | Error err -> Alcotest.failf "stalling design failed: %s" err.Scheduler.e_message
  | Ok s ->
      (* the generated controller gates advancement on the stall signal *)
      let f = Pipeline.fold s in
      let src = Hls_rtl.Verilog.emit e s f in
      let contains needle =
        let nl = String.length needle and sl = String.length src in
        let rec go i = i + nl <= sl && (String.sub src i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "advance gated" true (contains "wire advance = 1'b1 &&")

let test_dedicated_instance () =
  (* Section IV.B item 4: the user may pin an operation to its own
     resource; Example 1's three multiplications then need two instances
     even sequentially *)
  let e = Hls_designs.Example1.elaborated ~max_latency:4 () in
  let region = Elaborate.main_region e in
  let dfg = e.Elaborate.cdfg.Cdfg.dfg in
  let a_mul =
    List.find (fun o -> o.Dfg.kind = Opkind.Bin Opkind.Mul) (Dfg.ops dfg)
  in
  let opts =
    {
      Scheduler.default_options with
      hints = Hls_core.Hints.(add (Dedicate a_mul.Dfg.id) empty);
    }
  in
  match Scheduler.schedule ~opts ~lib:base_lib ~clock_ps:1600.0 region with
  | Error err -> Alcotest.failf "dedicated schedule failed: %s" err.Scheduler.e_message
  | Ok s ->
      let pl = Option.get (Binding.placement s.Scheduler.s_binding a_mul.Dfg.id) in
      let inst = Binding.find_inst s.Scheduler.s_binding (Option.get pl.Binding.pl_inst) in
      Alcotest.(check (list int)) "instance owned outright" [ a_mul.Dfg.id ] inst.Binding.bound;
      Alcotest.(check (list int)) "dedication recorded" [ a_mul.Dfg.id ]
        (Binding.dedicated_ops s.Scheduler.s_binding);
      let muls =
        List.filter
          (fun (i : Binding.inst) ->
            i.Binding.rtype.Hls_techlib.Resource.rclass = Opkind.R_mul && i.Binding.bound <> [])
          (Hls_netlist.Netlist.insts s.Scheduler.s_binding.Binding.net)
      in
      Alcotest.(check bool) "a second multiplier appears" true (List.length muls >= 2)

let suite =
  [
    Alcotest.test_case "multicycle blackbox scheduling" `Quick test_multicycle_blackbox;
    Alcotest.test_case "dedicated instance constraint" `Quick test_dedicated_instance;
    Alcotest.test_case "multicycle busy spans steps" `Quick test_multicycle_busy_across_steps;
    Alcotest.test_case "stall condition plumbed" `Quick test_stall_condition_plumbed;
  ]
