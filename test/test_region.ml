(** Regions: initial LI, stages, latency bounds, SCC queries. *)

open Hls_ir

let mk ?pipeline ?(min_steps = 1) ?(max_steps = 8) () =
  let dfg = Dfg.create () in
  let a = Dfg.add_op dfg (Opkind.Read "a") ~width:8 in
  let b = Dfg.add_op dfg (Opkind.Bin Opkind.Add) ~width:9 in
  Dfg.connect dfg ~src:a.Dfg.id ~dst:b.Dfg.id ~port:0;
  Dfg.connect dfg ~src:a.Dfg.id ~dst:b.Dfg.id ~port:1;
  Region.create ?pipeline ~min_steps ~max_steps ~name:"r" dfg

let test_pipelined_initial_li () =
  let r = mk ~pipeline:{ Region.ii = 3 } () in
  (* exploration starts at LI = II + 1 *)
  Alcotest.(check int) "LI = II + 1" 4 r.Region.n_steps;
  let r2 = mk ~pipeline:{ Region.ii = 3 } ~min_steps:6 () in
  Alcotest.(check int) "designer minimum wins when larger" 6 r2.Region.n_steps

let test_stages () =
  let r = mk ~pipeline:{ Region.ii = 2 } () in
  Region.reset_steps r 6;
  Alcotest.(check int) "3 stages" 3 (Region.n_stages r);
  Alcotest.(check int) "step 5 in stage 2" 2 (Region.stage_of_step r 5);
  Region.reset_steps r 5;
  Alcotest.(check int) "ceiling for ragged LI" 3 (Region.n_stages r)

let test_add_step_bounds () =
  let r = mk ~max_steps:3 () in
  Region.reset_steps r 3;
  Alcotest.(check bool) "bound refuses growth" false (Region.add_step r);
  Region.reset_steps r 2;
  Alcotest.(check bool) "grows within bound" true (Region.add_step r);
  Alcotest.(check int) "now 3" 3 r.Region.n_steps

let test_bad_args () =
  Alcotest.check_raises "min_steps 0 rejected" (Invalid_argument "Region.create: min_steps < 1")
    (fun () -> ignore (mk ~min_steps:0 ()));
  Alcotest.check_raises "ii 0 rejected" (Invalid_argument "Region.create: ii < 1") (fun () ->
      ignore (mk ~pipeline:{ Region.ii = 0 } ()))

let test_membership () =
  let dfg = Dfg.create () in
  let a = Dfg.add_op dfg (Opkind.Const 1) ~width:2 in
  let b = Dfg.add_op dfg (Opkind.Const 2) ~width:2 in
  let r = Region.create ~members:[ a.Dfg.id ] ~name:"m" dfg in
  Alcotest.(check bool) "a in" true (Region.mem r a.Dfg.id);
  Alcotest.(check bool) "b out" false (Region.mem r b.Dfg.id);
  Alcotest.(check int) "one member" 1 (Region.n_members r)

(* The SCC list is computed once per region: a second call returns the
   same list, and after a schedule (which moves the latency interval) it
   still equals a fresh computation *)
let prop_scc_memo =
  QCheck.Test.make ~name:"SCC list = a fresh computation after scheduling" ~count:20
    QCheck.(int_range 1 10000)
    (fun seed ->
      let profile =
        {
          Hls_designs.Synthetic.default_profile with
          Hls_designs.Synthetic.p_ops = 20 + (seed mod 60);
          p_seed = seed;
          p_accumulators = 1 + (seed mod 4);
        }
      in
      let region =
        Hls_frontend.Elaborate.main_region ~ii:(1 + (seed mod 3))
          (Hls_frontend.Elaborate.design (Hls_designs.Synthetic.design ~profile ()))
      in
      let first = Region.sccs region in
      ignore
        (Hls_core.Scheduler.schedule ~lib:Hls_techlib.Library.artisan90 ~clock_ps:1600.0 region);
      Region.sccs region == first && first = Region.sccs { region with Region.scc_memo = None })

let suite =
  [
    Alcotest.test_case "pipelined initial LI" `Quick test_pipelined_initial_li;
    Alcotest.test_case "stages" `Quick test_stages;
    Alcotest.test_case "add_step bounds" `Quick test_add_step_bounds;
    Alcotest.test_case "bad arguments" `Quick test_bad_args;
    Alcotest.test_case "membership" `Quick test_membership;
    QCheck_alcotest.to_alcotest prop_scc_memo;
  ]
