(** Initial resource estimation (Section IV.A): the paper's worked counts
    and the sharing-mux bound. *)

open Hls_ir
open Hls_core

let lib = Hls_techlib.Library.artisan90

let analyze ?ii ?(max_latency = 3) () =
  let e = Hls_designs.Example1.elaborated ~max_latency ?ii () in
  let region = Hls_frontend.Elaborate.main_region e in
  Region.reset_steps region region.Region.max_steps;
  let aa = Asap_alap.compute ~lib ~clock_ps:1600.0 region in
  (region, Alloc.run ~lib ~clock_ps:1600.0 region aa)

let count_class alloc rclass =
  List.fold_left
    (fun acc (rt, n, _) -> if rt.Hls_techlib.Resource.rclass = rclass then acc + n else acc)
    0 alloc

let test_example1_sequential () =
  (* "3 multiplies are to be scheduled in at most 3 states, which suggests
     that a single multiplier suffices" *)
  let _, alloc = analyze () in
  Alcotest.(check int) "one multiplier" 1 (count_class alloc Opkind.R_mul);
  Alcotest.(check int) "one adder" 1 (count_class alloc Opkind.R_addsub);
  Alcotest.(check int) "one relational comparator" 1 (count_class alloc Opkind.R_cmp_rel);
  Alcotest.(check int) "one equality comparator" 1 (count_class alloc Opkind.R_cmp_eq)

let test_example1_ii2 () =
  (* Example 2: "Due to edge equivalence ... two mul resources must be
     created" *)
  let _, alloc = analyze ~ii:2 ~max_latency:4 () in
  Alcotest.(check int) "two multipliers" 2 (count_class alloc Opkind.R_mul)

let test_example1_ii1 () =
  (* Example 3: "II=1 makes all the edges equivalent, hence 3 multipliers
     are created in the initial set" *)
  let _, alloc = analyze ~ii:1 ~max_latency:4 () in
  Alcotest.(check int) "three multipliers" 3 (count_class alloc Opkind.R_mul)

let test_exclusivity_counts_once () =
  (* two mutually exclusive ops need one slot *)
  let dfg = Dfg.create () in
  let c = Dfg.add_op dfg (Opkind.Bin Opkind.Gt) ~width:1 in
  let r = Dfg.add_op dfg (Opkind.Read "a") ~width:16 in
  Dfg.connect dfg ~src:r.Dfg.id ~dst:c.Dfg.id ~port:0;
  Dfg.connect dfg ~src:r.Dfg.id ~dst:c.Dfg.id ~port:1;
  let gt = Option.get (Guard.add Guard.always ~pred:c.Dfg.id ~polarity:true) in
  let gf = Option.get (Guard.add Guard.always ~pred:c.Dfg.id ~polarity:false) in
  let m1 = Dfg.add_op dfg (Opkind.Bin Opkind.Mul) ~width:16 ~guard:gt in
  let m2 = Dfg.add_op dfg (Opkind.Bin Opkind.Mul) ~width:16 ~guard:gf in
  List.iter
    (fun m ->
      Dfg.connect dfg ~src:r.Dfg.id ~dst:m.Dfg.id ~port:0;
      Dfg.connect dfg ~src:r.Dfg.id ~dst:m.Dfg.id ~port:1)
    [ m1; m2 ];
  let region = Region.create ~min_steps:1 ~max_steps:1 ~name:"excl" dfg in
  let aa = Asap_alap.compute ~lib ~clock_ps:1600.0 region in
  let alloc = Alloc.run ~lib ~clock_ps:1600.0 region aa in
  Alcotest.(check int) "exclusive muls share one multiplier" 1 (count_class alloc Opkind.R_mul)

let test_exclusive_slot_count () =
  Alcotest.(check int) "empty" 0 (Alloc.exclusive_slot_count []);
  let dfg = Dfg.create () in
  let u1 = Dfg.add_op dfg (Opkind.Bin Opkind.Add) ~width:8 in
  let u2 = Dfg.add_op dfg (Opkind.Bin Opkind.Add) ~width:8 in
  Alcotest.(check int) "two unguarded need two slots" 2 (Alloc.exclusive_slot_count [ u1; u2 ])

let test_max_share_bound () =
  let rt = { Hls_techlib.Resource.rclass = Opkind.R_mul; in_widths = [ 32; 32 ]; out_width = 32 } in
  let k = Alloc.max_share lib ~clock_ps:1600.0 rt in
  (* budget = 1600-40-930-110-40 = 480 ps of mux -> well over 64 inputs at
     5 ps/extra input; the cap keeps it sane *)
  Alcotest.(check bool) "positive" true (k >= 1);
  (* at a hopeless clock even one op barely fits *)
  let k2 = Alloc.max_share lib ~clock_ps:1000.0 rt in
  Alcotest.(check int) "tight clock allows no sharing" 1 k2

let test_latency_floor () =
  Alcotest.(check int) "floor of 10 ops on 3 insts" 4
    (Alloc.latency_floor [ ({ Hls_techlib.Resource.rclass = Opkind.R_mul; in_widths = []; out_width = 1 }, 3, 10) ]);
  Alcotest.(check int) "empty floor" 1 (Alloc.latency_floor []);
  (* the modulo baseline's ResMII: the worst class decides *)
  Alcotest.(check int) "worst of two classes" 5
    (Alloc.latency_floor
       [
         ({ Hls_techlib.Resource.rclass = Opkind.R_mul; in_widths = []; out_width = 1 }, 3, 10);
         ({ Hls_techlib.Resource.rclass = Opkind.R_addsub; in_widths = []; out_width = 1 }, 2, 9);
       ])

let suite =
  [
    Alcotest.test_case "example1 sequential (1 mul)" `Quick test_example1_sequential;
    Alcotest.test_case "example1 II=2 (2 muls)" `Quick test_example1_ii2;
    Alcotest.test_case "example1 II=1 (3 muls)" `Quick test_example1_ii1;
    Alcotest.test_case "exclusive ops share" `Quick test_exclusivity_counts_once;
    Alcotest.test_case "exclusive slot count" `Quick test_exclusive_slot_count;
    Alcotest.test_case "max share bound" `Quick test_max_share_bound;
    Alcotest.test_case "latency floor" `Quick test_latency_floor;
  ]
