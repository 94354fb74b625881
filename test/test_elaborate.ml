(** Elaboration: the Example 1 CDFG matches the paper's Fig. 3 structure,
    guards and loop muxes are built correctly, regions are extracted. *)

open Hls_ir
open Hls_frontend

let example1 () = Hls_designs.Example1.elaborated ()

let count_kind dfg pred = List.length (List.filter pred (Dfg.ops dfg))

let test_example1_shape () =
  let e = example1 () in
  let dfg = e.Elaborate.cdfg.Cdfg.dfg in
  (* Fig. 3(b): three multiplications, one addition, gt, neq, the value mux
     and the aver loop mux *)
  Alcotest.(check int) "3 muls" 3
    (count_kind dfg (fun o -> o.Dfg.kind = Opkind.Bin Opkind.Mul));
  Alcotest.(check int) "1 add" 1 (count_kind dfg (fun o -> o.Dfg.kind = Opkind.Bin Opkind.Add));
  Alcotest.(check int) "1 gt" 1 (count_kind dfg (fun o -> o.Dfg.kind = Opkind.Bin Opkind.Gt));
  Alcotest.(check int) "1 neq" 1 (count_kind dfg (fun o -> o.Dfg.kind = Opkind.Bin Opkind.Neq));
  Alcotest.(check int) "1 mux" 1 (count_kind dfg (fun o -> o.Dfg.kind = Opkind.Mux));
  Alcotest.(check int) "1 loop mux" 1 (count_kind dfg (fun o -> o.Dfg.kind = Opkind.Loop_mux));
  (* four port reads, one per port per iteration *)
  Alcotest.(check int) "4 reads" 4
    (count_kind dfg (fun o -> match o.Dfg.kind with Opkind.Read _ -> true | _ -> false));
  Alcotest.(check int) "1 write" 1
    (count_kind dfg (fun o -> match o.Dfg.kind with Opkind.Write _ -> true | _ -> false))

let test_example1_validates () =
  let e = example1 () in
  Alcotest.(check (list string)) "CDFG validates" [] (Cdfg.validate e.Elaborate.cdfg)

(* The port checks are [Cdfg.validate]'s own: a structurally clean DFG whose
   [Read]/[Write] name undeclared ports is flagged once per offending op. *)
let test_undeclared_ports_flagged () =
  let cd = Cdfg.create ~name:"ports" ~in_ports:[ ("a", 8) ] ~out_ports:[ ("y", 8) ] in
  let dfg = cd.Cdfg.dfg in
  let write p src =
    let w = Dfg.add_op dfg (Opkind.Write p) ~width:8 in
    Dfg.connect dfg ~src ~dst:w.Dfg.id ~port:0
  in
  let ra = Dfg.add_op dfg (Opkind.Read "a") ~width:8 in
  write "y" ra.Dfg.id;
  Alcotest.(check (list string)) "declared ports validate" [] (Cdfg.validate cd);
  let rb = Dfg.add_op dfg (Opkind.Read "b") ~width:8 in
  write "z" rb.Dfg.id;
  Alcotest.(check (list string)) "DFG alone is clean" [] (Dfg.validate dfg);
  Alcotest.(check (list string)) "undeclared read and write flagged"
    [ Printf.sprintf "op %d reads undeclared port b" rb.Dfg.id;
      Printf.sprintf "op %d writes undeclared port z" (rb.Dfg.id + 1) ]
    (Cdfg.validate cd)

let test_guard_on_mul2 () =
  let e = example1 () in
  let dfg = e.Elaborate.cdfg.Cdfg.dfg in
  (* mul2 (aver * scale) sits under the aver > th conditional *)
  let guarded_muls =
    List.filter
      (fun o -> o.Dfg.kind = Opkind.Bin Opkind.Mul && not (Guard.is_always o.Dfg.guard))
      (Dfg.ops dfg)
  in
  Alcotest.(check int) "exactly one guarded mul" 1 (List.length guarded_muls);
  let g = (List.hd guarded_muls).Dfg.guard in
  let pred = List.hd (Guard.preds g) in
  Alcotest.(check bool) "guard predicate is the gt op" true
    ((Dfg.find dfg pred).Dfg.kind = Opkind.Bin Opkind.Gt)

let test_loop_mux_wiring () =
  let e = example1 () in
  let dfg = e.Elaborate.cdfg.Cdfg.dfg in
  let lm = List.find (fun o -> o.Dfg.kind = Opkind.Loop_mux) (Dfg.ops dfg) in
  let port1 = Option.get (Dfg.input dfg lm.Dfg.id ~port:1) in
  Alcotest.(check int) "carried edge has distance 1" 1 port1.Dfg.distance;
  let port0 = Option.get (Dfg.input dfg lm.Dfg.id ~port:0) in
  Alcotest.(check int) "init edge is intra-iteration" 0 port0.Dfg.distance;
  (* init comes from outside the loop *)
  let li = Option.get e.Elaborate.loop in
  Alcotest.(check bool) "init is not a loop member" false
    (List.mem port0.Dfg.src li.Elaborate.li_members)

let test_region_extraction () =
  let e = example1 () in
  let li = Option.get e.Elaborate.loop in
  Alcotest.(check bool) "loop has a continue condition" true (li.Elaborate.li_continue <> None);
  Alcotest.(check int) "source latency one wait" 1 li.Elaborate.li_waits;
  Alcotest.(check bool) "pre region holds the aver init" true (e.Elaborate.pre_members <> []);
  let r = Elaborate.main_region e in
  Alcotest.(check int) "region members" (List.length li.Elaborate.li_members) (Region.n_members r)

let test_example1_scc () =
  let e = example1 () in
  let r = Elaborate.main_region ~ii:2 e in
  let dfg = e.Elaborate.cdfg.Cdfg.dfg in
  let sccs = Region.sccs r in
  Alcotest.(check int) "a single SCC" 1 (List.length sccs);
  let names = List.map (fun id -> (Dfg.find dfg id).Dfg.kind) (List.hd sccs) in
  (* the paper's {loopMux, add, mul2, MUX} (plus zero-delay truncation
     wires); the comparator is excluded because mux selects are control *)
  Alcotest.(check bool) "contains loop mux" true (List.mem Opkind.Loop_mux names);
  Alcotest.(check bool) "contains add" true (List.mem (Opkind.Bin Opkind.Add) names);
  Alcotest.(check bool) "contains mul" true (List.mem (Opkind.Bin Opkind.Mul) names);
  Alcotest.(check bool) "contains mux" true (List.mem Opkind.Mux names);
  Alcotest.(check bool) "excludes gt" false (List.mem (Opkind.Bin Opkind.Gt) names)

let test_port_read_dedup () =
  (* mask is read twice in the source (filt = mask; mask * chrome) but the
     per-iteration semantics give one Read op *)
  let e = example1 () in
  let dfg = e.Elaborate.cdfg.Cdfg.dfg in
  let mask_reads =
    List.filter (fun o -> o.Dfg.kind = Opkind.Read "mask") (Dfg.ops dfg)
  in
  Alcotest.(check int) "one mask read" 1 (List.length mask_reads)

let test_assignment_truncates () =
  let open Dsl in
  let d =
    design "w" ~ins:[ in_port "a" 8 ] ~outs:[ out_port "y" 8 ] ~vars:[ var "x" 8 ]
      [ "x" := port "a" *: port "a"; wait; do_while [ write "y" (v "x"); wait ] (int 1) ]
  in
  let e = Elaborate.design d in
  let dfg = e.Elaborate.cdfg.Cdfg.dfg in
  (* the 16-bit product must be truncated back to the 8-bit variable *)
  Alcotest.(check bool) "truncation wire present" true
    (List.exists
       (fun o -> match o.Dfg.kind with Opkind.Slice (7, 0) -> true | _ -> false)
       (Dfg.ops dfg))

let test_timed_anchors () =
  let d = Hls_designs.Example1.design () in
  let e = Elaborate.design ~timed:true d in
  let dfg = e.Elaborate.cdfg.Cdfg.dfg in
  let reads =
    List.filter (fun o -> match o.Dfg.kind with Opkind.Read _ -> true | _ -> false) (Dfg.ops dfg)
  in
  Alcotest.(check bool) "timed mode anchors I/O ops" true
    (List.for_all (fun o -> o.Dfg.anchor <> None) reads)

let test_if_join_mux () =
  let open Dsl in
  let d =
    design "j" ~ins:[ in_port "a" 8 ] ~outs:[ out_port "y" 8 ] ~vars:[ var "x" 8 ]
      [
        "x" := int 0;
        wait;
        do_while
          [ if_ (port "a" >: int 0) [ "x" := port "a" ] [ "x" := int 0 -: port "a" ];
            wait; write "y" (v "x") ]
          (int 1);
      ]
  in
  let e = Elaborate.design d in
  let dfg = e.Elaborate.cdfg.Cdfg.dfg in
  Alcotest.(check int) "join merges with one mux" 1
    (List.length (List.filter (fun o -> o.Dfg.kind = Opkind.Mux) (Dfg.ops dfg)));
  Alcotest.(check (list string)) "validates" [] (Cdfg.validate e.Elaborate.cdfg)

let suite =
  [
    Alcotest.test_case "example1 shape (Fig. 3)" `Quick test_example1_shape;
    Alcotest.test_case "example1 validates" `Quick test_example1_validates;
    Alcotest.test_case "undeclared ports flagged" `Quick test_undeclared_ports_flagged;
    Alcotest.test_case "guard on mul2" `Quick test_guard_on_mul2;
    Alcotest.test_case "loop mux wiring" `Quick test_loop_mux_wiring;
    Alcotest.test_case "region extraction" `Quick test_region_extraction;
    Alcotest.test_case "example1 SCC" `Quick test_example1_scc;
    Alcotest.test_case "port read dedup" `Quick test_port_read_dedup;
    Alcotest.test_case "assignment truncates" `Quick test_assignment_truncates;
    Alcotest.test_case "timed anchors" `Quick test_timed_anchors;
    Alcotest.test_case "if join mux" `Quick test_if_join_mux;
  ]
