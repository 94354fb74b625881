(** Timing substrate: the incremental cycle detector, the timing graph on
    its own, and the downstream logic-synthesis sizing model. *)

open Hls_timing

let test_cycle_detector_basic () =
  let t = Cycle_detector.create () in
  Cycle_detector.add_edge t ~src:0 ~dst:1;
  Cycle_detector.add_edge t ~src:1 ~dst:2;
  Alcotest.(check bool) "2->0 would close" true (Cycle_detector.would_close_cycle t ~src:2 ~dst:0);
  Alcotest.(check bool) "0->2 is fine" false (Cycle_detector.would_close_cycle t ~src:0 ~dst:2);
  Alcotest.(check bool) "self edge closes" true (Cycle_detector.would_close_cycle t ~src:1 ~dst:1);
  Alcotest.check_raises "adding a closing edge raises"
    (Invalid_argument "Cycle_detector.add_edge: closes a cycle") (fun () ->
      Cycle_detector.add_edge t ~src:2 ~dst:0)

let test_cycle_detector_idempotent () =
  let t = Cycle_detector.create () in
  Cycle_detector.add_edge t ~src:0 ~dst:1;
  Cycle_detector.add_edge t ~src:0 ~dst:1;
  Alcotest.(check int) "idempotent add" 1 (Cycle_detector.n_edges t)

(* greedy insertion over ids 0..39 with a [clear] partway: every answer
   must equal a plain DFS's over the recorded edges, and the graph left at
   the end must topologically sort *)
let prop_detector_never_cyclic =
  QCheck.Test.make ~name:"greedy edge insertion keeps the graph acyclic" ~count:200
    QCheck.(
      pair (int_range 0 200)
        (list_of_size Gen.(int_range 0 200) (pair (int_range 0 39) (int_range 0 39))))
    (fun (clear_at, edges) ->
      let t = Cycle_detector.create () in
      let agrees = ref true in
      List.iteri
        (fun k (a, b) ->
          if k = clear_at then Cycle_detector.clear t;
          let closes = Cycle_detector.would_close_cycle t ~src:a ~dst:b in
          let dfs =
            a = b || Hls_ir.Graph_algo.has_path ~from:b ~target:a ~succs:(Cycle_detector.succs t)
          in
          if closes <> dfs then agrees := false;
          if not closes then Cycle_detector.add_edge t ~src:a ~dst:b)
        edges;
      let nodes = List.init 40 Fun.id in
      !agrees && Hls_ir.Graph_algo.topo_sort ~nodes ~succs:(Cycle_detector.succs t) <> None)

(* One backward search answers for many edges: after greedy insertion
   over ids 0..29, [reaches n] after [mark_reaching targets] must equal
   "some [j -> n] of the targets would close a cycle", whatever the order
   of the queries (each may carry the lazy search further down the order)
   and for nodes outside the graph too *)
let prop_reaches_is_would_close =
  QCheck.Test.make ~name:"reaches answers would_close_cycle for every target" ~count:200
    QCheck.(
      triple
        (list_of_size Gen.(int_range 0 80) (pair (int_range 0 29) (int_range 0 29)))
        (list_of_size Gen.(int_range 1 4) (int_range 0 34))
        (list_of_size Gen.(int_range 0 40) (int_range 0 34)))
    (fun (edges, targets, queries) ->
      let t = Cycle_detector.create () in
      List.iter
        (fun (a, b) ->
          if not (Cycle_detector.would_close_cycle t ~src:a ~dst:b) then Cycle_detector.add_edge t ~src:a ~dst:b)
        edges;
      let closes n = List.exists (fun j -> Cycle_detector.would_close_cycle t ~src:j ~dst:n) targets in
      Cycle_detector.mark_reaching t targets;
      List.for_all (fun n -> Cycle_detector.reaches t n = closes n) queries)

(* ------------------------------------------------------------------ *)

let lib = Hls_techlib.Library.artisan90

let mul32 = { Hls_techlib.Resource.rclass = Hls_ir.Opkind.R_mul; in_widths = [ 32; 32 ]; out_width = 32 }
let add32 = { Hls_techlib.Resource.rclass = Hls_ir.Opkind.R_addsub; in_widths = [ 32; 32 ]; out_width = 32 }

let path ?(fixed = 300.0) elems =
  {
    Synthesize.p_endpoint = "t";
    p_step = 0;
    p_fixed = fixed;
    p_elems =
      List.mapi
        (fun i rt ->
          { Synthesize.pe_inst = i; pe_rtype = rt; pe_nominal = Hls_techlib.Library.delay lib rt })
        elems;
  }

let test_synthesize_nominal () =
  (* relaxed path: nominal areas, no upsizing *)
  let rep = { Synthesize.r_clock_ps = 2000.0; r_paths = [ path [ mul32 ] ] } in
  let r = Synthesize.run lib rep in
  Alcotest.(check bool) "feasible" true r.Synthesize.s_feasible;
  Alcotest.(check int) "nothing upsized" 0 r.Synthesize.s_upsized;
  Alcotest.(check (float 0.5)) "nominal area" (Hls_techlib.Library.area lib mul32) r.Synthesize.s_area

let test_synthesize_upsizes () =
  (* 930 + 300 fixed > 1100 clock: the multiplier must speed up *)
  let rep = { Synthesize.r_clock_ps = 1100.0; r_paths = [ path [ mul32 ] ] } in
  let r = Synthesize.run lib rep in
  Alcotest.(check bool) "feasible after sizing" true r.Synthesize.s_feasible;
  Alcotest.(check int) "one instance upsized" 1 r.Synthesize.s_upsized;
  Alcotest.(check bool) "area above nominal" true
    (r.Synthesize.s_area > Hls_techlib.Library.area lib mul32)

let test_synthesize_infeasible () =
  (* even the fastest sizing cannot absorb this *)
  let rep = { Synthesize.r_clock_ps = 700.0; r_paths = [ path [ mul32 ] ] } in
  let r = Synthesize.run lib rep in
  Alcotest.(check bool) "not feasible" false r.Synthesize.s_feasible;
  Alcotest.(check bool) "residual violation reported" true (r.Synthesize.s_wns < 0.0)

let test_synthesize_shared_instance_takes_worst () =
  (* the same instance on a loose and a tight path follows the tight one *)
  let tight = path ~fixed:500.0 [ mul32 ] in
  let loose = path ~fixed:100.0 [ mul32 ] in
  let rep = { Synthesize.r_clock_ps = 1400.0; r_paths = [ loose; tight ] } in
  let r = Synthesize.run lib rep in
  (match r.Synthesize.s_per_inst with
  | [ (_, _, f, _) ] -> Alcotest.(check bool) "scale below 1" true (f < 1.0)
  | _ -> Alcotest.fail "expected a single instance");
  Alcotest.(check bool) "feasible" true r.Synthesize.s_feasible

let test_synthesize_multi_element_path () =
  let rep = { Synthesize.r_clock_ps = 1500.0; r_paths = [ path [ mul32; add32 ] ] } in
  let r = Synthesize.run lib rep in
  (* 300 + 930 + 350 = 1580 > 1500: both elements scale by the same factor *)
  Alcotest.(check int) "both upsized" 2 r.Synthesize.s_upsized;
  Alcotest.(check bool) "feasible" true r.Synthesize.s_feasible

(* ---- the timing graph without a netlist or binder ---- *)

(* A hand-built 4-op chain: a port read feeding three negations, all
   placed in step 0 off any unit *)
let chain_graph () =
  let open Hls_ir in
  let dfg = Dfg.create () in
  let ids =
    List.map
      (fun k -> (Dfg.add_op dfg k ~width:16).Dfg.id)
      [ Opkind.Read "x"; Opkind.Un Opkind.Neg; Opkind.Un Opkind.Neg; Opkind.Un Opkind.Neg ]
  in
  List.iteri (fun k d -> if k > 0 then Dfg.connect dfg ~src:(List.nth ids (k - 1)) ~dst:d ~port:0) ids;
  let g = Graph.create ~lib ~clock_ps:1600.0 (Region.create ~name:"chain" dfg) in
  List.iter
    (fun id ->
      g.Graph.node_pass.(id) <- g.Graph.pass;
      g.Graph.node_step.(id) <- 0;
      g.Graph.node_finish.(id) <- 0)
    ids;
  Graph.recompute_all g;
  (g, ids)

let arrivals (g : Graph.t) ids = List.map (fun id -> Option.get (Graph.arrival g id)) ids

(* An abandoned trial that raised one delay leaves every pre-trial arrival
   and never fires the commit hook; a committed one fires it once per
   re-timed node and leaves the incremental arrivals equal to the
   reference evaluator's *)
let test_graph_standalone_trials () =
  let g, ids = chain_graph () in
  let a = Array.of_list ids in
  let before = arrivals g ids in
  Alcotest.(check bool) "arrivals rise along the chain" true
    (List.sort Float.compare before = before && List.nth before 3 > List.nth before 1);
  Alcotest.(check (float 1e-9)) "settled arrivals match the reference" 0.0 (Graph.reference_deviation g);
  let notes = ref [] in
  Graph.on_commit g (fun id -> notes := id :: !notes);
  let d1 = g.Graph.node_delay.(a.(1)) in
  Graph.begin_trial g;
  g.Graph.node_delay.(a.(1)) <- d1 +. 100.0;
  ignore (Graph.propagate g [ a.(1) ]);
  Alcotest.(check (float 1e-9)) "the trial sees the raised delay at the chain's end"
    (List.nth before 3 +. 100.0) (List.nth (arrivals g ids) 3);
  Graph.abandon g;
  Alcotest.(check (list (float 0.0))) "abandoned: every pre-trial arrival" before (arrivals g ids);
  g.Graph.node_delay.(a.(1)) <- d1;
  Alcotest.(check (list int)) "abandoned: no commit note" [] !notes;
  let d2 = g.Graph.node_delay.(a.(2)) in
  Graph.begin_trial g;
  g.Graph.node_delay.(a.(2)) <- d2 +. 50.0;
  let worst, worst_op = Graph.propagate g [ a.(2) ] in
  Graph.commit g;
  Alcotest.(check int) "the chain's end carries the worst slack" a.(3) worst_op;
  Alcotest.(check (float 1e-9)) "its slack" (Graph.endpoint_slack g a.(3)) worst;
  Alcotest.(check (list int)) "committed: one note per re-timed node" [ a.(2); a.(3) ]
    (List.sort Int.compare !notes);
  Alcotest.(check (float 1e-9)) "committed arrival moved" (List.nth before 3 +. 50.0)
    (List.nth (arrivals g ids) 3);
  Alcotest.(check (float 1e-9)) "incremental = reference after the commit" 0.0
    (Graph.reference_deviation g)

let suite =
  [
    Alcotest.test_case "cycle detector basics" `Quick test_cycle_detector_basic;
    Alcotest.test_case "cycle detector idempotence" `Quick test_cycle_detector_idempotent;
    QCheck_alcotest.to_alcotest prop_detector_never_cyclic;
    QCheck_alcotest.to_alcotest prop_reaches_is_would_close;
    Alcotest.test_case "graph: standalone trials and the oracle" `Quick test_graph_standalone_trials;
    Alcotest.test_case "synthesize: nominal" `Quick test_synthesize_nominal;
    Alcotest.test_case "synthesize: upsizing" `Quick test_synthesize_upsizes;
    Alcotest.test_case "synthesize: infeasible" `Quick test_synthesize_infeasible;
    Alcotest.test_case "synthesize: worst path wins" `Quick test_synthesize_shared_instance_takes_worst;
    Alcotest.test_case "synthesize: multi-element path" `Quick test_synthesize_multi_element_path;
  ]
