(** Timing substrate: the incremental cycle detector and the downstream
    logic-synthesis sizing model. *)

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

let suite =
  [
    Alcotest.test_case "cycle detector basics" `Quick test_cycle_detector_basic;
    Alcotest.test_case "cycle detector idempotence" `Quick test_cycle_detector_idempotent;
    QCheck_alcotest.to_alcotest prop_detector_never_cyclic;
    Alcotest.test_case "synthesize: nominal" `Quick test_synthesize_nominal;
    Alcotest.test_case "synthesize: upsizing" `Quick test_synthesize_upsizes;
    Alcotest.test_case "synthesize: infeasible" `Quick test_synthesize_infeasible;
    Alcotest.test_case "synthesize: worst path wins" `Quick test_synthesize_shared_instance_takes_worst;
    Alcotest.test_case "synthesize: multi-element path" `Quick test_synthesize_multi_element_path;
  ]
