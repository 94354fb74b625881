(** DFG construction and analysis. *)

open Hls_ir

let mk () = Dfg.create ()

let add g kind ~width = (Dfg.add_op g kind ~width).Dfg.id

let test_build_and_find () =
  let g = mk () in
  let a = add g (Opkind.Const 5) ~width:4 in
  let b = add g (Opkind.Read "x") ~width:8 in
  let s = add g (Opkind.Bin Opkind.Add) ~width:9 in
  Dfg.connect g ~src:a ~dst:s ~port:0;
  Dfg.connect g ~src:b ~dst:s ~port:1;
  Alcotest.(check int) "size" 3 (Dfg.size g);
  Alcotest.(check (list int)) "preds sorted by port" [ a; b ] (List.map (fun (e : Dfg.edge) -> e.Dfg.src) (Dfg.in_edges g s));
  Alcotest.(check (list int)) "succs of a" [ s ] (List.map (fun (e : Dfg.edge) -> e.Dfg.dst) (Dfg.out_edges g a));
  Alcotest.(check bool) "validate clean" true (Dfg.validate g = []);
  Alcotest.(check bool) "ids are 0 .. size - 1" true (Dfg.mem g 2 && not (Dfg.mem g 3));
  Alcotest.check_raises "unknown id" (Invalid_argument "Dfg.find: no op 3") (fun () ->
      ignore (Dfg.find g 3))

let test_connect_rejects_duplicate () =
  let g = mk () in
  let a = add g (Opkind.Const 1) ~width:2 in
  let b = add g (Opkind.Const 2) ~width:3 in
  let u = add g (Opkind.Un Opkind.Neg) ~width:4 in
  Dfg.connect g ~src:a ~dst:u ~port:0;
  Alcotest.check_raises "second edge on port 0"
    (Invalid_argument "Dfg.connect: port 0 of op 2 already connected") (fun () ->
      Dfg.connect g ~src:b ~dst:u ~port:0);
  Alcotest.(check (list int)) "first edge kept" [ a ] (List.map (fun (e : Dfg.edge) -> e.Dfg.src) (Dfg.in_edges g u));
  Alcotest.(check (list int)) "b gained no consumer" [] (List.map (fun (e : Dfg.edge) -> e.Dfg.dst) (Dfg.out_edges g b))

let test_loop_carried_scc () =
  let g = mk () in
  let init = add g (Opkind.Const 0) ~width:8 in
  let lm = add g Opkind.Loop_mux ~width:8 in
  let inc = add g (Opkind.Bin Opkind.Add) ~width:8 in
  let one = add g (Opkind.Const 1) ~width:2 in
  Dfg.connect g ~src:init ~dst:lm ~port:0;
  Dfg.connect g ~src:lm ~dst:inc ~port:0;
  Dfg.connect g ~src:one ~dst:inc ~port:1;
  Dfg.connect g ~src:inc ~dst:lm ~port:1 ~distance:1;
  let sccs = Region.sccs (Region.create ~pipeline:{ Region.ii = 1 } ~name:"acc" g) in
  Alcotest.(check int) "one SCC" 1 (List.length sccs);
  Alcotest.(check (list int)) "accumulator cycle" [ lm; inc ] (List.sort compare (List.hd sccs));
  (* topo over distance-0 edges must still succeed *)
  Alcotest.(check int) "topo covers all ops" 4 (List.length (Dfg.topo_order g))

let test_validate_errors () =
  let g = mk () in
  let a = add g (Opkind.Bin Opkind.Add) ~width:4 in
  ignore a;
  Alcotest.(check bool) "missing inputs flagged" true (Dfg.validate g <> []);
  let g2 = mk () in
  let lm = add g2 Opkind.Loop_mux ~width:4 in
  let c = add g2 (Opkind.Const 0) ~width:4 in
  Dfg.connect g2 ~src:c ~dst:lm ~port:0;
  Dfg.connect g2 ~src:c ~dst:lm ~port:1;
  (* port-1 edge must be loop-carried *)
  Alcotest.(check bool) "loop_mux distance-0 carried edge flagged" true (Dfg.validate g2 <> [])

let test_fanout_cone () =
  let g = mk () in
  let a = add g (Opkind.Const 1) ~width:2 in
  let b = add g (Opkind.Un Opkind.Neg) ~width:3 in
  let c = add g (Opkind.Un Opkind.Bnot) ~width:3 in
  let d = add g (Opkind.Bin Opkind.Add) ~width:4 in
  Dfg.connect g ~src:a ~dst:b ~port:0;
  Dfg.connect g ~src:b ~dst:c ~port:0;
  Dfg.connect g ~src:b ~dst:d ~port:0;
  Dfg.connect g ~src:c ~dst:d ~port:1;
  Alcotest.(check int) "cone of a" 3 (Dfg.fanout_cone_size g a);
  Alcotest.(check int) "cone of d" 0 (Dfg.fanout_cone_size g d)

(* --- the id-indexed representation against a naive list model --- *)

(* The model: ops [0, next) and every edge, newest first.  [connect]
   raises on a (dst, port) that already has its edge and changes nothing;
   in-edges read back sorted by port, out-edges newest first, [all_edges]
   sorted by (dst, port). *)
type model = { mutable next : int; mutable edges : Dfg.edge list }

let model_in m id =
  List.filter (fun (e : Dfg.edge) -> e.Dfg.dst = id) m.edges
  |> List.sort (fun (a : Dfg.edge) b -> compare a.Dfg.port b.Dfg.port)

let model_out m id = List.filter (fun (e : Dfg.edge) -> e.Dfg.src = id) m.edges

(* every observation of [g] agrees with [m]; a description of the first
   disagreement otherwise *)
let disagreement g m =
  let ids = List.init (m.next + 2) Fun.id in
  let visited = List.rev (Dfg.fold_ops g (fun op acc -> op.Dfg.id :: acc) []) in
  let all_model =
    List.sort
      (fun (a : Dfg.edge) b -> compare (a.Dfg.dst, a.Dfg.port) (b.Dfg.dst, b.Dfg.port))
      m.edges
  in
  match
    List.find_opt
      (fun id ->
        Dfg.mem g id <> (id < m.next)
        || Dfg.in_edges g id <> model_in m id
        || Dfg.out_edges g id <> model_out m id)
      ids
  with
  | Some id -> Some (Printf.sprintf "op %d: membership or edges differ" id)
  | None ->
      if visited <> List.init m.next Fun.id then Some "iter_ops order"
      else if Dfg.size g <> m.next then Some "size"
      else if Dfg.all_edges g <> all_model then Some "all_edges"
      else None

let prop_dfg_model =
  QCheck.Test.make ~name:"id-indexed DFG agrees with a list model" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 80) (pair (int_bound 3) (quad small_nat small_nat (int_bound 2) (int_bound 1))))
    (fun cmds ->
      let g = Dfg.create () in
      let m = { next = 0; edges = [] } in
      List.iter
        (fun (tag, (a, b, port, distance)) ->
          match tag with
          | 0 | 1 ->
              let id = add g (Opkind.Un Opkind.Neg) ~width:4 in
              assert (id = m.next);
              m.next <- id + 1
          | _ when m.next > 0 -> (
              let src = a mod m.next and dst = b mod m.next in
              let taken = List.exists (fun (e : Dfg.edge) -> e.Dfg.port = port) (model_in m dst) in
              match Dfg.connect g ~distance ~src ~dst ~port with
              | () ->
                  if taken then QCheck.Test.fail_report "duplicate edge accepted";
                  m.edges <- { Dfg.src; dst; port; distance } :: m.edges
              | exception Invalid_argument _ ->
                  if not taken then QCheck.Test.fail_report "fresh edge refused")
          | _ -> ())
        cmds;
      (match disagreement g m with Some d -> QCheck.Test.fail_report d | None -> ());
      true)

(* One edge per input port.  The netlist's mux caches read each in-edge
   of an op as the only source of its port, so after any sequence of
   connects (each second edge on a port refused), every op's in-edges have
   strictly ascending ports, [Dfg.input] returns each of them for its
   port, and the out-lists hold exactly the same edges. *)
let prop_one_edge_per_port =
  QCheck.Test.make ~name:"at most one in-edge per (dst, port)" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 120) (triple small_nat small_nat (int_bound 2)))
    (fun cmds ->
      let g = Dfg.create () in
      let ids = Array.init 12 (fun _ -> add g (Opkind.Un Opkind.Neg) ~width:4) in
      let pick k = ids.(k mod Array.length ids) in
      List.iter
        (fun (a, b, port) ->
          try Dfg.connect g ~distance:(a land 1) ~src:(pick a) ~dst:(pick b) ~port
          with Invalid_argument _ -> ())
        cmds;
      let same (x : Dfg.edge) (y : Dfg.edge) =
        x.Dfg.src = y.Dfg.src && x.Dfg.dst = y.Dfg.dst && x.Dfg.port = y.Dfg.port
        && x.Dfg.distance = y.Dfg.distance
      in
      let live = Array.to_list ids in
      let ins = List.concat_map (Dfg.in_edges g) live in
      let outs = List.concat_map (Dfg.out_edges g) live in
      List.for_all
        (fun id ->
          let rec ascending = function
            | (x : Dfg.edge) :: (y :: _ as rest) -> x.Dfg.port < y.Dfg.port && ascending rest
            | _ -> true
          in
          let es = Dfg.in_edges g id in
          ascending es
          && List.for_all
               (fun (e : Dfg.edge) ->
                 match Dfg.input g id ~port:e.Dfg.port with Some e' -> same e e' | None -> false)
               es)
        live
      && List.length ins = List.length outs
      && List.for_all (fun e -> List.exists (same e) outs) ins)

(* random graphs of up to 150 ops (so cones cross the 63-bit word
   boundary) with distance-1 back edges, which cones ignore *)
let prop_fanout_table =
  QCheck.Test.make ~name:"Priority.fanout_table = Dfg.fanout_cone_size" ~count:100
    QCheck.(pair (int_range 1 150) (int_bound 100_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Dfg.create () in
      let ids = Array.init n (fun _ -> add g (Opkind.Un Opkind.Neg) ~width:4) in
      for i = 1 to n - 1 do
        for port = 0 to Random.State.int rng 3 do
          Dfg.connect g ~src:ids.(Random.State.int rng i) ~dst:ids.(i) ~port
        done;
        if Random.State.int rng 4 = 0 then
          Dfg.connect g ~distance:1 ~src:ids.(i + Random.State.int rng (n - i)) ~dst:ids.(i) ~port:3
      done;
      let table = Hls_core.Priority.fanout_table g in
      Dfg.fold_ops g (fun op ok -> ok && table op.Dfg.id = Dfg.fanout_cone_size g op.Dfg.id) true)

(* the one-bit-per-iteration count the SWAR popcount replaced *)
let loop_popcount x =
  let rec go x n = if x = 0 then n else go (x land (x - 1)) (n + 1) in
  go x 0

let test_popcount_extremes () =
  List.iter
    (fun (x, bits) ->
      Alcotest.(check int) (Printf.sprintf "popcount %d" x) bits (Hls_core.Priority.popcount x);
      Alcotest.(check int) (Printf.sprintf "bit loop %d" x) bits (loop_popcount x))
    [ (0, 0); (1, 1); (max_int, 62); (min_int, 1); (-1, 63); (0x5555555555555555, 32) ]

let prop_popcount =
  QCheck.Test.make ~name:"SWAR popcount = the bit loop" ~count:2000 QCheck.int (fun x ->
      Hls_core.Priority.popcount x = loop_popcount x)

let suite =
  [
    Alcotest.test_case "build and find" `Quick test_build_and_find;
    Alcotest.test_case "connect rejects a duplicate port" `Quick test_connect_rejects_duplicate;
    Alcotest.test_case "loop-carried SCC" `Quick test_loop_carried_scc;
    Alcotest.test_case "validate errors" `Quick test_validate_errors;
    Alcotest.test_case "fanout cone" `Quick test_fanout_cone;
    QCheck_alcotest.to_alcotest prop_dfg_model;
    QCheck_alcotest.to_alcotest prop_one_edge_per_port;
    QCheck_alcotest.to_alcotest prop_fanout_table;
    Alcotest.test_case "popcount extremes" `Quick test_popcount_extremes;
    QCheck_alcotest.to_alcotest prop_popcount;
  ]
