(** DFG construction, rewiring and analysis. *)

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
  Alcotest.(check (list int)) "preds sorted by port" [ a; b ] (Dfg.preds g s);
  Alcotest.(check (list int)) "succs of a" [ s ] (Dfg.succs g a);
  Alcotest.(check bool) "validate clean" true (Dfg.validate g = [])

let test_connect_replaces_port () =
  let g = mk () in
  let a = add g (Opkind.Const 1) ~width:2 in
  let b = add g (Opkind.Const 2) ~width:3 in
  let u = add g (Opkind.Un Opkind.Neg) ~width:4 in
  Dfg.connect g ~src:a ~dst:u ~port:0;
  Dfg.connect g ~src:b ~dst:u ~port:0;
  Alcotest.(check (list int)) "second connect wins" [ b ] (Dfg.preds g u)

let test_replace_uses () =
  let g = mk () in
  let a = add g (Opkind.Const 1) ~width:2 in
  let b = add g (Opkind.Const 2) ~width:2 in
  let u1 = add g (Opkind.Un Opkind.Neg) ~width:3 in
  let u2 = add g (Opkind.Un Opkind.Bnot) ~width:2 in
  Dfg.connect g ~src:a ~dst:u1 ~port:0;
  Dfg.connect g ~src:a ~dst:u2 ~port:0;
  Dfg.replace_uses g ~old_id:a ~by:b;
  Alcotest.(check (list int)) "u1 rewired" [ b ] (Dfg.preds g u1);
  Alcotest.(check (list int)) "u2 rewired" [ b ] (Dfg.preds g u2);
  Alcotest.(check (list int)) "a has no consumers" [] (Dfg.succs g a)

let test_replace_uses_guards () =
  let g = mk () in
  let c1 = add g (Opkind.Bin Opkind.Gt) ~width:1 in
  let c2 = add g (Opkind.Bin Opkind.Lt) ~width:1 in
  let guarded =
    Dfg.add_op g (Opkind.Const 7) ~width:4
      ~guard:(Option.get (Guard.add Guard.always ~pred:c1 ~polarity:true))
  in
  Dfg.replace_uses g ~old_id:c1 ~by:c2;
  Alcotest.(check (list int)) "guard predicate rewritten" [ c2 ] (Guard.preds guarded.Dfg.guard)

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
  let sccs = Dfg.sccs g in
  Alcotest.(check int) "one SCC" 1 (List.length sccs);
  Alcotest.(check (list int)) "accumulator cycle" [ lm; inc ] (List.sort compare (List.hd sccs));
  (* topo over distance-0 edges must still succeed *)
  Alcotest.(check int) "topo covers all ops" 4 (List.length (Dfg.topo_order g))

let test_remove_op () =
  let g = mk () in
  let a = add g (Opkind.Const 1) ~width:2 in
  let u = add g (Opkind.Un Opkind.Neg) ~width:3 in
  Dfg.connect g ~src:a ~dst:u ~port:0;
  Dfg.remove_op g u;
  Alcotest.(check int) "one op left" 1 (Dfg.size g);
  Alcotest.(check (list int)) "a loses consumer" [] (Dfg.succs g a)

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

let test_copy_isolation () =
  let g = mk () in
  let a = add g (Opkind.Const 1) ~width:2 in
  let g' = Dfg.copy g in
  (Dfg.find g' a).Dfg.name <- "changed";
  Alcotest.(check bool) "copy does not alias" false ((Dfg.find g a).Dfg.name = "changed")

(* --- the id-indexed representation against a naive list model --- *)

(* The model: live op ids (ascending) and every edge, newest first.
   [connect] replaces the edge on (dst, port); in-edges read back sorted by
   port, out-edges newest first, [all_edges] sorted by (dst, port). *)
type model = { mutable live : int list; mutable next : int; mutable edges : Dfg.edge list }

let model_connect m ~src ~dst ~port ~distance =
  m.edges <-
    { Dfg.src; dst; port; distance }
    :: List.filter (fun (e : Dfg.edge) -> not (e.Dfg.dst = dst && e.Dfg.port = port)) m.edges

let model_in m id =
  List.filter (fun (e : Dfg.edge) -> e.Dfg.dst = id) m.edges
  |> List.sort (fun (a : Dfg.edge) b -> compare a.Dfg.port b.Dfg.port)

let model_out m id = List.filter (fun (e : Dfg.edge) -> e.Dfg.src = id) m.edges

(* every observation of [g] agrees with [m]; a description of the first
   disagreement otherwise *)
let disagreement g m =
  let ids = List.init (m.next + 2) Fun.id in
  let sorted l =
    let rec ok = function
      | (a : Dfg.edge) :: (b :: _ as rest) -> a.Dfg.port < b.Dfg.port && ok rest
      | _ -> true
    in
    ok l
  in
  let visited = List.rev (Dfg.fold_ops g (fun op acc -> op.Dfg.id :: acc) []) in
  let all_model =
    List.sort
      (fun (a : Dfg.edge) b -> compare (a.Dfg.dst, a.Dfg.port) (b.Dfg.dst, b.Dfg.port))
      m.edges
  in
  match
    List.find_opt
      (fun id ->
        Dfg.mem g id <> List.mem id m.live
        || (not (sorted (Dfg.in_edges g id)))
        || Dfg.in_edges g id <> model_in m id
        || Dfg.out_edges g id <> model_out m id)
      ids
  with
  | Some id -> Some (Printf.sprintf "op %d: membership or edges differ" id)
  | None ->
      if visited <> m.live then Some "iter_ops order"
      else if Dfg.size g <> List.length m.live then Some "size"
      else if Dfg.all_edges g <> all_model then Some "all_edges"
      else None

let prop_dfg_model =
  QCheck.Test.make ~name:"id-indexed DFG agrees with a list model" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 80) (pair (int_bound 6) (quad small_nat small_nat (int_bound 2) (int_bound 1))))
    (fun cmds ->
      let g = ref (Dfg.create ()) in
      let m = { live = []; next = 0; edges = [] } in
      (* a copied-from graph and the model state it must keep *)
      let sources = ref [] in
      let pick k = List.nth m.live (k mod List.length m.live) in
      List.iter
        (fun (tag, (a, b, port, distance)) ->
          match tag with
          | 0 | 1 ->
              let id = add !g (Opkind.Un Opkind.Neg) ~width:4 in
              assert (id = m.next);
              m.next <- id + 1;
              m.live <- m.live @ [ id ]
          | (2 | 3) when m.live <> [] ->
              let src = pick a and dst = pick b in
              Dfg.connect !g ~distance ~src ~dst ~port;
              model_connect m ~src ~dst ~port ~distance
          | 4 when m.live <> [] ->
              let id = pick a in
              Dfg.remove_op !g id;
              m.live <- List.filter (fun x -> x <> id) m.live;
              m.edges <- List.filter (fun (e : Dfg.edge) -> e.Dfg.src <> id && e.Dfg.dst <> id) m.edges
          | 5 when m.live <> [] ->
              let old_id = pick a and by = pick b in
              if old_id <> by then begin
                let uses = model_out m old_id in
                Dfg.replace_uses !g ~old_id ~by;
                List.iter
                  (fun (e : Dfg.edge) ->
                    model_connect m ~src:by ~dst:e.Dfg.dst ~port:e.Dfg.port ~distance:e.Dfg.distance)
                  uses
              end
          | 6 ->
              let tag = Printf.sprintf "copy%d" (List.length !sources) in
              sources := (!g, { m with live = m.live }, tag) :: !sources;
              g := Dfg.copy !g;
              Dfg.iter_ops !g (fun op -> op.Dfg.name <- tag)
          | _ -> ())
        cmds;
      (match disagreement !g m with Some d -> QCheck.Test.fail_report d | None -> ());
      List.iter
        (fun (src, snap, tag) ->
          (match disagreement src snap with
          | Some d -> QCheck.Test.fail_reportf "copy source changed: %s" d
          | None -> ());
          Dfg.iter_ops src (fun op ->
              if op.Dfg.name = tag then QCheck.Test.fail_report "copy aliases an op record"))
        !sources;
      true)

(* One edge per input port.  The netlist's mux caches read each in-edge
   of an op as the only source of its port, so after any sequence of
   connects (replacing an edge), [replace_uses] and removals, every op's
   in-edges have strictly ascending ports, [Dfg.input] returns each of
   them for its port, and the out-lists hold exactly the same edges. *)
let prop_one_edge_per_port =
  QCheck.Test.make ~name:"at most one in-edge per (dst, port)" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 120) (quad (int_bound 3) small_nat small_nat (int_bound 2)))
    (fun cmds ->
      let g = Dfg.create () in
      let ids = Array.init 12 (fun _ -> add g (Opkind.Un Opkind.Neg) ~width:4) in
      let live () = List.filter (Dfg.mem g) (Array.to_list ids) in
      List.iter
        (fun (tag, a, b, port) ->
          match live () with
          | [] -> ()
          | l -> (
              let pick k = List.nth l (k mod List.length l) in
              match tag with
              | 0 | 1 -> Dfg.connect g ~distance:(a land 1) ~src:(pick a) ~dst:(pick b) ~port
              | 2 -> if pick a <> pick b then Dfg.replace_uses g ~old_id:(pick a) ~by:(pick b)
              | _ -> if a mod 4 = 0 then Dfg.remove_op g (pick b)))
        cmds;
      let same (x : Dfg.edge) (y : Dfg.edge) =
        x.Dfg.src = y.Dfg.src && x.Dfg.dst = y.Dfg.dst && x.Dfg.port = y.Dfg.port
        && x.Dfg.distance = y.Dfg.distance
      in
      let ins = List.concat_map (Dfg.in_edges g) (live ()) in
      let outs = List.concat_map (Dfg.out_edges g) (live ()) in
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
        (live ())
      && List.length ins = List.length outs
      && List.for_all (fun e -> List.exists (same e) outs) ins)

(* random graphs of up to 150 ops (so cones cross the 63-bit word
   boundary) with distance-1 back edges, which cones ignore, and holes
   left by removed ops *)
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
      Array.iter (fun id -> if Random.State.int rng 10 = 0 then Dfg.remove_op g id) ids;
      let table = Hls_core.Priority.fanout_table g in
      Dfg.fold_ops g (fun op ok -> ok && table op.Dfg.id = Dfg.fanout_cone_size g op.Dfg.id) true)

let suite =
  [
    Alcotest.test_case "build and find" `Quick test_build_and_find;
    Alcotest.test_case "connect replaces port" `Quick test_connect_replaces_port;
    Alcotest.test_case "replace_uses" `Quick test_replace_uses;
    Alcotest.test_case "replace_uses rewrites guards" `Quick test_replace_uses_guards;
    Alcotest.test_case "loop-carried SCC" `Quick test_loop_carried_scc;
    Alcotest.test_case "remove op" `Quick test_remove_op;
    Alcotest.test_case "validate errors" `Quick test_validate_errors;
    Alcotest.test_case "fanout cone" `Quick test_fanout_cone;
    Alcotest.test_case "copy isolation" `Quick test_copy_isolation;
    QCheck_alcotest.to_alcotest prop_dfg_model;
    QCheck_alcotest.to_alcotest prop_one_edge_per_port;
    QCheck_alcotest.to_alcotest prop_fanout_table;
  ]
