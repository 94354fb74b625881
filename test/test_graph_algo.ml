(** Graph algorithms: topological sort, Tarjan SCC, reachability, longest
    path — unit cases plus properties on random digraphs. *)

open Hls_ir

let adj edges n =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (a, b) ->
      let r = match Hashtbl.find_opt tbl a with Some r -> r | None -> let r = ref [] in Hashtbl.replace tbl a r; r in
      r := b :: !r)
    edges;
  ( List.init n Fun.id,
    fun v -> match Hashtbl.find_opt tbl v with Some r -> !r | None -> [] )

let test_topo_dag () =
  let nodes, succs = adj [ (0, 1); (0, 2); (1, 3); (2, 3) ] 4 in
  match Graph_algo.topo_sort ~nodes ~succs with
  | None -> Alcotest.fail "DAG must sort"
  | Some order ->
      let pos = List.mapi (fun i v -> (v, i)) order in
      let p v = List.assoc v pos in
      Alcotest.(check bool) "0 before 1" true (p 0 < p 1);
      Alcotest.(check bool) "1 before 3" true (p 1 < p 3);
      Alcotest.(check bool) "2 before 3" true (p 2 < p 3)

let test_topo_cycle () =
  let nodes, succs = adj [ (0, 1); (1, 2); (2, 0) ] 3 in
  Alcotest.(check bool) "cycle has no topo order" true (Graph_algo.topo_sort ~nodes ~succs = None)

let test_scc () =
  let nodes, succs = adj [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 3) ] 5 in
  let comps = Graph_algo.scc ~nodes ~succs in
  let sets = List.map (List.sort compare) comps |> List.sort compare in
  Alcotest.(check bool) "finds {0,1,2}" true (List.mem [ 0; 1; 2 ] sets);
  Alcotest.(check bool) "finds {3,4}" true (List.mem [ 3; 4 ] sets)

let test_scc_singletons () =
  let nodes, succs = adj [ (0, 1); (1, 2) ] 3 in
  let comps = Graph_algo.scc ~nodes ~succs in
  Alcotest.(check int) "three singleton components" 3 (List.length comps)

let test_has_path () =
  let _, succs = adj [ (0, 1); (1, 2) ] 3 in
  Alcotest.(check bool) "0 -> 2" true (Graph_algo.has_path ~from:0 ~target:2 ~succs);
  Alcotest.(check bool) "2 -/-> 0" false (Graph_algo.has_path ~from:2 ~target:0 ~succs);
  Alcotest.(check bool) "self" true (Graph_algo.has_path ~from:1 ~target:1 ~succs)

let test_longest_path () =
  let nodes, succs = adj [ (0, 1); (1, 2); (0, 2) ] 3 in
  let dist = Graph_algo.longest_path ~nodes ~succs ~weight:(fun _ -> 1.0) in
  Alcotest.(check (float 0.001)) "node 2 depth 3" 3.0 (List.assoc 2 dist)

(* random digraph generator: edge list over n nodes *)
let digraph_gen =
  QCheck.Gen.(
    int_range 2 14 >>= fun n ->
    list_size (int_range 0 (2 * n)) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    >>= fun edges -> return (n, edges))

let digraph_arb =
  QCheck.make digraph_gen ~print:(fun (n, es) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) es)))

let prop_scc_partition =
  QCheck.Test.make ~name:"SCCs partition the vertex set" ~count:300 digraph_arb (fun (n, edges) ->
      let nodes, succs = adj edges n in
      let comps = Graph_algo.scc ~nodes ~succs in
      let all = List.concat comps |> List.sort compare in
      all = List.sort compare nodes)

let prop_scc_mutual =
  QCheck.Test.make ~name:"members of an SCC reach each other" ~count:200 digraph_arb
    (fun (n, edges) ->
      let nodes, succs = adj edges n in
      let comps = Graph_algo.scc ~nodes ~succs in
      ignore nodes;
      List.for_all
        (fun comp ->
          List.for_all
            (fun a -> List.for_all (fun b -> Graph_algo.has_path ~from:a ~target:b ~succs) comp)
            comp)
        comps)

let prop_topo_respects_edges =
  QCheck.Test.make ~name:"topological order respects every edge" ~count:300 digraph_arb
    (fun (n, edges) ->
      let nodes, succs = adj edges n in
      match Graph_algo.topo_sort ~nodes ~succs with
      | None -> true (* cyclic *)
      | Some order ->
          let pos = Hashtbl.create 16 in
          List.iteri (fun i v -> Hashtbl.replace pos v i) order;
          List.for_all
            (fun (a, b) -> a = b || Hashtbl.find pos a < Hashtbl.find pos b)
            (List.filter (fun (a, b) -> a <> b) edges))

let prop_topo_none_iff_cycle =
  QCheck.Test.make ~name:"topo_sort fails exactly on cyclic graphs" ~count:200 digraph_arb
    (fun (n, edges) ->
      let nodes, succs = adj edges n in
      let has_cycle =
        List.exists
          (fun v -> List.exists (fun s -> Graph_algo.has_path ~from:s ~target:v ~succs) (succs v))
          nodes
      in
      (Graph_algo.topo_sort ~nodes ~succs = None) = has_cycle)

(* The Hashtbl + Set Kahn sort that [Graph_algo.topo_sort] replaced, kept
   verbatim as the reference order the array version must reproduce. *)
let reference_topo_sort ~nodes ~succs =
  let indeg = Hashtbl.create (List.length nodes) in
  List.iter (fun n -> Hashtbl.replace indeg n 0) nodes;
  List.iter
    (fun n ->
      List.iter
        (fun s ->
          match Hashtbl.find_opt indeg s with
          | Some d -> Hashtbl.replace indeg s (d + 1)
          | None -> ())
        (succs n))
    nodes;
  let module Pq = Set.Make (Int) in
  let ready = ref Pq.empty in
  Hashtbl.iter (fun n d -> if d = 0 then ready := Pq.add n !ready) indeg;
  let order = ref [] in
  let count = ref 0 in
  while not (Pq.is_empty !ready) do
    let n = Pq.min_elt !ready in
    ready := Pq.remove n !ready;
    order := n :: !order;
    incr count;
    List.iter
      (fun s ->
        match Hashtbl.find_opt indeg s with
        | Some d ->
            let d = d - 1 in
            Hashtbl.replace indeg s d;
            if d = 0 then ready := Pq.add s !ready
        | None -> ())
      (succs n)
  done;
  if !count = List.length nodes then Some (List.rev !order) else None

(* Sparse, possibly negative node ids in a shuffled node list (now and
   then with one id repeated), each node with up to five successors drawn
   from the nodes and from ids outside them, duplicates allowed.  Half the
   graphs only point forward in a random rank order (DAGs, where the order
   itself is compared); the other half may close cycles. *)
let sparse_digraph_gen =
  QCheck.Gen.(
    int_range 0 24 >>= fun n ->
    list_repeat n (int_range (-40) 400) >>= fun raw ->
    let ids = List.sort_uniq Int.compare raw in
    shuffle_l ids >>= fun ids ->
    bool >>= fun acyclic ->
    int_range 0 9 >>= fun dup ->
    let arr = Array.of_list ids in
    let k = Array.length arr in
    let nodes = if dup = 0 && k > 0 then arr.(0) :: ids else ids in
    let succ_gen rank =
      list_size (int_range 0 5)
        (frequency
           [
             (1, int_range 401 420);
             ( 4,
               if acyclic then
                 if rank + 1 >= k then int_range 401 420
                 else int_range (rank + 1) (k - 1) >|= fun j -> arr.(j)
               else int_range 0 (k - 1) >|= fun j -> arr.(j) );
           ])
    in
    let rec adj_of rank acc =
      if rank >= k then return (List.rev acc)
      else succ_gen rank >>= fun ss -> adj_of (rank + 1) ((arr.(rank), ss) :: acc)
    in
    adj_of 0 [] >|= fun adj -> (nodes, adj))

let sparse_digraph_arb =
  QCheck.make sparse_digraph_gen ~print:(fun (nodes, adj) ->
      Printf.sprintf "nodes=[%s] succs=[%s]"
        (String.concat ";" (List.map string_of_int nodes))
        (String.concat "; "
           (List.map
              (fun (v, ss) ->
                Printf.sprintf "%d->%s" v (String.concat "," (List.map string_of_int ss)))
              adj)))

let prop_topo_matches_reference =
  QCheck.Test.make ~name:"topo_sort returns the Hashtbl+Set Kahn order" ~count:1000
    sparse_digraph_arb (fun (nodes, adj) ->
      let succs v = match List.assoc_opt v adj with Some ss -> ss | None -> [] in
      Graph_algo.topo_sort ~nodes ~succs = reference_topo_sort ~nodes ~succs)

(* The binary-search-rank array sort that the dense rank table replaced,
   kept as the reference order the current version must reproduce. *)
let binary_search_topo_sort ~(nodes : int list) ~(succs : int -> int list) =
  let ids = Array.of_list nodes in
  let n = Array.length ids in
  Array.sort Int.compare ids;
  let rec distinct k = k >= n - 1 || (ids.(k) <> ids.(k + 1) && distinct (k + 1)) in
  if not (distinct 0) then None
  else begin
    let index (x : int) =
      let lo = ref 0 and hi = ref (n - 1) and r = ref (-1) in
      while !lo <= !hi do
        let mid = (!lo + !hi) lsr 1 in
        let v = ids.(mid) in
        if v = x then begin
          r := mid;
          lo := !hi + 1
        end
        else if v < x then lo := mid + 1
        else hi := mid - 1
      done;
      !r
    in
    let adj =
      Array.map
        (fun id ->
          List.fold_left (fun acc s -> let k = index s in if k < 0 then acc else k :: acc) [] (succs id))
        ids
    in
    let indeg = Array.make n 0 in
    Array.iter (List.iter (fun k -> indeg.(k) <- indeg.(k) + 1)) adj;
    let module Pq = Set.Make (Int) in
    let ready = ref Pq.empty in
    Array.iteri (fun k d -> if d = 0 then ready := Pq.add k !ready) indeg;
    let order = ref [] and count = ref 0 in
    while not (Pq.is_empty !ready) do
      let k = Pq.min_elt !ready in
      ready := Pq.remove k !ready;
      order := ids.(k) :: !order;
      incr count;
      List.iter
        (fun s ->
          indeg.(s) <- indeg.(s) - 1;
          if indeg.(s) = 0 then ready := Pq.add s !ready)
        adj.(k)
    done;
    if !count = n then Some (List.rev !order) else None
  end

let prop_topo_matches_binary_search =
  QCheck.Test.make ~name:"topo_sort returns the binary-search rank order" ~count:1000
    sparse_digraph_arb (fun (nodes, adj) ->
      let succs v = match List.assoc_opt v adj with Some ss -> ss | None -> [] in
      Graph_algo.topo_sort ~nodes ~succs = binary_search_topo_sort ~nodes ~succs)

(* The Hashtbl Tarjan that the array version replaced, kept as the
   reference for components, their order and their member order. *)
let hashtbl_scc ~(nodes : int list) ~(succs : int -> int list) =
  let index = Hashtbl.create 64 and lowlink = Hashtbl.create 64 and on_stack = Hashtbl.create 64 in
  let stack = ref [] and next_index = ref 0 and comps = ref [] in
  let enter w =
    Hashtbl.replace index w !next_index;
    Hashtbl.replace lowlink w !next_index;
    incr next_index;
    stack := w :: !stack;
    Hashtbl.replace on_stack w ()
  in
  let visit root =
    if not (Hashtbl.mem index root) then begin
      let call = ref [ (root, ref (succs root)) ] in
      enter root;
      while !call <> [] do
        match !call with
        | [] -> ()
        | (v, rest) :: frames -> (
            match !rest with
            | w :: more ->
                rest := more;
                if not (Hashtbl.mem index w) then begin
                  enter w;
                  call := (w, ref (succs w)) :: !call
                end
                else if Hashtbl.mem on_stack w then
                  Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find index w))
            | [] ->
                call := frames;
                (match frames with
                | (parent, _) :: _ ->
                    Hashtbl.replace lowlink parent
                      (min (Hashtbl.find lowlink parent) (Hashtbl.find lowlink v))
                | [] -> ());
                if Hashtbl.find lowlink v = Hashtbl.find index v then begin
                  let comp = ref [] and popping = ref true in
                  while !popping do
                    match !stack with
                    | [] -> popping := false
                    | w :: rest ->
                        stack := rest;
                        Hashtbl.remove on_stack w;
                        comp := w :: !comp;
                        if w = v then popping := false
                  done;
                  comps := !comp :: !comps
                end)
      done
    end
  in
  List.iter visit nodes;
  List.rev !comps

let prop_scc_matches_hashtbl =
  QCheck.Test.make ~name:"scc returns the Hashtbl Tarjan's components" ~count:1000
    sparse_digraph_arb (fun (nodes, adj) ->
      let succs v = match List.assoc_opt v adj with Some ss -> ss | None -> [] in
      Graph_algo.scc ~nodes ~succs = hashtbl_scc ~nodes ~succs)

(* successors outside [nodes] are searched, below and above their range *)
let test_scc_outside_nodes () =
  let succs = function 5 -> [ -3; 900 ] | -3 -> [ 5 ] | 900 -> [ 900 ] | _ -> [] in
  Alcotest.(check (list (list int))) "widened both ways" [ [ 900 ]; [ 5; -3 ] ]
    (Graph_algo.scc ~nodes:[ 5 ] ~succs)

let suite =
  [
    Alcotest.test_case "topo DAG" `Quick test_topo_dag;
    Alcotest.test_case "topo cycle" `Quick test_topo_cycle;
    Alcotest.test_case "scc" `Quick test_scc;
    Alcotest.test_case "scc singletons" `Quick test_scc_singletons;
    Alcotest.test_case "has_path" `Quick test_has_path;
    Alcotest.test_case "longest path" `Quick test_longest_path;
    QCheck_alcotest.to_alcotest prop_scc_partition;
    QCheck_alcotest.to_alcotest prop_scc_mutual;
    QCheck_alcotest.to_alcotest prop_topo_respects_edges;
    QCheck_alcotest.to_alcotest prop_topo_none_iff_cycle;
    QCheck_alcotest.to_alcotest prop_topo_matches_reference;
    QCheck_alcotest.to_alcotest prop_topo_matches_binary_search;
    QCheck_alcotest.to_alcotest prop_scc_matches_hashtbl;
    Alcotest.test_case "scc searches successors outside the nodes" `Quick test_scc_outside_nodes;
  ]
