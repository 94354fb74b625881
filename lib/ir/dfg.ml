(** The data-flow graph.

    Nodes are operations ({!Opkind.t} plus result width, guard and
    bookkeeping); edges are data dependencies [(src, dst, port, distance)].
    [distance] is the inter-iteration distance: 0 for an ordinary
    dependency, [d >= 1] when the consumer reads the value produced [d]
    iterations earlier (a loop-carried dependency).  Cycles through
    positive-distance edges are exactly the strongly connected components
    that constrain pipelining (Section V, requirement (a) of the paper). *)

type op = {
  id : int;
  kind : Opkind.t;
  mutable width : int;  (** result width in bits *)
  mutable guard : Guard.t;
  mutable name : string;  (** diagnostic name, e.g. ["mul1_op"] *)
  mutable anchor : int option;
      (** pin to an exact control step (user constraint / timed I/O) *)
  mutable speculated : bool;
      (** guard removed from the commit path by the [Speculate] action *)
}

type edge = { src : int; dst : int; port : int; distance : int }

type t = {
  mutable next_id : int;
  ops : (int, op) Hashtbl.t;
  ins : (int, edge list ref) Hashtbl.t;  (** incoming edges, keyed by dst *)
  outs : (int, edge list ref) Hashtbl.t;  (** outgoing edges, keyed by src *)
}

let create () = { next_id = 0; ops = Hashtbl.create 64; ins = Hashtbl.create 64; outs = Hashtbl.create 64 }

let mem g id = Hashtbl.mem g.ops id

let find g id =
  match Hashtbl.find_opt g.ops id with
  | Some op -> op
  | None -> invalid_arg (Printf.sprintf "Dfg.find: no op %d" id)

let find_opt g id = Hashtbl.find_opt g.ops id
let size g = Hashtbl.length g.ops

let add_op ?(guard = Guard.always) ?(name = "") ?anchor g kind ~width =
  let id = g.next_id in
  g.next_id <- id + 1;
  let name = if name = "" then Printf.sprintf "%s_%d" (Opkind.rclass_to_string (Opkind.rclass kind)) id else name in
  let op = { id; kind; width; guard; name; anchor; speculated = false } in
  Hashtbl.replace g.ops id op;
  Hashtbl.replace g.ins id (ref []);
  Hashtbl.replace g.outs id (ref []);
  op

let edges_ref tbl id =
  match Hashtbl.find_opt tbl id with
  | Some r -> r
  | None ->
      let r = ref [] in
      Hashtbl.replace tbl id r;
      r

let connect ?(distance = 0) g ~src ~dst ~port =
  if not (mem g src) then invalid_arg "Dfg.connect: unknown src";
  if not (mem g dst) then invalid_arg "Dfg.connect: unknown dst";
  if distance < 0 then invalid_arg "Dfg.connect: negative distance";
  let e = { src; dst; port; distance } in
  let inr = edges_ref g.ins dst in
  (* at most one edge per (dst, port) *)
  inr := e :: List.filter (fun e' -> e'.port <> port) !inr;
  let outr = edges_ref g.outs src in
  outr := e :: List.filter (fun e' -> not (e'.dst = dst && e'.port = port)) !outr

(** Incoming edges of [id], sorted by port. *)
let in_edges g id =
  match Hashtbl.find_opt g.ins id with
  | None -> []
  | Some r -> List.sort (fun a b -> compare a.port b.port) !r

let out_edges g id = match Hashtbl.find_opt g.outs id with None -> [] | Some r -> !r

(** Producer feeding input [port] of [id], if connected. *)
let input g id ~port = List.find_opt (fun e -> e.port = port) (in_edges g id)

(** All producers of [id] (ids, one per connected port, sorted by port). *)
let preds g id = List.map (fun e -> e.src) (in_edges g id)

(** All consumers of [id]'s result. *)
let succs g id = List.map (fun e -> e.dst) (out_edges g id)

let iter_ops g f = Hashtbl.iter (fun _ op -> f op) g.ops
let fold_ops g f acc = Hashtbl.fold (fun _ op acc -> f op acc) g.ops acc

(** Ops sorted by id (deterministic iteration order). *)
let ops g = List.sort (fun a b -> compare a.id b.id) (fold_ops g (fun op l -> op :: l) [])

let all_edges g =
  Hashtbl.fold (fun _ r acc -> List.rev_append !r acc) g.ins []
  |> List.sort (fun a b -> compare (a.dst, a.port) (b.dst, b.port))

(** [remove_op g id] deletes the op and all edges touching it.  Callers are
    responsible for having rewired consumers first. *)
let remove_op g id =
  Hashtbl.remove g.ops id;
  Hashtbl.remove g.ins id;
  Hashtbl.remove g.outs id;
  let strip tbl =
    Hashtbl.iter (fun _ r -> r := List.filter (fun e -> e.src <> id && e.dst <> id) !r) tbl
  in
  strip g.ins;
  strip g.outs

(** [replace_uses g ~old_id ~by] rewires every consumer of [old_id] to read
    from [by] instead (same ports and distances), and rewrites guards that
    mention [old_id] as a predicate. *)
let replace_uses g ~old_id ~by =
  let uses = out_edges g old_id in
  List.iter
    (fun e ->
      (* drop the old edge then reconnect *)
      let inr = edges_ref g.ins e.dst in
      inr := List.filter (fun e' -> not (e'.src = old_id && e'.port = e.port)) !inr;
      connect g ~src:by ~dst:e.dst ~port:e.port ~distance:e.distance)
    uses;
  let outr = edges_ref g.outs old_id in
  outr := [];
  iter_ops g (fun op ->
      op.guard <- Guard.map_preds (fun p -> if p = old_id then by else p) op.guard)

(** Topological order over distance-0 edges.  Raises [Invalid_argument] if
    the zero-distance subgraph has a cycle (an ill-formed DFG: combinational
    cycles in the specification). *)
let topo_order g =
  let nodes = List.map (fun op -> op.id) (ops g) in
  let succs0 id =
    List.filter_map (fun e -> if e.distance = 0 then Some e.dst else None) (out_edges g id)
  in
  match Graph_algo.topo_sort ~nodes ~succs:succs0 with
  | Some order -> order
  | None -> invalid_arg "Dfg.topo_order: zero-distance cycle in DFG"

(** Strongly connected components over {e all} edges (including
    loop-carried ones).  Only components with more than one node, or with a
    self-loop, are returned: these are the SCCs that must be scheduled
    within one pipeline stage. *)
let sccs g =
  let nodes = List.map (fun op -> op.id) (ops g) in
  let succs id = List.map (fun e -> e.dst) (out_edges g id) in
  let comps = Graph_algo.scc ~nodes ~succs in
  List.filter
    (fun comp ->
      match comp with
      | [ x ] -> List.exists (fun e -> e.dst = x) (out_edges g x)
      | _ :: _ :: _ -> true
      | [] -> false)
    comps

(** Number of ops in the transitive fanout cone of [id] (distance-0 edges),
    used by the scheduling priority function. *)
let fanout_cone_size g id =
  let seen = Hashtbl.create 16 in
  let rec go id =
    List.iter
      (fun e ->
        if e.distance = 0 && not (Hashtbl.mem seen e.dst) then begin
          Hashtbl.replace seen e.dst ();
          go e.dst
        end)
      (out_edges g id)
  in
  go id;
  Hashtbl.length seen

(** Deep copy (fresh hashtables; ops are re-allocated so mutation of the
    copy never aliases the original). *)
let copy g =
  let g' =
    {
      next_id = g.next_id;
      ops = Hashtbl.create (Hashtbl.length g.ops);
      ins = Hashtbl.create (Hashtbl.length g.ins);
      outs = Hashtbl.create (Hashtbl.length g.outs);
    }
  in
  Hashtbl.iter (fun id op -> Hashtbl.replace g'.ops id { op with id = op.id }) g.ops;
  Hashtbl.iter (fun id r -> Hashtbl.replace g'.ins id (ref !r)) g.ins;
  Hashtbl.iter (fun id r -> Hashtbl.replace g'.outs id (ref !r)) g.outs;
  g'

(** Structural well-formedness: arities respected, edges reference live ops,
    guard predicates are 1-bit ops, loop_mux has its distance-1 edge. *)
let validate g =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  iter_ops g (fun op ->
      let ins = in_edges g op.id in
      let expected = Opkind.arity op.kind in
      if expected >= 0 && List.length ins <> expected then
        err "op %d (%s): arity %d, expected %d" op.id op.name (List.length ins) expected;
      List.iter
        (fun e ->
          if not (mem g e.src) then err "op %d: dangling input from %d" op.id e.src)
        ins;
      List.iter
        (fun a ->
          match find_opt g a.Guard.pred with
          | None -> err "op %d: guard references dead op %d" op.id a.Guard.pred
          | Some p -> if p.width <> 1 then err "op %d: guard pred %d is %d-bit" op.id p.id p.width)
        op.guard;
      (match op.kind with
      | Opkind.Loop_mux -> (
          match input g op.id ~port:1 with
          | Some e when e.distance >= 1 -> ()
          | Some _ -> err "loop_mux %d: carried input has distance 0" op.id
          | None -> err "loop_mux %d: missing carried input" op.id)
      | _ -> ());
      if op.width < 1 then err "op %d: width %d" op.id op.width);
  List.rev !errs

let pp_op fmt (op : op) =
  Format.fprintf fmt "%%%d = %s :%d%s%s" op.id (Opkind.to_string op.kind) op.width
    (if Guard.is_always op.guard then "" else Printf.sprintf " if %s" (Guard.to_string op.guard))
    (if op.name = "" then "" else " (* " ^ op.name ^ " *)")

let pp fmt g =
  List.iter
    (fun op ->
      let ins =
        String.concat ", "
          (List.map
             (fun e ->
               if e.distance = 0 then Printf.sprintf "%%%d" e.src
               else Printf.sprintf "%%%d@-%d" e.src e.distance)
             (in_edges g op.id))
      in
      Format.fprintf fmt "%a <- [%s]@." pp_op op ins)
    (ops g)
