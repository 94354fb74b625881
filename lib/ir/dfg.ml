(** The data-flow graph.

    Nodes are operations ({!Opkind.t} plus result width, guard and
    bookkeeping); edges are data dependencies [(src, dst, port, distance)].
    [distance] is the inter-iteration distance: 0 for an ordinary
    dependency, [d >= 1] when the consumer reads the value produced [d]
    iterations earlier (a loop-carried dependency).  Cycles through
    positive-distance edges are exactly the strongly connected components
    that constrain pipelining (Section V, requirement (a) of the paper).
    Read-only after elaboration: a schedule's decisions live in its binder. *)

type op = {
  id : int;
  kind : Opkind.t;
  mutable width : int;  (** result width in bits *)
  mutable guard : Guard.t;
  mutable name : string;  (** diagnostic name, e.g. ["mul1_op"] *)
  mutable anchor : int option;
      (** pin to an exact control step (user constraint / timed I/O) *)
}

type edge = { src : int; dst : int; port : int; distance : int }

(* Ops and edge lists live in arrays indexed by op id (ids are dense:
   [add_op] hands them out in sequence), so [find], [in_edges] and
   [out_edges] are array reads.  A removed op leaves a [None] hole. *)
type t = {
  mutable next_id : int;
  mutable n_ops : int;  (** live ops *)
  mutable ops : op option array;
  mutable ins : edge list array;  (** incoming edges by dst, sorted by port *)
  mutable outs : edge list array;  (** outgoing edges by src, newest first *)
}

let create () =
  { next_id = 0; n_ops = 0; ops = Array.make 64 None; ins = Array.make 64 []; outs = Array.make 64 [] }

let find_opt g id = if id >= 0 && id < g.next_id then g.ops.(id) else None
let mem g id = Option.is_some (find_opt g id)

let find g id =
  match find_opt g id with
  | Some op -> op
  | None -> invalid_arg (Printf.sprintf "Dfg.find: no op %d" id)

let size g = g.n_ops

let add_op ?(guard = Guard.always) ?(name = "") ?anchor g kind ~width =
  let id = g.next_id in
  if id = Array.length g.ops then begin
    let grow a d =
      let b = Array.make (2 * id) d in
      Array.blit a 0 b 0 id;
      b
    in
    g.ops <- grow g.ops None;
    g.ins <- grow g.ins [];
    g.outs <- grow g.outs []
  end;
  g.next_id <- id + 1;
  g.n_ops <- g.n_ops + 1;
  let name = if name = "" then Printf.sprintf "%s_%d" (Opkind.rclass_to_string (Opkind.rclass kind)) id else name in
  let op = { id; kind; width; guard; name; anchor } in
  g.ops.(id) <- Some op;
  op

(** Incoming edges of [id], sorted by port ([connect] keeps them so). *)
let in_edges g id = if id >= 0 && id < g.next_id then g.ins.(id) else []

let out_edges g id = if id >= 0 && id < g.next_id then g.outs.(id) else []

(* drop the edge feeding (dst, port) from its producer's out list *)
let unlink_out g (old : edge) =
  g.outs.(old.src) <-
    List.filter (fun e -> not (e.dst = old.dst && e.port = old.port)) g.outs.(old.src)

let connect ?(distance = 0) g ~src ~dst ~port =
  if not (mem g src) then invalid_arg "Dfg.connect: unknown src";
  if not (mem g dst) then invalid_arg "Dfg.connect: unknown dst";
  if distance < 0 then invalid_arg "Dfg.connect: negative distance";
  let e = { src; dst; port; distance } in
  (* at most one edge per (dst, port): an existing one is replaced, at
     both of its ends *)
  let rec insert = function
    | e' :: rest when e'.port < port -> e' :: insert rest
    | e' :: rest when e'.port = port ->
        unlink_out g e';
        e :: rest
    | l -> e :: l
  in
  g.ins.(dst) <- insert g.ins.(dst);
  g.outs.(src) <- e :: g.outs.(src)

(** Producer feeding input [port] of [id], if connected. *)
let input g id ~port = List.find_opt (fun e -> e.port = port) (in_edges g id)

(** All producers of [id] (ids, one per connected port, sorted by port). *)
let preds g id = List.map (fun e -> e.src) (in_edges g id)

(** All consumers of [id]'s result. *)
let succs g id = List.map (fun e -> e.dst) (out_edges g id)

let iter_ops g f =
  for id = 0 to g.next_id - 1 do
    match g.ops.(id) with Some op -> f op | None -> ()
  done

let fold_ops g f acc =
  let acc = ref acc in
  iter_ops g (fun op -> acc := f op !acc);
  !acc

(** Ops sorted by id (deterministic iteration order). *)
let ops g = List.rev (fold_ops g (fun op l -> op :: l) [])

(** Every edge, sorted by (dst, port). *)
let all_edges g =
  let acc = ref [] in
  for id = g.next_id - 1 downto 0 do
    acc := g.ins.(id) @ !acc
  done;
  !acc

(** [remove_op g id] deletes the op and all edges touching it.  Callers are
    responsible for having rewired consumers first. *)
let remove_op g id =
  if mem g id then begin
    List.iter (unlink_out g) g.ins.(id);
    List.iter
      (fun e -> g.ins.(e.dst) <- List.filter (fun e' -> e'.src <> id) g.ins.(e.dst))
      g.outs.(id);
    g.ops.(id) <- None;
    g.ins.(id) <- [];
    g.outs.(id) <- [];
    g.n_ops <- g.n_ops - 1
  end

(** [replace_uses g ~old_id ~by] rewires every consumer of [old_id] to read
    from [by] instead (same ports and distances), and rewrites guards that
    mention [old_id] as a predicate. *)
let replace_uses g ~old_id ~by =
  List.iter
    (fun e -> connect g ~src:by ~dst:e.dst ~port:e.port ~distance:e.distance)
    (out_edges g old_id);
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

(** Number of ops in the transitive fanout cone of [id] (distance-0 edges):
    the oracle for the priority function's one-sweep table. *)
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

(** Deep copy: ops are re-allocated so mutation of the copy never aliases
    the original; edges are immutable and shared. *)
let copy g =
  {
    next_id = g.next_id;
    n_ops = g.n_ops;
    ops = Array.map (Option.map (fun op -> { op with id = op.id })) g.ops;
    ins = Array.copy g.ins;
    outs = Array.copy g.outs;
  }

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
