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
  width : int;  (** result width in bits *)
  guard : Guard.t;
  name : string;  (** diagnostic name, e.g. ["mul1_op"] *)
  anchor : int option;  (** pin to an exact control step (user constraint / timed I/O) *)
}

type edge = { src : int; dst : int; port : int; distance : int }

(* Ops and edge lists live in arrays indexed by op id.  Ids are dense
   ([add_op] hands them out in sequence and nothing removes an op), so
   slots [0, next_id) all hold ops and [find], [in_edges] and [out_edges]
   are array reads. *)
type t = {
  mutable next_id : int;
  mutable ops : op array;  (** slots at or above [next_id] hold [vacant] *)
  mutable ins : edge list array;  (** incoming edges by dst, sorted by port *)
  mutable outs : edge list array;  (** outgoing edges by src, newest first *)
}

let vacant = { id = -1; kind = Opkind.Const 0; width = 1; guard = Guard.always; name = ""; anchor = None }

let create () =
  { next_id = 0; ops = Array.make 64 vacant; ins = Array.make 64 []; outs = Array.make 64 [] }

let mem g id = id >= 0 && id < g.next_id

let find g id = if mem g id then g.ops.(id) else invalid_arg (Printf.sprintf "Dfg.find: no op %d" id)
let find_opt g id = if mem g id then Some g.ops.(id) else None
let size g = g.next_id

let add_op ?(guard = Guard.always) ?(name = "") ?anchor g kind ~width =
  let id = g.next_id in
  if id = Array.length g.ops then begin
    let grow a d =
      let b = Array.make (2 * id) d in
      Array.blit a 0 b 0 id;
      b
    in
    g.ops <- grow g.ops vacant;
    g.ins <- grow g.ins [];
    g.outs <- grow g.outs []
  end;
  g.next_id <- id + 1;
  let name = if name = "" then Printf.sprintf "%s_%d" (Opkind.rclass_to_string (Opkind.rclass kind)) id else name in
  let op = { id; kind; width; guard; name; anchor } in
  g.ops.(id) <- op;
  op

(** Incoming edges of [id], sorted by port ([connect] keeps them so). *)
let in_edges g id = if mem g id then g.ins.(id) else []

let out_edges g id = if mem g id then g.outs.(id) else []

let connect ?(distance = 0) g ~src ~dst ~port =
  if not (mem g src) then invalid_arg "Dfg.connect: unknown src";
  if not (mem g dst) then invalid_arg "Dfg.connect: unknown dst";
  if distance < 0 then invalid_arg "Dfg.connect: negative distance";
  let e = { src; dst; port; distance } in
  (* at most one edge per (dst, port) *)
  let rec insert = function
    | e' :: rest when e'.port < port -> e' :: insert rest
    | e' :: _ when e'.port = port ->
        invalid_arg (Printf.sprintf "Dfg.connect: port %d of op %d already connected" port dst)
    | l -> e :: l
  in
  g.ins.(dst) <- insert g.ins.(dst);
  g.outs.(src) <- e :: g.outs.(src)

(** Producer feeding input [port] of [id], if connected. *)
let input g id ~port = List.find_opt (fun e -> e.port = port) (in_edges g id)

let iter_ops g f =
  for id = 0 to g.next_id - 1 do
    f g.ops.(id)
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

(** Structural well-formedness: arities respected, guard predicates are
    1-bit ops, loop_mux has its distance-1 edge.  ([connect] already
    refuses edges from or to unknown ops.) *)
let validate g =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  iter_ops g (fun op ->
      let ins = in_edges g op.id in
      let expected = Opkind.arity op.kind in
      if expected >= 0 && List.length ins <> expected then
        err "op %d (%s): arity %d, expected %d" op.id op.name (List.length ins) expected;
      List.iter
        (fun a ->
          match find_opt g a.Guard.pred with
          | None -> err "op %d: guard references unknown op %d" op.id a.Guard.pred
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
