(** The data-flow graph.

    Nodes are operations; edges are data dependencies
    [(src, dst, port, distance)] where [distance] is the inter-iteration
    distance: 0 for an ordinary dependency, [d >= 1] when the consumer
    reads the value produced [d] iterations earlier.  Cycles through
    positive-distance edges are exactly the strongly connected components
    that constrain pipelining (Section V of the paper).

    {b Representation.}  Ops and their edge lists live in arrays indexed by
    op id ([add_op] hands ids out densely, from 0), so {!find}, {!mem},
    {!in_edges} and {!out_edges} are O(1) array reads with no hashing.
    In-edges are kept sorted by port at {!connect} time, so {!in_edges}
    neither sorts nor allocates; out-edges are newest first.  {!iter_ops},
    {!fold_ops} and {!ops} visit ops in ascending id order.

    The frontend builds a graph by adding ops and edges; nothing removes or
    rewrites either, so the ids of a graph are exactly [0 .. size - 1].
    Op records are immutable; after elaboration the graph is read-only,
    and a schedule keeps its decisions in its own binder. *)

type op = {
  id : int;
  kind : Opkind.t;
  width : int;  (** result width in bits *)
  guard : Guard.t;
  name : string;  (** diagnostic name, e.g. ["mul1_op"] *)
  anchor : int option;  (** pin to an exact control step *)
}

type edge = { src : int; dst : int; port : int; distance : int }

type t

val create : unit -> t
val mem : t -> int -> bool

val find : t -> int -> op
(** O(1).  @raise Invalid_argument on unknown ids. *)

val find_opt : t -> int -> op option

val size : t -> int
(** Number of ops; also one above the largest id. *)

val add_op : ?guard:Guard.t -> ?name:string -> ?anchor:int -> t -> Opkind.t -> width:int -> op

val connect : ?distance:int -> t -> src:int -> dst:int -> port:int -> unit
(** Connect [src]'s result to input [port] of [dst].  Keeps [dst]'s
    in-edges sorted by port.
    @raise Invalid_argument on an unknown [src] or [dst], a negative
    [distance], or a (dst, port) that already has its edge. *)

val in_edges : t -> int -> edge list
(** Incoming edges, sorted by port; O(1), no allocation. *)

val out_edges : t -> int -> edge list
(** Outgoing edges, newest first; O(1). *)

val input : t -> int -> port:int -> edge option
(** The edge feeding one input port, if connected. *)

val iter_ops : t -> (op -> unit) -> unit
(** Ascending id order. *)

val fold_ops : t -> (op -> 'a -> 'a) -> 'a -> 'a
(** Ascending id order. *)

val ops : t -> op list
(** All ops sorted by id (deterministic iteration). *)

val all_edges : t -> edge list
(** Every edge, sorted by (dst, port). *)

val topo_order : t -> int list
(** Topological order over distance-0 edges.
    @raise Invalid_argument on a zero-distance cycle. *)

val fanout_cone_size : t -> int -> int
(** Size of the transitive distance-0 fanout cone, by one DFS.  The
    scheduler's priority function reads the whole table at once from
    [Priority.fanout_table]; this is its test oracle. *)

val validate : t -> string list
(** Structural well-formedness report (empty = clean). *)
