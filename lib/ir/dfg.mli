(** The data-flow graph.

    Nodes are operations; edges are data dependencies
    [(src, dst, port, distance)] where [distance] is the inter-iteration
    distance: 0 for an ordinary dependency, [d >= 1] when the consumer
    reads the value produced [d] iterations earlier.  Cycles through
    positive-distance edges are exactly the strongly connected components
    that constrain pipelining (Section V of the paper). *)

type op = {
  id : int;
  kind : Opkind.t;
  mutable width : int;  (** result width in bits *)
  mutable guard : Guard.t;
  mutable name : string;  (** diagnostic name, e.g. ["mul1_op"] *)
  mutable anchor : int option;  (** pin to an exact control step *)
  mutable speculated : bool;  (** guard removed from the commit path *)
}

type edge = { src : int; dst : int; port : int; distance : int }

type t

val create : unit -> t
val mem : t -> int -> bool

val find : t -> int -> op
(** @raise Invalid_argument on unknown ids. *)

val find_opt : t -> int -> op option
val size : t -> int

val add_op : ?guard:Guard.t -> ?name:string -> ?anchor:int -> t -> Opkind.t -> width:int -> op

val connect : ?distance:int -> t -> src:int -> dst:int -> port:int -> unit
(** Connect [src]'s result to input [port] of [dst]; at most one edge per
    (dst, port) — reconnecting replaces. *)

val in_edges : t -> int -> edge list
(** Incoming edges, sorted by port. *)

val out_edges : t -> int -> edge list

val input : t -> int -> port:int -> edge option
(** The edge feeding one input port, if connected. *)

val preds : t -> int -> int list
val succs : t -> int -> int list

val iter_ops : t -> (op -> unit) -> unit
val fold_ops : t -> (op -> 'a -> 'a) -> 'a -> 'a

val ops : t -> op list
(** All ops sorted by id (deterministic iteration). *)

val all_edges : t -> edge list

val remove_op : t -> int -> unit
(** Delete the op and every edge touching it (rewire consumers first). *)

val replace_uses : t -> old_id:int -> by:int -> unit
(** Rewire every consumer of [old_id] to read [by] (same ports and
    distances) and rewrite guards mentioning [old_id]. *)

val topo_order : t -> int list
(** Topological order over distance-0 edges.
    @raise Invalid_argument on a zero-distance cycle. *)

val sccs : t -> int list list
(** Strongly connected components over all edges (loop-carried included);
    only multi-node components and self-loops are returned — the SCCs that
    must fit one pipeline stage. *)

val fanout_cone_size : t -> int -> int
(** Size of the transitive distance-0 fanout cone (priority input). *)

val copy : t -> t
(** Deep copy; mutating the copy never aliases the original. *)

val validate : t -> string list
(** Structural well-formedness report (empty = clean). *)

val pp_op : Format.formatter -> op -> unit
val pp : Format.formatter -> t -> unit
