(** Graph algorithms over integer-id graphs given as adjacency functions.

    All functions take the vertex set and a successor function; DFS-based
    ones are iterative, safe for the multi-thousand-node DFGs of the
    Fig. 9 experiment. *)

val topo_sort : nodes:int list -> succs:(int -> int list) -> int list option
(** Kahn's algorithm, dependencies first, ascending-id tie-break;
    [None] on cyclic input or a repeated node.  Successors outside
    [nodes] are ignored.  Allocates a table over the id range of [nodes],
    so ids should be dense (op ids are). *)

val scc : nodes:int list -> succs:(int -> int list) -> int list list
(** Tarjan's strongly connected components, in reverse topological order
    of the condensation, each listing its nodes in discovery order.
    Successors outside [nodes] are searched too.  Per-node state lives in
    arrays over the id range met, so ids should be dense. *)

val longest_path :
  nodes:int list -> succs:(int -> int list) -> weight:(int -> float) -> (int * float) list
(** Each node in topological order with the heaviest-path weight ending at
    it (inclusive of the node's own weight).  Successors outside [nodes]
    are ignored.  @raise Invalid_argument on cyclic input. *)

val has_path : from:int -> target:int -> succs:(int -> int list) -> bool
(** DFS reachability with early exit; [true] when [from = target]. *)
