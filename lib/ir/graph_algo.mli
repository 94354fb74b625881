(** Graph algorithms over integer-id graphs given as adjacency functions.

    All functions take the vertex set and a successor function; DFS-based
    ones are iterative, safe for the multi-thousand-node DFGs of the
    Fig. 9 experiment. *)

val topo_sort : nodes:int list -> succs:(int -> int list) -> int list option
(** Kahn's algorithm, dependencies first, ascending-id tie-break;
    [None] on cyclic input. *)

val scc : nodes:int list -> succs:(int -> int list) -> int list list
(** Tarjan's strongly connected components, in reverse topological order
    of the condensation. *)

val longest_path :
  nodes:int list -> succs:(int -> int list) -> weight:(int -> float) -> (int, float) Hashtbl.t
(** Heaviest-path weight ending at each node (inclusive of the node's own
    weight).  @raise Invalid_argument on cyclic input. *)

val has_path : from:int -> target:int -> succs:(int -> int list) -> bool
(** DFS reachability with early exit; [true] when [from = target]. *)
