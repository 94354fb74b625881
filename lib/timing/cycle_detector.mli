(** Incremental structural combinational-cycle detection (Fig. 6 of the
    paper): sharing muxes can create {e structural} loops that are never
    sensitized; rather than emit false-path constraints downstream, the
    binder avoids the bindings that would close them.  Nodes are resource
    instances (ids dense from 0); an edge [a -> b] records a same-step
    combinational chain from an op on [a] to an op on [b].

    Edges are insert-only between {!clear}s, and the detector keeps a
    topological order of the instances current as they arrive (Pearce &
    Kelly's dynamic topological sort).  A query whose edge agrees with the
    order answers at once; any other searches only the window of the order
    between its endpoints.  Answers are reachability in the recorded
    graph, the same as a plain DFS's. *)

type t

val create : unit -> t
val succs : t -> int -> int list

val would_close_cycle : t -> src:int -> dst:int -> bool
(** True in particular for self-edges. *)

val mark_reaching : t -> int list -> unit
(** Start one backward search from the given targets.  Adding [src -> dst]
    for each target [src] would close a cycle exactly when {!reaches}
    [dst]: {!would_close_cycle} for many [dst] at the price of one
    search. *)

val reaches : t -> int -> bool
(** Does the node have a path to a target of the last {!mark_reaching}
    (a target reaches itself)?  The search goes down the order lazily,
    only as far as the lowest node asked about, each node visited at most
    once per {!mark_reaching}.  Valid until the next {!add_edge} or
    {!clear}. *)

val add_edge : t -> src:int -> dst:int -> unit
(** Idempotent.  @raise Invalid_argument when the edge would close a
    cycle — callers must test first. *)

val clear : t -> unit
(** Drop every edge (the count too).  The order and {!visits} stay. *)

val n_edges : t -> int

val visits : t -> int
(** Nodes visited by every search so far — the queries' and the
    reorders' — a deterministic measure of the detector's work. *)
