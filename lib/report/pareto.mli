(** Pareto-front extraction for the design-space exploration reports
    (Section VI: "the best Pareto point can be achieved only by
    pipelining").  Both dimensions are minimized. *)

type 'a point = { p_x : float; p_y : float; p_tag : 'a }

val point : x:float -> y:float -> 'a -> 'a point

val dominates : 'a point -> 'a point -> bool
(** No worse in both, strictly better in one. *)

val front : 'a point list -> 'a point list
(** The minimizing front, sorted by x then y and structurally
    deduplicated: the output is invariant under duplication and
    reordering of the input.  O(n log n). *)
