(** DFG optimizer (the "optimizer" box of the paper's Fig. 2): constant
    folding, algebraic simplification and strength reduction, CSE, DCE and
    width-conversion wire collapsing, iterated to a fixpoint.  Passes
    operate on an {!Hls_frontend.Elaborate.t} and keep its
    region-membership lists consistent.

    (Predicate conversion itself lives in the frontend — join-mux
    insertion needs elaboration-time variable maps.) *)

type stats = {
  mutable folded : int;
  mutable simplified : int;
  mutable merged : int;
  mutable deleted : int;
  mutable collapsed : int;
  mutable narrowed : int;  (** ops shrunk by operand width reduction *)
}

val total : stats -> int

val run : ?max_rounds:int -> Hls_frontend.Elaborate.t -> Hls_frontend.Elaborate.t * stats
