(** Execution guards (predicates) attached to DFG operations.

    Predicate conversion (Fig. 4 of the paper) replaces fork/join control
    with straight-line code in which every operation from a conditional
    branch carries a guard: a conjunction of (condition-op, polarity)
    atoms.  Mutually exclusive guards license resource sharing within one
    control step; a guard also gates its operation's commit-register
    enable, so its arrival participates in endpoint timing. *)

type atom = { pred : int  (** DFG op id computing the condition *); polarity : bool }

type t = atom list
(** Conjunction of atoms, sorted by [pred], no duplicates.  [[]] is the
    always-true guard.  Treat as abstract; build with {!add}/{!conj}. *)

val always : t
val is_always : t -> bool

val atom : int -> bool -> atom

val conj : t -> t -> t option
(** Conjunction; [None] when contradictory (the op can never execute). *)

val add : t -> pred:int -> polarity:bool -> t option
(** Conjoin a single atom. *)

val mutually_exclusive : t -> t -> bool
(** Same predicate with opposite polarities on both sides: the guarded ops
    can never execute together, so they may share a resource in a step. *)

val implies : t -> t -> bool
(** [implies g1 g2]: every execution satisfying [g1] satisfies [g2]. *)

val preds : t -> int list
(** Predicate op ids mentioned. *)

val equal : t -> t -> bool

val to_string : t -> string
