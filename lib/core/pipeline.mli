(** Pipeline folding (Section V, Step II): equivalent control steps
    (congruent modulo II) fold onto single kernel states, each executing
    the union of their operations predicated by stage activity; the
    prologue fills stages one initiation interval apart, the epilogue
    drains, stalls freeze.  Folding is pure bookkeeping over a successful
    schedule — the scheduler already guaranteed the invariants
    {!validate} re-checks. *)

type t = {
  f_ii : int;
  f_li : int;
  f_stages : int;
  f_kernel : (int, int * int) Hashtbl.t;
      (** op -> (kernel state = step mod II, stage = step / II) *)
}

val fold : Scheduler.t -> t
(** Identity fold (one stage) for sequential regions. *)

val kernel_state : t -> int -> (int * int) option

val ops_at : t -> state:int -> stage:int -> int list

val validate : Scheduler.t -> t -> string list
(** No same-instance collisions within a kernel state (up to guard
    exclusivity), every SCC within one stage, every loop-carried edge
    within the modulo constraint
    [step(dst) >= finish(src) - distance*II + 1].  Empty = clean. *)

val to_table : Scheduler.t -> t -> string list list
(** The paper's Fig. 5 rendering: kernel states × stages. *)
