(** Scheduling priority (Section IV.B): mobility from the timing-aware
    ASAP/ALAP intervals (Force-Directed-style), operation complexity
    (complex first), and fanout-cone size. *)

open Hls_ir

val popcount : int -> int
(** Set bits of an int's 63-bit word, the sign bit included. *)

val fanout_table : Dfg.t -> int -> int
(** Precomputed fanout-cone sizes, equal to {!Dfg.fanout_cone_size} op by
    op (one reverse-topological bitset sweep over the distance-0 edges).
    @raise Invalid_argument on a zero-distance cycle. *)

val score : fanout:(int -> int) -> Asap_alap.t -> Dfg.op -> float
(** Higher = scheduled earlier: [100 / (1 + mobility) + 10 * complexity +
    0.5 * fanout-cone size].  Ties break on ascending op id where the
    scores are used. *)
