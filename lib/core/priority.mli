(** Scheduling priority (Section IV.B): mobility from the timing-aware
    ASAP/ALAP intervals (Force-Directed-style), operation complexity
    (complex first), and fanout-cone size. *)

open Hls_ir

type weights = { w_mobility : float; w_complexity : float; w_fanout : float }

val default_weights : weights

val fanout_table : Dfg.t -> int -> int
(** Precomputed fanout-cone sizes, equal to {!Dfg.fanout_cone_size} op by
    op (one reverse-topological bitset sweep over the distance-0 edges).
    @raise Invalid_argument on a zero-distance cycle. *)

val score : ?weights:weights -> fanout:(int -> int) -> Asap_alap.t -> Dfg.op -> float
(** Higher = scheduled earlier. *)

val rank : ?weights:weights -> fanout:(int -> int) -> Asap_alap.t -> Dfg.op list -> Dfg.op list
(** Sort, highest priority first, ascending-id tie-break. *)
