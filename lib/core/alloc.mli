(** Initial resource-set estimation (Section IV.A): a lower bound per
    compatibility class from timing-aware life spans, counting mutually
    exclusive (predicated) operations once, bounding interval capacity by
    II for pipelined regions (Example 2's two multipliers), and bounding
    sharing by the point at which the input mux alone would break timing
    (the "timing aware" refinement over plain counting). *)

open Hls_ir
open Hls_techlib

type cls = { mutable c_rtype : Resource.t; mutable c_ops : Dfg.op list }

val classes : Region.t -> cls list
(** Greedy partition of the region's resource ops into width-compatible
    classes. *)

val exclusive_slot_count : Dfg.op list -> int
(** Concurrent slots needed if all ops ran together (mutually exclusive
    guards share a slot). *)

val max_share : Library.t -> clock_ps:float -> Resource.t -> int
(** How many ops can share one instance before
    [clk_q + mux(k) + delay + reg_mux + setup] exceeds the clock. *)

val class_lower_bound : ?lib:Library.t -> ?clock_ps:float -> Region.t -> Asap_alap.t -> cls -> int

val run : ?lib:Library.t -> ?clock_ps:float -> Region.t -> Asap_alap.t -> (Resource.t * int * int) list
(** The initial resource set: (merged type, instance count, class
    population) per class. *)

val initial :
  ?plan:Asap_alap.plan -> lib:Library.t -> clock_ps:float -> Region.t -> (Resource.t * int * int) list
(** {!run} at the latency upper bound; leaves {!Region.initial_steps}. *)

val latency_floor : (Resource.t * int * int) list -> int
(** The latency lower bound the resource counts imply
    (max ceil(ops / instances)). *)
