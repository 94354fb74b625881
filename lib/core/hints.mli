(** A deterministic store of typed scheduling hints — the scheduler's
    batched input ([Scheduler.options.hints]).

    The store is a map keyed by the hint itself (structural ordering),
    so its digest and application order are independent of extraction
    order; merging two stores sums recurrence counts and keeps the
    larger weight, which is how a hint that keeps showing up across
    iterations or grid points gains influence. *)

open Hls_techlib

(** One typed hint.  Op and instance ids refer to the elaborated DFG /
    netlist of the design the hint was mined from; the scheduler skips
    hints whose referents do not exist in the target region — a hint is
    advice, never a hard constraint. *)
type hint =
  | Boost of int  (** raise the op's scheduling priority *)
  | Dedicate of int  (** pre-dedicate the op's resource instance *)
  | Forbid of int * int  (** pre-forbid the (op, inst) pair *)
  | Scc_stage of int * int  (** pre-pin SCC [k] to this stage *)
  | Resource_floor of Resource.t * int  (** minimum instance count *)
  | Latency_floor of int  (** known-accepted latency interval *)

type entry = { e_weight : float; e_recur : int }

type t

val empty : t
val is_empty : t -> bool
val size : t -> int

val add : ?weight:float -> hint -> t -> t
(** Insert a hint (default weight 1.0); re-inserting an existing hint
    bumps its recurrence and keeps the larger weight. *)

val merge : t -> t -> t
(** Union; shared hints sum recurrences and keep the larger weight. *)

val to_list : t -> (hint * entry) list
(** All hints in the store's (deterministic, structural) key order. *)

val ops : t -> int list
(** Sorted distinct op ids referenced by any hint — the extracted
    subgraph's vertex set (subset-of-region invariant checks). *)

val portable : t -> t
(** The hints safe to carry to a {e different} micro-architecture point
    of the same design: boosts and dedications (op ids are
    elaboration-stable).  Instance pairs, SCC stages, resource
    floors and latency floors are configuration-specific and dropped. *)

val digest : t -> string
(** Digest of the key set only — recurrence/weight churn from
    re-extracting the same subgraphs does not change it, so iterate
    loops can detect a fixpoint. *)

val boost_delta : entry -> float
(** The priority-score delta of a [Boost] entry: scaled by weight and
    recurrence, capped well below the mobility term so a hint reorders
    ties rather than overriding the paper's priority function. *)
