(** Subgraph-extraction feedback-guided iterative scheduling.

    The expert system relaxes constraints one batch per {e failed pass}
    from local restraint estimates.  This module closes the loop at the
    next level up, after "Subgraph Extraction-based Feedback-guided
    Iterative Scheduling for HLS" (arXiv 2401.12343): a completed (or
    failed) schedule is {e mined} for the critical subgraphs that drove
    its relaxation — negative-slack fan-in cones, contended-resource
    cliques from the busy tables, SCC stage-window violators, and the
    expert's own converged corrective state — and the findings become a
    store of typed {!Hints} that the next schedule call applies as one
    batch at pass start, instead of rediscovering them one action at a
    time.

    The module sits below the flow: it depends only on the scheduler and
    netlist layers, so both [Flow.run --feedback] (iterate on one design)
    and [Dse.sweep] (share hints across neighboring grid points) drive it
    through the generic {!iterate} combinator. *)

open Hls_techlib
module Scheduler = Hls_core.Scheduler

module Hints : sig
  (** A deterministic store of typed scheduling hints.

      The store is a map keyed by the hint itself (structural ordering),
      so its rendering, digest and application order are independent of
      extraction order; merging two stores sums recurrence counts and
      keeps the larger weight, which is how a hint that keeps showing up
      across iterations or grid points gains influence. *)

  (** One typed hint.  Op and instance ids refer to the elaborated DFG /
      netlist of the design the hint was mined from; {!apply} and the
      scheduler both skip hints whose referents do not exist in the
      target region — a hint is advice, never a hard constraint. *)
  type hint =
    | Boost of int  (** raise the op's scheduling priority *)
    | Speculate of int  (** pre-speculate the op *)
    | Dedicate of int  (** pre-dedicate the op's resource instance *)
    | Forbid of int * int  (** pre-forbid the (op, inst) pair *)
    | Scc_stage of int * int  (** pre-pin SCC [k] to this stage *)
    | Resource_floor of Resource.t * int  (** minimum instance count *)
    | Latency_floor of int  (** known-accepted latency interval *)

  (** Provenance of a hint: which extraction rule minted it. *)
  type kind =
    | Replay  (** the converged expert state of an accepted schedule *)
    | Slack_cone  (** member of a negative-slack fan-in cone *)
    | Busy_clique  (** member of a contended busy-table clique *)
    | Scc_window  (** SCC stage-window violator / pinned stage *)

  type entry = { e_kind : kind; e_weight : float; e_recur : int }

  type t

  val empty : t
  val is_empty : t -> bool
  val size : t -> int

  val add : ?kind:kind -> ?weight:float -> hint -> t -> t
  (** Insert a hint (default kind [Replay], weight 1.0); re-inserting an
      existing hint bumps its recurrence and keeps the larger weight. *)

  val merge : t -> t -> t
  (** Union; shared hints sum recurrences and keep the larger weight. *)

  val to_list : t -> (hint * entry) list
  (** All hints in the store's (deterministic, structural) key order. *)

  val ops : t -> int list
  (** Sorted distinct op ids referenced by any hint — the extracted
      subgraph's vertex set (subset-of-region invariant checks). *)

  val portable : t -> t
  (** The hints safe to carry to a {e different} micro-architecture point
      of the same design: boosts, speculations and dedications (op ids
      are elaboration-stable).  Instance pairs, SCC stages, resource
      floors and latency floors are configuration-specific and dropped. *)

  val digest : t -> string
  (** Digest of the key set only — recurrence/weight churn from
      re-extracting the same subgraphs does not change it, so iterate
      loops can detect a fixpoint. *)

  val hint_to_string : hint -> string

  val to_string : t -> string
  (** Serialize the whole store (round-trips through {!of_string}). *)

  val of_string : string -> t option

  val apply : t -> Scheduler.options -> Scheduler.options
  (** Translate the store into the scheduler's batched hint options:
      boosts become [priority_boosts] (weight- and recurrence-scaled),
      floors take the per-resource maximum (and the per-design minimum
      for latency — a floor above the known-accepted LI would pad the
      schedule).  Applying an empty store returns the options unchanged. *)
end

val extract : Scheduler.t -> Hints.t
(** Mine an accepted schedule: the expert's converged corrective state
    (speculations, forbidden pairs, expert-added resource counts, SCC
    stages, the accepted latency interval) plus the critical subgraphs
    still visible in the result — fan-in cones of negative-slack
    endpoints and contended busy-table cliques, weighted by severity. *)

type iter_info = {
  fi_iter : int;  (** iteration index, 0-based *)
  fi_hints_in : int;  (** hints fed into this iteration *)
  fi_new_hints : int;  (** distinct new hints extracted from its result *)
  fi_passes : int;  (** relaxation passes the iteration's schedule ran *)
  fi_quality : int * int * float;  (** (II, LI, area) of the iteration *)
  fi_kept : bool;  (** became the served best-so-far *)
}

val iterate :
  ?max_iters:int ->
  ?hints:Hints.t ->
  run:(Hints.t -> ('a, 'e) Stdlib.result) ->
  extract:('a -> Hints.t) ->
  quality:('a -> int * int * float) ->
  passes:('a -> int) ->
  unit ->
  ('a, 'e) Stdlib.result * iter_info list * Hints.t
(** The schedule → extract → re-schedule loop (at most [max_iters]
    schedule calls, default 2).  Quality is lexicographic (II, LI, area),
    lower better.  No-regress by construction: the best result seen is
    served, with ties going to the {e later} iteration (same QoR reached
    in fewer passes under the batched hints).  The loop stops early on a
    hint-digest fixpoint, on a strict quality regression, or on an error
    (which serves the best earlier result if one exists).  Returns the
    served result, per-iteration stats, and the final merged store. *)
