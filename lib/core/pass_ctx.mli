(** Pass-invariant scheduling context, computed once per region and reused
    across every relaxation pass.

    A relaxation pass re-runs the whole SCHEDULE_PASS after each expert
    action (Fig. 7), but most of what the pass consults never changes
    between passes: the member list, the scheduling-predecessor and
    dependent graphs, fanout-cone sizes, and resource class keys are pure
    functions of the region's DFG.  Priority scores depend additionally on
    the ASAP/ALAP intervals, which only move when the latency interval or
    an SCC window moves (add-state / move-SCC actions) — so they are cached
    too and refreshed only when the interval analysis itself is refreshed
    ({!refresh_scores} keys on the physical identity of the [aa] value). *)

open Hls_ir

type t = {
  ctx_members : Dfg.op list;
  ctx_n_members : int;
  ctx_preds : int list array;
      (** op id -> distance-0 scheduling predecessors (data + guard) *)
  ctx_deps : int list array;  (** reverse of [ctx_preds], ascending: the plan's consumers *)
  ctx_fanout : int -> int;  (** fanout-cone size, precomputed per op *)
  ctx_class_key : int array;
      (** op id -> its bucketed resource-class key (class and operand
          widths rounded up to 8/16/32/64 bits) for the busy-class memo,
          interned to [0 .. ctx_n_class_keys - 1]; -1 for wire ops *)
  ctx_n_class_keys : int;
  ctx_blocked_order : int array;
      (** the members in the order a pass emits its end-of-pass blocked
          restraints: the iteration order of a [Hashtbl] filled with the
          member ids in member order, kept because the expert breaks ties
          by restraint-list order *)
  ctx_scores : float array;  (** priority scores under the last aa, by op id *)
  mutable ctx_scores_aa : Asap_alap.t option;
      (** the aa value [ctx_scores] was computed from (physical identity) *)
}

val create : plan:Asap_alap.plan -> Region.t -> t
(** Build every aa-independent table; the members and predecessor lists
    are the [plan]'s own (shared, not copied), the dependents and class
    keys come from its consumer lists and resource types.  Scores are left empty
    until the first {!refresh_scores}. *)

val refresh_scores : ?boosts:(int * float) list -> t -> aa:Asap_alap.t -> unit
(** Recompute priority scores from [aa]; a no-op when [aa] is physically
    the value the scores already reflect.  [boosts] are additive feedback
    deltas layered on top of the base score — they must be constant across
    every call that shares this context (they are per-schedule hints), or
    the aa-identity memo would serve stale sums. *)
