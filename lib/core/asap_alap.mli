(** Timing-aware ASAP/ALAP analysis (Section IV.A): life spans computed
    "by performing approximate timing analysis on the DFG, initially
    ignoring the sharing multiplexers" — the forward pass packs chained
    ops into a step while the accumulated delay fits the clock, the
    backward pass mirrors it from the latency bound.  Guards are
    scheduling dependencies (the enable must settle in the op's step); SCC
    stage windows and user anchors clamp the ranges. *)

open Hls_ir
open Hls_techlib

type range = {
  asap : int;
  alap : int;
  asap_arrival : float;  (** estimated in-step arrival at the ASAP placement *)
}

type t = {
  ranges : range option array;  (** by op id; [None] for non-members *)
  infeasible : int list;  (** ops whose clamped range is empty at this LI *)
}

val range : t -> int -> range
(** @raise Invalid_argument for unanalyzed ops. *)

val mobility : t -> int -> int

val op_delay : Library.t -> Dfg.t -> Dfg.op -> float
(** Nominal mux-free delay of an op. *)

val sched_preds : Region.t -> Dfg.op -> int list
(** Ordering dependencies: distance-0 data inputs plus guard predicates,
    restricted to region members. *)

(** Everything {!compute} needs that does not depend on the latency
    interval or the SCC windows: the graph's per-op tables and the forward
    (ASAP) sweep, which reads only the graph, the library and the clock.
    Per-op tables are indexed by op id ([None] / [[]] / [0] for
    non-members).  Immutable, and only {!plan} builds one. *)
type plan = private {
  p_clock_ps : float;  (** the clock the forward sweep ran at *)
  p_members : Dfg.op list;  (** region members, ascending id *)
  p_order : int list;  (** members in topological order *)
  p_rtype : Resource.t option array;  (** {!Resource.of_op} *)
  p_delay : float array;  (** {!op_delay} *)
  p_lat : int array;  (** {!Library.op_latency} *)
  p_preds : int list array;  (** {!sched_preds} *)
  p_succs : (int * bool) list array;
      (** [p_preds] reversed: the members each op precedes, ascending,
          tagged [true] when reached only through a guard (enable) edge *)
  p_asap : int array;  (** the forward sweep's step, before any clamping *)
  p_asap_arrival : float array;  (** the forward sweep's in-step arrival there *)
}

val plan : lib:Library.t -> clock_ps:float -> Region.t -> plan
(** Build the plan of a region, forward sweep included.  It stays valid
    across {!Region.add_step} / {!Region.reset_steps} and for any SCC
    window, so a scheduler builds it once per schedule and passes it to
    every {!compute}.
    @raise Invalid_argument on a combinational cycle among member ops. *)

val compute :
  ?plan:plan ->
  lib:Library.t ->
  clock_ps:float ->
  ?scc_window:(int -> (int * int) option) ->
  Region.t ->
  t
(** The ALAP sweep backward from the current latency interval, and the
    anchor/window clamping of both sweeps' results.  [plan] defaults to a
    fresh {!plan} of the region; pass one built earlier (for the same
    library) to skip rebuilding it and its forward sweep.
    @raise Invalid_argument when [plan] was built at another clock. *)
