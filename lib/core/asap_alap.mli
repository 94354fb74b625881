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

type fwd
(** A forward (ASAP) sweep, kept for its library and clock. *)

type bwd
(** A backward (ALAP) sweep, kept for its library, clock and latency
    interval. *)

(** Everything {!compute} needs that depends only on the region's graph
    and the library, not on the latency interval or the SCC windows.
    Per-op tables are indexed by op id ([[]] / [0] for non-members).
    Only {!plan} builds one and only {!compute} writes its sweeps. *)
type plan = private {
  p_members : Dfg.op list;  (** region members, ascending id *)
  p_order : int list;  (** members in topological order *)
  p_delay : float array;  (** {!op_delay} *)
  p_lat : int array;  (** {!Library.op_latency} *)
  p_preds : int list array;  (** {!sched_preds} *)
  p_data_preds : int list array;  (** [p_preds] minus the guard predicates *)
  p_guard_preds : int list array;  (** member guard predicates *)
  p_succs : (int * bool) list array;
      (** distance-0 data consumers and guarded members, ascending, tagged
          [true] when reached only through a guard (enable) edge *)
  mutable p_fwd : fwd option;  (** the last forward sweep {!compute} ran *)
  mutable p_bwd : bwd option;  (** the last backward sweep {!compute} ran *)
}

val plan : lib:Library.t -> Region.t -> plan
(** Build the plan of a region.  It stays valid across
    {!Region.add_step} / {!Region.reset_steps} and for any SCC window, so
    a scheduler builds it once per schedule and passes it to every
    {!compute}.
    @raise Invalid_argument on a combinational cycle among member ops. *)

val compute :
  ?plan:plan ->
  lib:Library.t ->
  clock_ps:float ->
  ?scc_window:(int -> (int * int) option) ->
  Region.t ->
  t
(** The two sweeps (ASAP forward, ALAP backward from the current latency
    interval) and the anchor/window clamping.  [plan] defaults to a fresh
    {!plan} of the region; pass one built earlier to skip rebuilding it.
    The forward sweep reads neither the latency interval nor the SCC
    windows, and the backward one reads no window, so the plan keeps the
    last of each: a call on the same library and clock reruns the forward
    sweep never, and the backward one only for a new latency interval. *)
