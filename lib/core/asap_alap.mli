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

val guard_dependents_index : Region.t -> int -> int list
(** Reverse guard-dependency index, built once per analysis. *)

val sched_succs_tagged : ?guard_deps:(int -> int list) -> Region.t -> Dfg.op -> (int * bool) list
(** Consumers tagged [true] when reached through a guard (enable) edge. *)

val sched_succs : ?guard_deps:(int -> int list) -> Region.t -> Dfg.op -> int list

val compute :
  lib:Library.t -> clock_ps:float -> ?scc_window:(int -> (int * int) option) -> Region.t -> t
