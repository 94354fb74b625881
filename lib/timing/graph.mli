(** The incremental static timing graph of a scheduled region.

    Nodes are the ops of the region's DFG.  A client places a node by
    writing its entries of the node arrays ([node_pass] set to [pass],
    [node_step], [node_finish], [node_unit]), keeps the guard index
    [gslots] and the unit tables ([unit_delay], [unit_mux]) current, and
    journals all of that itself inside a trial; the graph owns the arrival
    cells, their trial generation, the propagation worklist and the
    counters.  The record is private: a client reads every field and
    writes array entries, but no cell, and no field of the record itself.

    The datapath netlist ([Hls_netlist.Netlist]) is the scheduler's
    client; a standalone client builds a graph over a hand-made region,
    places its nodes and calls {!recompute_all}. *)

open Hls_ir
open Hls_techlib

(** One arrival: a committed value and a generation-stamped trial slot,
    both under a pass stamp.  A stale pass stamp reads as absent; during a
    trial a cell stamped with the current generation shows its trial
    value; otherwise the committed value, if any, shows through. *)
type cell = private {
  mutable a_committed : float;
  mutable a_live : bool;  (** committed value present *)
  mutable a_trial : float;
  mutable a_gen : int;  (** the trial generation that wrote [a_trial] *)
  mutable a_pass : int;
}

(** A growable bucket of node ids, live while [b_gen] is the pass. *)
type bucket = { mutable b_a : int array; mutable b_len : int; mutable b_gen : int }

type t = private {
  dfg : Dfg.t;
  lib : Library.t;
  clock_ps : float;
  reg_mux : float;
      (** the register-input sharing mux every registered result passes:
          none at II = 1 (no register can be shared), a 2-input mux
          otherwise *)
  member : bool array;  (** node -> region member (static) *)
  lat : int array;  (** node -> latency in steps (static) *)
  node_delay : float array;  (** node -> execution delay off any unit; nan until needed *)
  out0 : int array array;  (** node -> its distance-0 consumers (static) *)
  gpreds : int array array;  (** node -> its guard's predicates (static) *)
  mutable pass : int;  (** node entries and cells stamped otherwise are absent *)
  node_pass : int array;  (** node -> the pass it was placed in: placed iff [pass] *)
  node_step : int array;
  node_finish : int array;
  node_unit : int array;  (** node -> the unit it executes on, -1 for none *)
  gslots : bucket array;
      (** guard predicate -> the placed nodes whose guard reads it (the
          client's guard index; propagation pushes them in bucket order) *)
  mutable unit_delay : float array;  (** unit -> execution delay *)
  mutable unit_mux : float array array;
      (** unit -> per-port input-mux delay; a port past the array's end
          reads [mux_fill] *)
  mutable mux_fill : int -> int -> float;
      (** [mux_fill u port]: the client's input-mux delay of a port
          [unit_mux] does not cover (it may extend the array) *)
  mutable priced : bool;  (** sharing muxes count in arrivals and slacks *)
  cells : cell array;  (** node -> its arrival *)
  mutable generation : int;
  mutable trial_on : bool;
  mutable touched : int list;  (** nodes whose arrival this trial wrote *)
  slack : float array;  (** node -> its endpoint slack at its last recomputation *)
  mutable wl : int array;
  mutable wl_head : int;
  mutable wl_tail : int;
  in_wl : int array;
  mutable prop_gen : int;
  mutable n_queries : int;  (** arrival recomputations *)
  mutable n_visits : int;  (** nodes the propagation examined *)
  mutable noting : bool;  (** the commit hook is on for this pass *)
  mutable note : int -> unit;
}

val create : lib:Library.t -> clock_ps:float -> Region.t -> t
(** A graph with no node placed and no unit, muxes priced.  The node
    arrays are sized by the region's DFG, which must not grow after. *)

val new_pass : t -> priced:bool -> unit
(** Drop every placement, arrival and open trial (O(1): a stamp bump) and
    turn the commit hook off.  [~priced:false] starts a pass whose
    arrivals and slacks leave out every sharing mux, input and register,
    as a timing-unaware scheduler would believe, until {!price_muxes}. *)

val add_unit : t -> int -> delay:float -> unit
(** Register unit [u] (units are numbered from 0 up) with its execution
    delay and no cached input-mux delay. *)

val set_mux_fill : t -> (int -> int -> float) -> unit

val on_commit : t -> (int -> unit) -> unit
(** Install the commit hook and turn it on until the next {!new_pass}:
    from then on it receives every node whose arrival becomes committed
    (at {!commit} for the nodes the trial re-timed, at once for a
    recomputation outside a trial); [slack] holds the node's slack. *)

(** {2 Trials} *)

val begin_trial : t -> unit
(** Open a trial generation.  Raises [Invalid_argument] if one is open. *)

val commit : t -> unit
(** Fold the trial arrivals into the committed ones (O(touched nodes)). *)

val abandon : t -> unit
(** Close the trial: its arrivals can never be read again. *)

(** {2 Arrivals and slack} *)

val arrival : t -> int -> float option
(** The visible arrival of a node ({!cell}'s read rule). *)

val committed_arrivals : t -> (int * float) list
(** Committed arrivals as [(node, arrival)], ascending by node — for
    snapshot tests. *)

val source_arrival : t -> step:int -> Dfg.edge -> float
(** Arrival of the edge's value at the inputs of a node placed at [step],
    before any input mux: the producer's arrival when it is a placed
    region member of latency 1 finishing at [step], clock-to-q otherwise. *)

val source_arrivals : t -> Dfg.op -> step:int -> float array -> unit
(** [source_arrivals g op ~step srcs] stores {!source_arrival} of the op's
    [k]-th in-edge ({!Dfg.in_edges} order) in [srcs.(k)]. *)

val guard_arrival : t -> step:int -> Dfg.op -> float

val input_mux : t -> int -> int -> float
(** [input_mux g u port]: the input-mux delay of a port of unit [u]. *)

val exec_delay : t -> Dfg.op -> int -> float
(** Execution delay of the op on unit [u], or off any unit when [u < 0]. *)

val arrival_base : t -> Dfg.op -> Dfg.edge list -> float
(** The data arrival's value before the inputs ([Dfg.in_edges]) are
    folded in: 0 for a constant, clock-to-q for a port read or an
    input-less op. *)

val own_data : t -> Dfg.op -> srcs:float array -> inputs:int -> float
(** The op's data arrival behind input muxes of [inputs] inputs each, from
    its {!source_arrivals}: the arrival formula's data term (the base,
    then each input through its mux, folded in in-edge order) on a unit
    whose ports all have that many inputs. *)

val slack_of : t -> arrival:float -> guard:float -> float
(** The endpoint-slack expression: clock minus the later of the arrival
    (0 when absent) and the guard, the register mux when priced, and
    setup. *)

val endpoint_slack : t -> int -> float

val recompute_arrival : t -> int -> bool
(** Recompute a placed node's arrival — the base, each input through its
    unit's input mux (when priced), then the execution delay — and its
    slack into [slack]; true if the arrival moved by more than 1 fs.
    Counts as one timing query. *)

val propagate : t -> int list -> float * int
(** Propagate arrival changes from the seed nodes through same-step chains
    (distance-0 consumers and guard readers starting in the step the node
    finishes); returns the worst endpoint slack seen and the node carrying
    it.  The worklist is deduplicated by node and stops at nodes whose
    arrival did not move. *)

val recompute_all : t -> unit
(** Re-time every placed node, in (step, node) order. *)

val price_muxes : t -> unit
(** Turn mux pricing back on and re-time every placed node; a no-op when
    the muxes are priced.  Must not run inside a trial. *)

val worst_slack : t -> float
(** Worst endpoint slack over the placed nodes ([infinity] for none). *)

val worst_paths : t -> endpoints:int list -> rtype:(int -> Resource.t) -> Synthesize.report
(** The critical-path decomposition {!Synthesize.run} sizes: for each
    endpoint, the chain of units along its dominant same-step inputs, with
    the muxes, clock-to-q and setup on it as fixed delay.  [rtype] gives a
    unit's resource type. *)

(** {2 Reference evaluator — the oracle} *)

val reference_arrivals : t -> (int, float) Hashtbl.t
(** From-scratch recomputation of every arrival through the same formula,
    ignoring all incremental state.  Does not touch the counters. *)

val reference_deviation : t -> float
(** Worst absolute difference between the incremental arrivals and
    {!reference_arrivals} over all placed nodes. *)
