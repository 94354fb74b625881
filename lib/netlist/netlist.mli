(** Explicit datapath-netlist value over the incremental timing graph
    {!Hls_timing.Graph}, with a transactional what-if API ({!begin_trial}
    / {!commit} / {!rollback}).

    This layer owns the structural netlist state built by simultaneous
    scheduling-and-binding — instances, port sharing/mux structure, the
    busy table, placements, the guard index — and keeps the graph's node
    and unit arrays current; the graph ({!graph}) times it, sharing-mux
    delays included.  Only the timing-awareness ablation turns
    mux pricing off, for the duration of a pass ({!reset_pass},
    {!Hls_timing.Graph.price_muxes}).  The saturation screen lives in
    [Screen]; policy (modulo constraints, dedication, forbidden pairs) in
    [Hls_core.Binding].

    The representation is dense: every hot per-op table is an int-indexed
    array with a pass stamp, so {!reset_pass} is O(1), and the placement
    table is the one record of where each op sits (unplacing clears its
    stamp and swap-removes it from the guard index).  [t] is abstract so
    the dense tables can evolve without touching callers. *)

open Hls_ir
open Hls_techlib

type inst = {
  inst_id : int;
  mutable rtype : Resource.t;
  mutable bound : int list;  (** op ids, most recent first *)
  mutable prealloc_shared : bool;
      (** instantiate input muxes even before a second op arrives *)
  added_by_expert : bool;
  mutable mux_cache : int list array option;
      (** per-port distinct sources, invalidated when [bound]/[rtype] change *)
  mutable mux_n : int array;
      (** the length of each [mux_cache] list, while that is [Some]: the
          mux input counts read in O(1) *)
  mutable n_bound : int;
      (** [List.length bound], kept by {!attach}, {!rollback} and
          {!reset_pass} *)
  compat : Bytes.t;
      (** {!compat_tier} per resource need; reset whenever [rtype] changes *)
}

type placement = { pl_step : int; pl_finish : int; pl_inst : int option }

type stats = {
  s_queries : int;  (** netlist timing queries (arrival recomputations) *)
  s_trials : int;
  s_commits : int;
  s_rollbacks : int;
  s_visits : int;
      (** cells examined by {!propagate} — bounded propagation stops at
          unchanged arrivals, so this stays well below the fanout cone *)
  s_cycle_visits : int;
      (** instances visited by the structural-cycle detector's searches *)
}

type t

val create : lib:Library.t -> clock_ps:float -> Region.t -> t
val stats : t -> stats

(** {2 Accessors for the abstract state} *)

val region : t -> Region.t
val lib : t -> Library.t
val clock_ps : t -> float
val dfg : t -> Dfg.t

val chain : t -> Hls_timing.Cycle_detector.t
(** The structural-cycle detector over the instances: {!add_chain_edge}
    records its edges, {!reset_pass} clears them. *)

val graph : t -> Hls_timing.Graph.t
(** The timing graph: its nodes are the ops, its units the instances.
    Everything that reads or moves an arrival goes through it. *)

val insts : t -> inst list
(** Instances in registration order (ascending id): a fresh list built
    from the id-indexed instance table, O(instances) per call. *)

val n_insts : t -> int
(** Number of registered instances (= the next instance id). *)

val class_insts : t -> Dfg.op -> inst list
(** The instances of [op]'s resource class, in registration order (the
    only instances {!Resource.fits} or {!Resource.can_merge} can accept);
    empty for wire-class ops. *)

val next_candidate : t -> Dfg.op -> tier:int -> from:int -> int
(** The candidate cursor.  Each class keeps its instances in ascending
    (load, id) order, load being [n_bound]; {!attach}, {!rollback},
    {!add_inst} and {!reset_pass} move an instance by one insertion step
    when its load changes.  [next_candidate t op ~tier ~from] is the first
    slot at or after [from] in the order of [op]'s class whose instance
    has compatibility tier [tier] for [op] ({!compat_tier}), or -1.
    Walking tier 0 from slot 0, then tier 1 from slot 0, visits the
    candidates in (tier, load, registration) order without allocating; a
    rolled-back trial leaves the order as it found it. *)

val candidate_at : t -> Dfg.op -> int -> inst
(** The instance in the given slot of [op]'s class order. *)

val resource_of : t -> Dfg.op -> Resource.t option
(** {!Resource.of_op}, computed once per op when the netlist is created. *)

val add_inst : ?added_by_expert:bool -> t -> Resource.t -> inst
val find_inst : t -> int -> inst

val inst_epoch : t -> inst -> int
(** The epoch of the instance's last change: its bound ops, its type or
    its pre-allocation flag moved, or {!reset_pass} ran.  Whatever was
    derived from the instance under an older epoch may be stale. *)

val compat_tier : t -> Dfg.op -> inst -> int
(** How an instance of [op]'s class can host [op]: [0] when its type
    already fits the op's need ({!Resource.fits}), [1] when it can be
    widened to ({!Resource.can_merge}), [2] when neither.  Memoized per
    (need, instance) until the instance's type changes. *)

val class_ops : t -> Resource.t -> int
(** Region members whose resource need {!Resource.can_merge}s into the
    given type: the op side of the sharing test that decides
    [prealloc_shared].  Memoized per type (membership is static). *)

val refresh_prealloc : t -> bool
(** Recompute each instance's [prealloc_shared] flag if an instance was
    added or changed type since the flags were last computed (region
    membership is static).  True when some flag changed, which moves
    sharing-mux delays on every step, or when an instance's type change
    was committed since the last recompute (a widened instance fits ops
    it did not fit before, on any step).  Meant for pass boundaries;
    {!reset_pass} calls it too. *)

val reset_pass : price_muxes:bool -> t -> unit
(** Reset all pass-local state (placements, busy tables, arrivals, chain
    graph, any dangling trial) while keeping the resource set, then
    {!refresh_prealloc}.  O(1) on the dense per-op tables (a pass-stamp
    bump).

    [~price_muxes:false] starts a mux-blind pass: until
    {!Hls_timing.Graph.price_muxes}, arrivals and endpoint slacks leave
    out every sharing-mux delay (input and register muxes), as a
    timing-unaware scheduler would believe. *)

(** {2 Placements} *)

val placement : t -> int -> placement option
val is_placed : t -> int -> bool

val iter_placements : t -> (int -> placement -> unit) -> unit
(** Visit every placed op in ascending id order. *)

val fold_placements : t -> (int -> placement -> 'a -> 'a) -> 'a -> 'a
(** Fold over placed ops in ascending id order. *)

val slot : t -> int -> int
(** Modulo slot of a control step ([step mod II] when pipelined). *)

val busy_ops : t -> int -> int -> int list
(** [busy_ops t inst_id step] — ops occupying the instance in the step's
    slot.  A read: it never adds an entry to the busy table. *)

val dump_busy : t -> ((int * int) * int list) list
(** Non-empty busy entries as [((inst, slot), sorted ops)], sorted — for
    tests and debugging dumps. *)

val op_latency : t -> Dfg.op -> int
val is_multicycle : t -> Dfg.op -> bool

(** {2 Transactions} *)

val begin_trial : t -> unit
(** Open a trial: subsequent mutations are journaled and arrival writes
    land in the graph's generation-stamped trial slots.  Raises [Invalid_argument] if a
    trial is already active. *)

val commit : t -> unit
(** Fold the trial arrivals into the committed ones (O(touched ops),
    {!Hls_timing.Graph.commit}) and drop the undo log. *)

val rollback : t -> unit
(** Replay the structural undo log and abandon the trial arrivals (their
    generation stamp can never be read again). *)

(** {2 Structural mutators} — journaled while a trial is active *)

val place : t -> int -> step:int -> finish:int -> inst_opt:int option -> unit

val attach : t -> inst -> int -> unit
(** Bind an op id onto an instance (prepends to [bound], invalidates the
    mux caches).  Re-attaching an op already bound to the instance is a
    no-op: the mux structure cannot have changed, so the caches survive. *)

val set_rtype : t -> inst -> Resource.t -> unit
val occupy : t -> inst_id:int -> step:int -> finish:int -> int -> unit

(** {2 Mux structure} *)

val mux_inputs : t -> inst -> port:int -> int

val mux_inputs_with : t -> inst -> port:int -> src:int -> int
(** Mux inputs of the port after a hypothetical bind of an op whose input
    on this port comes from [src]: a source already feeding the port adds
    no mux input. *)

val mux_grows : t -> inst -> port:int -> src:int -> bool
(** Would a bind whose [port] input comes from [src] change the port's
    effective mux inputs ({!mux_inputs_with} against {!mux_inputs})? *)

val src_count : t -> inst -> port:int -> int
(** Distinct sources feeding the port (cached): {!mux_inputs} before
    pre-allocation. *)

(** {2 Own slack on an empty instance} *)

val own_slack_defined : t -> Dfg.op -> finish:int -> bool
(** The op is not placed and no op placed in step [finish] reads its
    result: the condition under which {!empty_bind_slack} is not [nan]
    on an empty instance its type fits. *)

val empty_bind_slack : t -> Dfg.op -> step:int -> finish:int -> inst:inst -> float
(** The worst slack, bit for bit, that the trial of binding the unplaced
    [op] at [step]..[finish] on [inst] would return, computed without
    opening it — the op's own endpoint slack, which carries that worst:
    {!Hls_timing.Graph.slack_of} of {!Hls_timing.Graph.own_data} behind
    1-input muxes (2 when pre-allocated) plus the instance delay, its
    guard arriving at [finish].  Defined when [inst] has nothing bound,
    its type already fits the op, and no op placed in step [finish] reads
    the op's result; [nan] otherwise.  Issues no timing query. *)

val mark_forced : t -> unit
(** Note a bind committed without a trial, which may leave any slack:
    until {!reset_pass} the pass is {!forced}. *)

val forced : t -> bool

(** {2 Structural cycles} *)

val chain_source_insts : t -> int -> step:int -> int list
val add_chain_edge : t -> src:int -> dst:int -> unit

(** {2 Reporting} *)

val registered_ops : t -> int list
(** Placed ops whose value must live in a register — the endpoints of
    {!Hls_timing.Graph.worst_paths} — ascending. *)
