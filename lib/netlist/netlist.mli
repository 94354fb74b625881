(** Explicit datapath-netlist value with an incremental timing engine and a
    transactional what-if API ({!begin_trial} / {!commit} / {!rollback}).

    This layer owns the structural netlist state built by simultaneous
    scheduling-and-binding — instances, port sharing/mux structure,
    busy/occupancy tables, placements — and one arrival time per placed op,
    sharing-mux delays included.  Only the timing-awareness ablation turns
    mux pricing off, for the duration of a pass ({!reset_pass},
    {!price_muxes}).  Policy (modulo constraints, dedication, forbidden
    pairs) lives above it in [Hls_core.Binding].

    The representation is dense: every hot per-op table is an int-indexed
    array with a pass stamp, so {!reset_pass} is O(1), the placement
    table is the one record of where each op sits (unplacing clears its
    stamp and swap-removes it from the guard index), and {!propagate}
    runs a worklist deduplicated by op id that stops at unchanged
    arrivals.  [t] is abstract so the dense tables can evolve without
    touching callers. *)

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
  mutable mux_delays : float array option;
      (** memoized per-port mux delay, derived from [mux_cache] *)
  mutable n_bound : int;
      (** [List.length bound], kept by {!attach}, {!rollback} and
          {!reset_pass} *)
  mutable delay_memo : float;
      (** {!inst_delay}; nan until computed, reset whenever [rtype] changes
          (by {!set_rtype} or its rollback) *)
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

val insts : t -> inst list
(** Instances in registration order (ascending id); memoized, so
    registering k instances costs O(k) amortized, not O(k²). *)

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

val inst_delay : t -> inst -> float
(** [Library.delay] of the instance's current type, memoized on the
    instance until the type changes. *)

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
    membership is static).  True when some flag changed: that moves
    sharing-mux delays on every step.  Meant for pass boundaries;
    {!reset_pass} calls it too. *)

val reset_pass : price_muxes:bool -> t -> unit
(** Reset all pass-local state (placements, busy tables, arrivals, chain
    graph, any dangling trial) while keeping the resource set, then
    {!refresh_prealloc}.  O(1) on the dense per-op tables (a pass-stamp
    bump).

    [~price_muxes:false] starts a mux-blind pass: until {!price_muxes},
    arrivals and endpoint slacks leave out every sharing-mux delay (input
    and register muxes), as a timing-unaware scheduler would believe. *)

val price_muxes : t -> unit
(** Turn mux pricing back on and re-time every placed op (one
    {!recompute_all}); a no-op when the muxes are already priced.  Must
    not run inside a trial. *)

(** {2 Placements} *)

val placement : t -> int -> placement option
val is_placed : t -> int -> bool

val iter_placements : t -> (int -> placement -> unit) -> unit
(** Visit every placed op in ascending id order. *)

val fold_placements : t -> (int -> placement -> 'a -> 'a) -> 'a -> 'a
(** Fold over placed ops in ascending id order. *)

val n_placed : t -> int

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

val in_trial : t -> bool

val begin_trial : t -> unit
(** Open a trial: subsequent mutations are journaled and arrival writes
    land in generation-stamped trial slots.  Raises [Invalid_argument] if a
    trial is already active. *)

val commit : t -> unit
(** Fold the trial arrivals into the committed ones (O(touched ops)) and
    drop the undo log. *)

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

val port_srcs : t -> inst -> port:int -> int list
(** Distinct sources feeding the port over the instance's bound ops
    (cached). *)

val mux_inputs : t -> inst -> port:int -> int

val mux_inputs_with : t -> inst -> port:int -> src:int -> int
(** Mux inputs of the port after a hypothetical bind of an op whose input
    on this port comes from [src]: a source already feeding the port adds
    no mux input. *)

val in_mux_delay : t -> inst -> port:int -> float
val reg_mux_delay : t -> float

(** {2 Timing queries} *)

val arrival : t -> int -> float option
(** Current visible arrival of a placed op: the trial value when the
    active trial has written it, the committed value otherwise. *)

val committed_arrivals : t -> (int * float) list
(** Committed arrivals as [(op, arrival)], ascending by op id — for
    snapshot tests. *)

val source_arrival : t -> step:int -> Dfg.edge -> float
val guard_arrival : t -> step:int -> Dfg.op -> float
val exec_delay : t -> Dfg.op -> int option -> float

val recompute_arrival : t -> int -> bool
(** Recompute the arrival of a placed op with the reference evaluator's
    formula; true if it moved.  Counts as one netlist timing query. *)

val endpoint_slack : t -> int -> float

val source_arrivals : t -> Dfg.op -> step:int -> float array -> unit
(** [source_arrivals t op ~step srcs] stores {!source_arrival} of the op's
    [k]-th in-edge ({!Dfg.in_edges} order) in [srcs.(k)]. *)

val own_slack_defined : t -> Dfg.op -> finish:int -> bool
(** The op is not placed and no op placed in step [finish] reads its
    result: the condition under which {!empty_bind_slack} is not [nan]
    on an empty instance its type fits. *)

val own_data : t -> Dfg.op -> srcs:float array -> inputs:int -> float
(** The op's data arrival behind input muxes of [inputs] inputs each, from
    its {!source_arrivals}. *)

val own_slack : t -> data:float -> inst:inst -> guard:float -> float
(** The endpoint slack of an op with data arrival [data] executing on
    [inst], its guard arriving at [guard].  {!empty_bind_slack} is
    [own_slack ~data:(own_data ~inputs:1 or 2)] with the guard's arrival
    at [finish]. *)

val empty_bind_slack : t -> Dfg.op -> step:int -> finish:int -> inst:inst -> float
(** The worst slack, bit for bit, that the trial of binding the unplaced
    [op] at [step]..[finish] on [inst] would return, computed without
    opening it — the op's own endpoint slack, which carries that worst.
    Defined when [inst] has nothing bound, its type already fits the op,
    and no op placed in step [finish] reads the op's result; [nan]
    otherwise.  Issues no timing query. *)

val port_set_max : int
(** The highest port a port set holds ([Sys.int_size - 2]). *)

val port_bit : int -> int
(** The bit of a port in a port set, as {!screen} takes them.
    @raise Invalid_argument on a port outside [0 .. port_set_max]. *)

val reads_ports : t -> int -> ports:int -> bool
(** Does the op read one of the ports in the set?  A port above
    {!port_set_max} is in no set. *)

val screen_may_prove : t -> inst:inst -> changed_ports:int -> bool
(** [false] when the instance's slack floor ({!inst_floor}) shows that
    {!screen} cannot prove a rejection for a bind growing [changed_ports]
    of [inst]: every slack the screen prices, or stored in its memo, is a
    committed slack of an op in the instance's cone (none below the
    floor) less at most the largest mux growth (twice that on a black-box
    instance, which may host multicycle ops), and the floor clears that
    with a 1 ps margin over the tolerance.  Also [false] while the muxes
    are unpriced or when the set is not positive.  [true] means "run the
    screen". *)

val inst_floor : t -> inst -> float
(** The instance's slack floor: the least endpoint slack committed this
    pass (since {!reset_pass}) by its bound ops and by the ops that read
    them, recursively, at distance 0 in the step they finish through
    latency-1 region members — the cone a screen on the instance prices.
    The first read of a pass builds the floors from the committed slacks;
    from then on a slack counts when it becomes committed: at {!commit}
    for the ops a trial re-timed, at once for a recomputation outside a
    trial.  The
    floor is capped where {!screen_may_prove} rules out whatever the mux
    growth, so an instance with an empty cone reads the cap;
    [neg_infinity] while the pass is {!forced}. *)

val mark_forced : t -> unit
(** Note a bind committed without a trial, which may leave any slack:
    until {!reset_pass} the pass is {!forced}, every instance floor reads
    [neg_infinity] and the saturation memo is not read. *)

val forced : t -> bool

type screen =
  | Screen_pass  (** nothing proved: run the trial *)
  | Screen_memo  (** a rejection proved by the saturation memo *)
  | Screen_computed  (** a rejection proved by pricing the cohabitants *)

val screen :
  t -> op:Dfg.op -> step:int -> finish:int -> inst:inst -> changed_ports:int -> screen
(** Saturation screen: a rejection when binding [op] on [inst] provably
    breaks the timing of an already-bound cohabitant, or of one of its
    same-step chained consumers (up to 8 hops down, through arrival lower
    bounds), strictly below the op's own exact slack — the full trial
    would reject with [F_busy] — all priced from committed state.
    [Screen_pass] means "run the real trial", never a wrong verdict.
    [changed_ports] is the set of instance ports whose effective mux
    input count the bind grows ({!port_bit}).  Always [Screen_pass] while
    the muxes are unpriced, or when the set is not positive.

    A computed screen stores the least slack it priced per (instance,
    port set); until the instance next changes or the pass ends, a stored
    value below the tolerance and the op's own slack decides the next
    screen of that set with one comparison ([Screen_memo]); none is read
    while the pass is {!forced}.  A computed screen proves exactly when
    the short-circuiting screen would. *)

val propagate : t -> int list -> float * int
(** Propagate arrival changes from the seed ops through same-step chains;
    returns the worst endpoint slack and the op carrying it.  The worklist
    is deduplicated by op id and stops at ops whose arrival did not move,
    so the visited set is bounded by the region the change actually
    reaches, not the seeds' fanout cone. *)

val recompute_all : t -> unit
val chain_source_insts : t -> int -> step:int -> int list
val would_close_cycle : t -> src:int -> dst:int -> bool
val add_chain_edge : t -> src:int -> dst:int -> unit

(** {2 Reporting} *)

val registered_ops : t -> int list
val timing_report : t -> Hls_timing.Synthesize.report
val worst_slack : t -> float

(** {2 Reference evaluator — the oracle} *)

val reference_arrivals : t -> (int, float) Hashtbl.t
(** From-scratch recomputation of every arrival, ignoring all incremental
    state.  Does not touch the query counters. *)

val reference_deviation : t -> float
(** Worst absolute difference between the incremental arrival state and
    {!reference_arrivals} over all placed ops. *)
