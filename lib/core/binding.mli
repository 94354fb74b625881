(** Simultaneous scheduling-and-binding policy (Section IV.B).

    Binding assigns an operation both a control step and a resource
    instance.  The structural netlist lives in [Hls_netlist.Netlist], the
    incremental timing engine in [Hls_timing.Graph] and the saturation
    screen in [Hls_netlist.Screen]; this module layers the paper's policy
    on top: restraint checks (window, anchors, modulo dependencies, forbidden
    pairs, dedication, busy-table conflicts, structural cycles), the cheap
    {!quick_slack} screen, the trial protocol (each candidate binding runs
    inside a netlist transaction, committed or rolled back on the worst
    slack it produces), and the expert system's estimation hooks.

    The timing graph keeps one arrival per bound op, all mux delays included —
    what the paper's netlist queries return.  [timing_aware = false] (the
    timing-awareness ablation) binds each pass with the sharing muxes
    unpriced; the scheduler prices them when the pass ends, so the final
    timing report always includes them. *)

open Hls_ir
open Hls_techlib
module Netlist = Hls_netlist.Netlist
module Screen = Hls_netlist.Screen

type inst = Netlist.inst = {
  inst_id : int;
  mutable rtype : Resource.t;
  mutable bound : int list;  (** bound op ids, most recent first *)
  mutable prealloc_shared : bool;
  added_by_expert : bool;
  mutable mux_cache : int list array option;
  mutable mux_n : int array;  (** source count per [mux_cache] list *)
  mutable n_bound : int;  (** [List.length bound] *)
  compat : Bytes.t;  (** see {!Netlist.compat_tier} *)
}

type placement = Netlist.placement = { pl_step : int; pl_finish : int; pl_inst : int option }

type exclusions
(** Forbidden (op, instance) pairs and dedicated ops, in arrays indexed by
    op id; written by {!forbid} and {!dedicate} only. *)

(** Decision counters, accumulated over the binder's life: one increment
    per decision, no clock read, so equal on every run.  Every candidate
    checked ([c_visited]) either binds — the attempt then counts in
    [c_bound] — or is rejected in exactly one of the stages [c_forbid] to
    [c_trial_busy] or by [c_slack_bound]. *)
type counters = {
  mutable c_bound : int;  (** attempts that bound *)
  mutable c_failed : int;  (** attempts that failed on every candidate *)
  mutable c_visited : int;  (** candidates checked *)
  mutable c_prelude : int;  (** attempts failed before any candidate (window, anchor, modulo) *)
  mutable c_forbid : int;  (** rejections: a forbidden (op, instance) pair *)
  mutable c_tier : int;  (** ... an instance the op neither fits nor widens *)
  mutable c_dedicated : int;  (** ... a dedicated op or instance *)
  mutable c_busy : int;  (** ... a busy slot *)
  mutable c_quick_slack : int;  (** ... {!quick_slack}, priced *)
  mutable c_empty_slack : int;  (** ... the op's exact own slack on an empty instance *)
  mutable c_cycle : int;  (** ... a structural combinational cycle *)
  mutable c_screen_memo : int;  (** ... the saturation memo ({!Screen.Screen_memo}) *)
  mutable c_screen : int;  (** ... a computed saturation screen *)
  mutable c_trial_slack : int;  (** ... a trial, on the op's own slack *)
  mutable c_trial_busy : int;  (** ... a trial, on a bound op's slack *)
  mutable c_screen_skipped : int;
      (** saturation screens the instance floor ruled out
          ({!Screen.screen_may_prove}); the trial ran *)
  mutable c_screen_futile : int;  (** saturation screens run that proved nothing; the trial ran *)
  mutable c_slack_bound : int;
      (** rejections: {!quick_slack} decided by its per-type upper bound,
          without pricing it *)
  mutable c_failed_visited : int;  (** candidates checked by attempts that failed *)
}

type attempt
(** The per-(op, step) facts an attempt prices once for all its
    candidates; one record per binder, reused. *)

type t = {
  net : Netlist.t;  (** the datapath netlist *)
  graph : Hls_timing.Graph.t;  (** its timing graph ({!Netlist.graph}) *)
  scr : Screen.t;  (** its saturation screen *)
  region : Region.t;
  lib : Library.t;
  clock_ps : float;
  dfg : Dfg.t;
  excl : exclusions;
  timing_aware : bool;
  att : attempt;
  ctr : counters;
}

val create : ?timing_aware:bool -> lib:Library.t -> clock_ps:float -> Region.t -> t

val forbid : t -> op:int -> inst:int -> unit
(** Exclude binding [op] to instance [inst] from now on (an expert
    [Forbid] action or hint).  Idempotent.
    @raise Invalid_argument on a negative op id. *)

val dedicate : t -> int -> unit
(** User constraint (Section IV.B item 4): the op must own its resource
    instance outright, with no cohabitant in any state.  Idempotent.
    @raise Invalid_argument on a negative op id. *)

val forbidden_pairs : t -> (int * int) list
(** Every forbidden (op, instance) pair, by ascending op id. *)

val dedicated_ops : t -> int list
(** Every dedicated op id, ascending. *)

val add_inst : ?added_by_expert:bool -> t -> Resource.t -> inst
val find_inst : t -> int -> inst

val refresh_prealloc : t -> bool
(** Recompute which instances pre-allocate sharing muxes, if an instance
    was added or changed type since the last recompute; true when that
    changed any instance's flag or a type change was committed
    ({!Netlist.refresh_prealloc}). *)

val reset_pass : t -> unit
(** Clear pass-local netlist state (placements, busy, arrivals, chain
    graph) while keeping the resource set and forbidden pairs; recompute
    which instances pre-allocate sharing muxes.  The pass prices its
    sharing muxes only when [timing_aware]. *)

val placement : t -> int -> placement option
val is_placed : t -> int -> bool
val slot : t -> int -> int
val op_latency : t -> Dfg.op -> int
val is_multicycle : t -> Dfg.op -> bool

val modulo_ok : t -> op_id:int -> step:int -> finish:int -> bool
val quick_slack : t -> Dfg.op -> step:int -> inst_id:int -> float
(** Cheap endpoint screen before the full trial: the op's own path on the
    instance, with each input mux sized by the port's distinct sources
    after the hypothetical bind.  The binder prices the same formula from
    its attempt record; this standalone form is the reference the tests
    check the formula against. *)

val changed_ports : t -> Dfg.op -> inst -> int
(** The ports of the instance that gain an effective mux input when the op
    binds to it, as a set ({!Screen.port_bit}), measured against the
    committed mux caches; empty ([0]) when the bind widens the instance's
    resource type, and [-1] when a port above {!Screen.port_set_max}
    grows. *)

val open_trial :
  t ->
  Dfg.op ->
  step:int ->
  finish:int ->
  inst_opt:int option ->
  changed_ports:int ->
  float * int
(** The trial {!try_bind} runs once every cheaper check has passed: open a
    netlist transaction, apply the bind's structural mutations and
    propagate its arrivals.  Returns the worst slack and the op carrying
    it, with the trial still open for the caller to commit or roll back.
    [changed_ports] is {!changed_ports} of the candidate ([0] without an
    instance). *)

val try_bind : t -> Dfg.op -> step:int -> inst_opt:int option -> (unit, Restraint.fail) result
(** Attempt a binding: an {!attempt} with the one candidate [inst_opt].
    On failure the netlist transaction is rolled back and the reason
    returned.  A trial that breaks an {e already-bound} op's timing (the
    sharing mux grew) reports [F_busy] — the instance is saturated.
    Candidates whose verdict is settled without the trial return it
    without opening one: on an empty instance the op's exact own slack
    ({!Netlist.empty_bind_slack}) decides [F_slack], and on a loaded one
    the saturation screen decides [F_busy] (skipped when the instance's
    slack floor shows it cannot, {!Screen.screen_may_prove}).  The answer is
    always the one the trial would give. *)

val attempt : t -> Dfg.op -> step:int -> Restraint.fail list
(** Bind [op] at [step] on the first of its candidates that takes it —
    its compatible instances in {!compatible_insts} order, walked by the
    class's candidate cursor without building a list, or the op alone for
    a wire or port op — exactly as {!try_bind} on each in turn would.
    [[]] when it bound; otherwise every candidate's failure, the last
    candidate's first.  The window, anchor and modulo checks and the op's
    source arrivals, guard arrivals, chain sources and empty-instance own
    slack are priced once per attempt; a failed window, anchor or modulo
    check fails every candidate alike and is returned once.  An op with
    no compatible instance fails with [F_no_resource].

    Two verdicts decide, each in one step, what the walk would find.  A
    loaded candidate whose grown muxes all have 2 inputs or more rejects
    [F_slack] without pricing {!quick_slack} when the screen's upper bound
    for its type is below tolerance ([c_slack_bound]); that rejection
    carries the bound, except the last [F_slack] in walk order — the one a
    pass records — which carries the exact {!quick_slack}, as {!try_bind}
    returns for every candidate.  The structural-cycle check is one
    backward search from the chain sources per attempt and one lookup per
    candidate. *)

val replay_bind :
  t ->
  ?propagate:bool ->
  Dfg.op ->
  step:int ->
  finish:int ->
  inst_opt:int option ->
  rtype:Resource.t option ->
  unit
(** Re-apply a binding vetted and committed by an earlier pass (warm-start
    prefix replay): no feasibility checks, no trial — structural mutation
    plus the same arrival propagation the committing bind performed.
    [rtype] is the instance type the original bind left behind.
    [propagate] (default [true]): when [false], only the structural
    mutation is applied — the caller batches the whole replayed prefix and
    runs one {!Hls_timing.Graph.recompute_all} at the end, reaching the same (unique)
    arrival fixpoint in a single sweep. *)

val force_bind : t -> Dfg.op -> step:int -> inst_opt:int option -> unit
(** Record a placement unconditionally (imports of external schedules and
    the Table 4 ablation); marks the pass {!Netlist.forced}. *)

val compatible_insts : t -> Dfg.op -> inst list
(** Candidate instances, exact-fit then least-loaded first, ties in
    registration order: the reference order {!candidates} must follow,
    rebuilt from scratch on every call. *)

val candidates : t -> Dfg.op -> inst Seq.t
(** {!compatible_insts} in the order {!attempt} walks them: the cursor
    over the class's (load, id) order, tier 0 then tier 1
    ({!Netlist.next_candidate}).  Forcing the rest after a failed
    {!try_bind} of the head is sound: a failed bind leaves the netlist,
    and the order, as it found it.  The binder walks the cursor inside
    {!attempt}; this sequence is how the tests read the same walk. *)

val would_fit : t -> Dfg.op -> step:int -> bool
(** Would the op meet timing at [step] on a fresh resource instance?  The
    expert system's evidence for adding a resource. *)

val would_fit_existing : t -> Dfg.op -> bool
