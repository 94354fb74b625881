(** End-to-end HLS flow: elaborate → schedule+bind → fold → area/power →
    functional verification — one call per micro-architectural
    configuration, returning everything the paper's evaluation reports.

    Robustness contract: {!run} never raises and always terminates within
    the scheduler budgets; failures are typed {!Hls_diag.Diag.t} values,
    and (with [degrade] on) an overconstrained or budget-exhausted request
    degrades down a ladder — relaxed II, then sequential scheduling, then
    the baseline engine — recording the tier served. *)

open Hls_frontend
module Diag = Hls_diag.Diag

type tier =
  | Tier_requested  (** the configuration the caller asked for *)
  | Tier_relaxed_ii of int  (** pipelined, but at this larger II *)
  | Tier_sequential  (** non-pipelined scheduling of the same design *)
  | Tier_baseline  (** the decoupled schedule-then-fold baseline engine *)

val tier_to_string : tier -> string

type options = {
  lib : Hls_techlib.Library.t;
  clock_ps : float;
  ii : int option;  (** pipeline with this initiation interval *)
  ii_dims : int list option;
      (** per-dimension II request for a loop nest, outermost first
          (e.g. [[4; 1]]); the innermost entry is the kernel II, each
          enclosing entry must equal [kernel II x stride] (checked) *)
  nest_mode : Hls_frontend.Desugar.nest_mode;
      (** counted-nest lowering: [`Flatten] (default) or [`Unroll] (the
          1-D baseline that fully unrolls inner loops) *)
  min_latency : int option;
  max_latency : int option;
  sched : Hls_core.Scheduler.options;
  verify : bool;  (** simulate and check equivalence *)
  sim_iters : int;
  seed : int;
  degrade : bool;  (** walk the degradation ladder instead of failing *)
  paranoid : bool;  (** audit every schedule with {!Hls_check.Audit} *)
  feedback : bool;
      (** run the subgraph-extraction feedback loop (schedule → extract →
          re-schedule with hints batched in), serving the best (II, LI,
          area) iteration; no-regress by construction, per-iteration
          stats land in [f_notes] with phase [Feedback] *)
  feedback_iters : int;
      (** schedule calls the feedback loop may spend (default 2) *)
  hints : Hls_feedback.Feedback.Hints.t;
      (** pre-mined hints merged into [sched.hints], the scheduler's one
          hint input, for every schedule call (with the feedback loop's
          own mined hints on top); the DSE engine threads its shared
          cross-point store through here.  An empty store leaves the
          flow byte-identical to the pre-feedback one. *)
}

val default_options : options

type t = {
  f_design : Ast.design;
  f_elab : Elaborate.t;
  f_region : Hls_ir.Region.t;
  f_sched : Hls_core.Scheduler.t;
  f_fold : Hls_core.Pipeline.t;
  f_area : Hls_rtl.Stats.breakdown;
  f_power_mw : float;
  f_equiv : Hls_sim.Equiv.verdict option;
  f_cycles_per_iter : int;  (** steady-state initiation interval *)
  f_delay_ps : float;  (** inverse throughput, II × Tclk (Figs. 10/11 x-axis) *)
  f_clock_ps : float;
  f_tier : tier;  (** which degradation tier served this result *)
  f_notes : Diag.t list;  (** warnings accumulated on the way (degradations) *)
  f_stats : Hls_core.Scheduler.stats;
      (** pass/action/timing-query profiling counters of the schedule that
          served this result (see {!Hls_core.Scheduler.stats}) *)
}

val run : ?options:options -> ?trace:Hls_core.Trace.t -> Ast.design -> (t, Diag.t) result
(** Elaborates once; each schedule (ladder rung, baseline II attempt,
    feedback iteration) takes its own region of that graph.  Never
    raises; always terminates.  A [clock_ps]
    that is not a positive finite number fails at once with a [bad_clock]
    frontend diagnostic, and a scheduling budget {!check_budget} rejects
    with its [bad_budget] one; no degradation tier serves either. *)

val check_budget : Hls_core.Scheduler.options -> (unit, Diag.t) result
(** [bad_budget] unless the timeout is a non-negative number of seconds
    (not NaN) and the pass and action budgets are non-negative.  Zero is
    legal: it starves the scheduler, and the ladder degrades. *)

val run_exn : ?options:options -> ?trace:Hls_core.Trace.t -> Ast.design -> t

val per_dim_iis : t -> int list
(** Achieved per-dimension IIs (outermost first) when the scheduled
    region is a flattened loop nest; empty otherwise. *)

val summary : t -> string
