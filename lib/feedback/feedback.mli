(** Subgraph-extraction feedback-guided iterative scheduling.

    The expert system relaxes constraints one batch per {e failed pass}
    from local restraint estimates.  This module closes the loop at the
    next level up, after "Subgraph Extraction-based Feedback-guided
    Iterative Scheduling for HLS" (arXiv 2401.12343): a completed (or
    failed) schedule is {e mined} for the critical subgraphs that drove
    its relaxation — negative-slack fan-in cones, contended-resource
    cliques from the busy tables, SCC stage-window violators, and the
    expert's own converged corrective state — and the findings become a
    store of typed {!Hints}.  That store ({!Hls_core.Hints}) is the
    scheduler's input: the next schedule call reads it from
    [Scheduler.options.hints] and applies it as one batch at schedule
    start, instead of rediscovering the hints one action at a time.

    The module sits below the flow: it depends only on the scheduler and
    netlist layers, so both [Flow.run --feedback] (iterate on one design)
    and [Dse.sweep] (share hints across neighboring grid points) drive it
    through the generic {!iterate} combinator. *)

module Scheduler = Hls_core.Scheduler

module Hints : sig
  include module type of struct
    include Hls_core.Hints
  end

  val apply : t -> Scheduler.options -> Scheduler.options
  (** Merge the store into the scheduler's [hints] field, its single
      hint input.  Applying an empty store returns the options
      unchanged. *)
end

val extract : Scheduler.t -> Hints.t
(** Mine an accepted schedule: the expert's converged corrective state
    (forbidden pairs, dedications, expert-added resource counts, SCC
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
