(** Functional equivalence between the behavioural golden model and a
    simulated scheduled design: the schedule preserves semantics iff every
    output port's committed value sequence matches. *)

type mismatch = {
  m_port : string;
  m_index : int;
  m_expected : int option;  (** [None] = golden produced fewer values *)
  m_actual : int option;
}

type verdict = { equivalent : bool; mismatches : mismatch list; checked_values : int }

val check : out_ports:(string * int) list -> Behav.result -> Schedule_sim.result -> verdict
(** Every output port, in [out_ports] order: the mismatches of one port
    by ascending index, then the next port's.  Each result's events are
    grouped by port in one pass; events on ports outside [out_ports] are
    ignored. *)

val check_kernel : out_ports:(string * int) list -> Behav.result -> Kernel_sim.result -> verdict
(** Behavioural trace vs the folded-kernel simulator — the extra gate the
    loop-nest path adds: a flattened nest must stay byte-identical through
    folding too. *)

val both : verdict -> verdict -> verdict
(** Merge two verdicts (equivalent iff both are). *)

val mismatch_to_string : mismatch -> string
val verdict_to_string : verdict -> string

(** {1 Randomized three-way fuzzing}

    Seeded random designs × micro-architectures × stimuli (stall
    patterns and early exits included), checked behavioural ≡
    schedule-sim ≡ compiled kernel, with an interpreted-vs-compiled
    cross-check of the full kernel result record.  The CI gate behind
    the compiled engine. *)

val gen_design : seed:int -> Hls_frontend.Ast.design
(** Deterministic random pipelineable design: declared variables seeded
    pre-loop, a loop-carried accumulator SCC, random dataflow, guarded
    writes, and (one in three) a geometric data-dependent exit. *)

type fuzz_failure = {
  ff_case : int;
  ff_seed : int;
  ff_arch : string;  (** micro-architecture + stimulus description *)
  ff_detail : string;  (** mismatching verdict or exception *)
}

type fuzz_report = {
  fz_cases : int;
  fz_equivalent : int;
  fz_infeasible : int;  (** schedule found no feasible pipeline: skipped *)
  fz_checked_values : int;
  fz_failures : fuzz_failure list;
}

val fuzz : ?cases:int -> seed:int -> unit -> fuzz_report
(** Run [cases] (default 200) seeded random three-way checks.
    Deterministic for a given [seed]; failures carry the case seed so
    any find replays exactly. *)

val fuzz_ok : fuzz_report -> bool
(** No failures and at least one equivalent case. *)

val fuzz_to_string : fuzz_report -> string
