(** Cycle-stepped simulator of the {e folded} pipeline: steps the
    generated controller clock by clock — kernel-state counter,
    stage-validity shift register (prologue/epilogue), stall freezing, and
    data-dependent exit with squash of younger in-flight iterations.
    Each stage carries an ideal value context for its iteration, so this
    models the controller, not the registers of the printed Verilog.  Two
    engines share these semantics: the reference tree-walking interpreter
    and the compiled plan of {!Kernel_compile} (the default).  Cross-checked against the
    behavioural golden model and {!Schedule_sim} in the test matrix and
    by the randomized {!Equiv.fuzz} gate. *)

type output_event = Kernel_compile.output_event = {
  k_port : string;
  k_iter : int;
  k_cycle : int;
  k_value : int;
}

type result = Kernel_compile.result = {
  k_outputs : output_event list;
  k_iters : int;  (** committed iterations *)
  k_cycles : int;  (** cycles stepped, stalls and drain included *)
  k_stall_cycles : int;
  k_squashed : int;  (** iterations issued past the exit and discarded *)
}

exception Watchdog of Hls_diag.Diag.t
(** Alias of {!Kernel_compile.Watchdog}.  Raised ([watchdog_exceeded]
    diagnostic) when the pipeline is still
    active past [max_cycles] — e.g. a stall condition that never
    releases.  Formerly the loop exited silently with a truncated
    result. *)

val run :
  ?funcs:(string -> int list -> int) ->
  ?max_iters:int ->
  ?max_cycles:int ->
  ?stall_pattern:(int -> bool) ->
  ?engine:[ `Interp | `Compiled ] ->
  Hls_frontend.Elaborate.t ->
  Hls_core.Scheduler.t ->
  Stimulus.t ->
  result
(** [stall_pattern cycle] = false freezes the pipeline at [cycle]
    (external stall); the design's own [stall_until] condition is honoured
    independently.  [max_cycles] (default
    {!Kernel_compile.default_max_cycles}) bounds the run; exceeding it
    with iterations still in flight raises {!Watchdog}.  [engine]
    defaults to [`Compiled]; [`Interp] is the executable specification
    the compiled plan is diffed against. *)

val commit_order : output_event -> output_event -> int
(** By iteration, then cycle: the order {!port_values} reads a port in
    (under a stable sort, so commits with equal keys keep theirs). *)

val port_values : result -> string -> int list
(** Committed values of one port in iteration order. *)
