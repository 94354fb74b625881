(** Simulator of a scheduled (and folded) design: runs the elaborated DFG
    one whole iteration at a time as a flat plan on {!Kernel_compile}'s
    register machine, with loop-carried values across distance-[d] edges
    and guards gating write commits.  Each iteration keeps an ideal value
    context (every value readable until its last reader), so this models
    the schedule's dataflow, not the printed Verilog's registers.  The
    folded pipeline's timing is reconstructed analytically (an op on step
    [s] of iteration [i] executes at cycle [i*II + s]).  Data-dependent
    exits behave speculatively: younger in-flight iterations are squashed
    and their writes suppressed.  Execution counts are derived: each
    pre-region op counts 1, each region member [r_iters] (an op in both
    gets the sum). *)

type output_event = { o_port : string; o_iter : int; o_cycle : int; o_value : int }

type result = {
  r_outputs : output_event list;  (** committed writes *)
  r_iters : int;  (** committed iterations *)
  r_cycles : int;  (** first issue to drain *)
  r_issued : int;  (** including squashed iterations *)
  r_exec_counts : (int, int) Hashtbl.t;  (** op -> executions (activity) *)
}

val run :
  ?funcs:(string -> int list -> int) ->
  ?max_iters:int ->
  Hls_frontend.Elaborate.t ->
  Hls_core.Scheduler.t ->
  Stimulus.t ->
  result

val port_values : result -> string -> int list
