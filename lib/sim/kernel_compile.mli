(** One-time compilation of a scheduled region into a register machine.

    {!compile_cells} is the one compiler.  It takes a grid of cells
    ([ii] kernel states × [stages] stages, each a topologically ordered op
    list) and resolves everything an interpreter would re-derive per op —
    in-edge lists, guard atoms, result widths, loop-carried distances —
    once, into flat instruction arrays over a dense op-id-indexed value
    arena (a ring of [stages + max_distance + 1] iteration contexts with
    iteration-stamp validity), with constant folding and multiply-add
    fusion.  Two plans are built from it:

    - the folded kernel ({!compile}): one cell per (kernel state, stage),
      in {!cell_topo} order.  {!run} steps the same controller as the
      {!Kernel_sim} interpreter: kernel-state counter, stage-validity
      shift register, external + design stall freezing, data-dependent
      exit with squash;
    - the flat plan of {!Schedule_sim}: one cell ([ii = stages = 1])
      holding every region member in {!pre_topo} order, which
      {!start}, {!exec_cell} and {!stamped_nonzero} drive one whole
      iteration at a time.

    A plan is reusable across runs (the arena resets per run) but is not
    thread-safe and not reentrant: one [run] at a time per plan. *)

type output_event = { k_port : string; k_iter : int; k_cycle : int; k_value : int }

type result = {
  k_outputs : output_event list;
  k_iters : int;  (** committed iterations *)
  k_cycles : int;  (** cycles stepped, stalls and drain included *)
  k_stall_cycles : int;
  k_squashed : int;  (** iterations issued past the exit and discarded *)
}

exception Watchdog of Hls_diag.Diag.t
(** Raised ([watchdog_exceeded]) when the pipeline is still active after
    the cycle cap — e.g. a design stall condition that never releases. *)

type plan

val compile_cells :
  Hls_frontend.Elaborate.t ->
  Hls_core.Scheduler.t ->
  ii:int ->
  stages:int ->
  cell:(state:int -> stage:int -> int list) ->
  plan
(** Compile the pre region and the cells [cell ~state ~stage] for
    [state < ii], [stage < stages]; each cell lists its ops producer
    first.  Every op of some cell counts as a main-loop op: its distance-0
    consumers read it from the current iteration's row. *)

val compile : Hls_frontend.Elaborate.t -> Hls_core.Scheduler.t -> Hls_core.Pipeline.t -> plan
(** The folded kernel: [compile_cells] over the fold's cells in
    {!cell_topo} order. *)

val start : ?funcs:(string -> int list -> int) -> plan -> Stimulus.t -> unit
(** Bind [funcs] and the stimulus ports, reset the arena and run the pre
    program at iteration 0.  {!run} starts with it. *)

val exec_cell : plan -> state:int -> stage:int -> int -> (int -> string -> int -> unit) -> unit
(** [exec_cell plan ~state ~stage i emit] runs one cell for iteration [i],
    then calls [emit op port value] for each of its port writes whose
    guard holds, in cell order. *)

val stamped_nonzero : plan -> iter:int -> int -> bool
(** [op] was computed for iteration [iter] (and that iteration's ring slot
    has not been reused since) with a non-zero value. *)

val run :
  ?funcs:(string -> int list -> int) ->
  ?max_iters:int ->
  ?max_cycles:int ->
  ?stall_pattern:(int -> bool) ->
  plan ->
  Stimulus.t ->
  result
(** Identical semantics to {!Kernel_sim.run}.  [max_cycles] defaults to
    {!default_max_cycles}; when exceeded while iterations are still in
    flight, raises {!Watchdog}. *)

val ii : plan -> int
val stages : plan -> int

val default_max_cycles : ii:int -> stages:int -> n_iters:int -> int
(** [max 100_000 ((n_iters + stages + 8) * ii * 8)]: generous slack over
    the stall-free cycle count so bounded-duty stall patterns never trip. *)

val watchdog_diag : engine:string -> cap:int -> Hls_diag.Diag.t
(** The diagnostic carried by {!Watchdog} (shared by both engines). *)

val cell_topo : Hls_ir.Dfg.t -> Hls_core.Pipeline.t -> state:int -> stage:int -> int list
(** Topologically ordered ops of one kernel cell — shared with the
    interpreter so both engines execute cells in the same order. *)

val pre_topo : Hls_ir.Dfg.t -> int list -> int list
(** The given ops in dependency order over the distance-0 edges among
    them (the pre region, or the flat plan's region members). *)
