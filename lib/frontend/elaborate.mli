(** Elaboration: lowered {!Ast.design} → {!Hls_ir.Cdfg.t} (one DFG plus
    its ports) and region membership — the paper's elaboration step
    (Fig. 2/3).  The [wait()] boundaries make no graph of their own: they
    count the loop body's source latency ([li_waits]) and, in timed mode,
    anchor each port op to its wait state.

    Wait-free conditionals are predicate-converted on the fly: branch
    operations carry {!Hls_ir.Guard} atoms over the 1-bit-normalized
    condition and joins merge with muxes (Fig. 4b); wait-bearing
    conditionals were already flattened by {!Desugar}.  Loop-carried
    variables become [Loop_mux] ops whose port 1 is a distance-1 edge —
    Fig. 3(b)'s [loopMux].

    Per-iteration I/O semantics: one [Read] per port per iteration scope
    (reads are speculation-safe and unconditional); writes keep their
    guard and commit conditionally. *)

open Hls_ir

exception Error of Fault.t
(** Alias of {!Fault.Error}. *)

type loop_info = {
  li_attrs : Ast.loop_attrs;
  li_members : int list;  (** DFG ops scheduled inside the loop body *)
  li_continue : int option;  (** continue-while-nonzero op; [None] = infinite *)
  li_stall : int option;
  li_waits : int;  (** source latency: waits in the body *)
  li_carried : (string * int) list;  (** variable -> its [Loop_mux] op *)
  li_exit_env : (string * int) list;  (** carried values at loop exit *)
}

type t = {
  cdfg : Cdfg.t;
  source : Ast.design;  (** the lowered design (input to the simulators) *)
  pre_members : int list;
  loop : loop_info option;
  post_members : int list;
  nest : Region.nest option;  (** set when the frontend flattened a loop nest *)
}

val design : ?timed:bool -> ?nest:Desugar.nest_mode -> Ast.design -> t
(** Desugar, check and elaborate.  [timed] pins I/O ops to their source
    wait states; the default untimed mode lets the scheduler re-time
    everything, as in the paper's worked examples.  [nest] selects the
    loop-nest lowering (default [`Flatten]).
    @raise Fault.Error on any frontend problem. *)

val main_region : ?ii:int -> ?min_latency:int -> ?max_latency:int -> t -> Region.t
(** The main loop (or, absent one, the whole design) as a scheduling
    region; [ii] requests pipelining, bounds default to the loop
    attributes.  A flattened loop nest annotates the region with
    {!Region.nest}. *)
