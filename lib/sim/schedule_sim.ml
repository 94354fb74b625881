(** Simulator of a scheduled (and folded) design, one whole iteration at a
    time.

    Runs the elaborated DFG on {!Kernel_compile}'s register machine as a
    flat plan: pre-region operations once, then all region members of
    iteration [i] in dependency order, with loop-carried values flowing
    across distance-[d] edges and guards gating port-write commits.  Each
    iteration keeps its own ideal value context (every value stays
    readable until its last reader), so this models the schedule's
    dataflow, not the registers of the printed Verilog.  The folded
    pipeline's timing is reconstructed analytically: iteration [i] of a
    pipeline with initiation interval II issues at cycle [i * II], and an
    operation scheduled on step [s] of iteration [i] executes at cycle
    [i * II + s].

    Data-dependent loop exits behave speculatively: when iteration [i]
    computes a false continue condition, the younger iterations already in
    flight are squashed — they consume cycles but their port writes are
    suppressed.  The simulator reports both the committed outputs (for
    equivalence against {!Behav}) and the cycle counts (for throughput and
    power accounting).

    Execution counts per operation feed the activity-based power model.
    They follow from the run: every pre-region op executes once and every
    region member once per committed iteration. *)

open Hls_ir
open Hls_core
open Hls_frontend

type output_event = { o_port : string; o_iter : int; o_cycle : int; o_value : int }

type result = {
  r_outputs : output_event list;  (** committed writes, by (cycle, port) *)
  r_iters : int;  (** committed main-loop iterations *)
  r_cycles : int;  (** total cycles from first issue to pipeline drain *)
  r_issued : int;  (** iterations issued, including squashed ones *)
  r_exec_counts : (int, int) Hashtbl.t;  (** op -> number of executions *)
}

(** Run the simulation.  [max_iters] caps infinite loops; data-dependent
    exits stop earlier. *)
let run ?funcs ?max_iters (elab : Elaborate.t) (sched : Scheduler.t) (stim : Stimulus.t) : result =
  let dfg = elab.Elaborate.cdfg.Cdfg.dfg in
  let region = sched.Scheduler.s_region in
  let ii = Region.ii region in
  let li = sched.Scheduler.s_li in
  let members = List.map (fun o -> o.Dfg.id) (Region.member_ops region) in
  let order = Kernel_compile.pre_topo dfg members in
  let plan =
    Kernel_compile.compile_cells elab sched ~ii:1 ~stages:1 ~cell:(fun ~state:_ ~stage:_ -> order)
  in
  Kernel_compile.start ?funcs plan stim;
  let step_of id =
    match Scheduler.placement sched id with Some pl -> pl.Binding.pl_step | None -> li - 1
  in
  let n_iters = min (Option.value max_iters ~default:stim.Stimulus.n_iters) stim.Stimulus.n_iters in
  let outputs = ref [] in
  let committed = ref 0 in
  let exited = ref false in
  while (not !exited) && !committed < n_iters do
    let i = !committed in
    Kernel_compile.exec_cell plan ~state:0 ~stage:0 i (fun id port v ->
        outputs := { o_port = port; o_iter = i; o_cycle = (i * ii) + step_of id; o_value = v } :: !outputs);
    incr committed;
    match region.Region.continue_cond with
    | Some c when not (Kernel_compile.stamped_nonzero plan ~iter:i c) -> exited := true
    | _ -> ()
  done;
  (* pipeline squash accounting: the exit is detected at the step where
     the continue condition finishes; younger iterations already issued by
     then are squashed *)
  let squashed =
    match region.Region.continue_cond with
    | Some c when !exited && Region.is_pipelined region ->
        let cond_step =
          match Scheduler.placement sched c with Some pl -> pl.Binding.pl_finish | None -> li - 1
        in
        min (cond_step / ii) (n_iters - !committed)
    | _ -> 0
  in
  let counts = Array.make (Dfg.size dfg) 0 in
  List.iter (fun id -> counts.(id) <- counts.(id) + 1) elab.Elaborate.pre_members;
  List.iter (fun id -> counts.(id) <- counts.(id) + !committed) members;
  let exec_counts = Hashtbl.create 64 in
  Array.iteri (fun id n -> if n > 0 then Hashtbl.replace exec_counts id n) counts;
  {
    r_outputs = List.rev !outputs;
    r_iters = !committed;
    r_cycles = (if !committed = 0 then 0 else ((!committed - 1 + squashed) * ii) + li);
    r_issued = !committed + squashed;
    r_exec_counts = exec_counts;
  }

let port_values (r : result) port =
  List.filter_map (fun o -> if o.o_port = port then Some o.o_value else None) r.r_outputs
