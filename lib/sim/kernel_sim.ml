(** Cycle-stepped simulator of the {e folded} pipeline.

    Where {!Schedule_sim} executes the dataflow per iteration and derives
    timing analytically, this simulator steps the pipeline controller
    clock by clock:

    - a kernel-state counter cycles through the II states;
    - a stage-validity shift register implements prologue and epilogue
      ("all loop operations are predicated by the corresponding stage
      signals" — Section V);
    - a stall condition freezes the whole pipeline (the paper's "stalling
      loops", re-inserted around the scheduled kernel);
    - a data-dependent exit stops issue and squashes the younger
      iterations in flight, whose port writes never commit.

    Each pipeline stage carries the value context of the iteration
    currently occupying it; loop-carried reads reach the context of the
    iteration [d] issues earlier.  These contexts are ideal (a value stays
    readable until its last reader), so the model is the controller's,
    not the printed Verilog's registers.

    Two engines share the controller semantics bit-for-bit: the reference
    tree-walking interpreter below ([`Interp]) and the compiled plan of
    {!Kernel_compile} ([`Compiled], the default), which specializes the
    design once into closures over a dense value arena.  Agreement of
    both engines with the behavioural golden model and {!Schedule_sim} is
    asserted across the design × micro-architecture test matrix and by
    the randomized {!Equiv.fuzz} gate. *)

open Hls_ir
open Hls_core
open Hls_frontend

type output_event = Kernel_compile.output_event = {
  k_port : string;
  k_iter : int;
  k_cycle : int;
  k_value : int;
}

type result = Kernel_compile.result = {
  k_outputs : output_event list;
  k_iters : int;  (** committed iterations *)
  k_cycles : int;  (** clock cycles stepped, including stalls and drain *)
  k_stall_cycles : int;
  k_squashed : int;  (** iterations issued past the exit and discarded *)
}

exception Watchdog = Kernel_compile.Watchdog

let trunc = Width.truncate

type ctx = {
  elab : Elaborate.t;
  sched : Scheduler.t;
  fold : Pipeline.t;
  stim : Stimulus.t;
  funcs : string -> int list -> int;
  dfg : Dfg.t;
  pre_values : (int, int) Hashtbl.t;
  history : (int, (int, int) Hashtbl.t) Hashtbl.t;  (** iteration -> values *)
}

let history_lookup ctx iter =
  if iter < 0 then None else Hashtbl.find_opt ctx.history iter

let edge_value ctx ~lookup ~iter (e : Dfg.edge) =
  let from_iter = iter - e.Dfg.distance in
  match lookup from_iter with
  | Some tbl when Hashtbl.mem tbl e.Dfg.src -> Hashtbl.find tbl e.Dfg.src
  | _ -> Option.value (Hashtbl.find_opt ctx.pre_values e.Dfg.src) ~default:0

let guard_true ctx ~values (g : Guard.t) =
  List.for_all
    (fun (a : Guard.atom) ->
      let v =
        match Hashtbl.find_opt values a.Guard.pred with
        | Some v -> v
        | None -> Option.value (Hashtbl.find_opt ctx.pre_values a.Guard.pred) ~default:0
      in
      (v <> 0) = a.Guard.polarity)
    g

(** Evaluate one op into [values].  [lookup] resolves the value table of a
    given iteration: the per-iteration history in the main loop, or a
    constant [pre_values] view for the pre region (where every operand
    resolves against the already-evaluated pre context — the same
    convention {!Schedule_sim} uses). *)
let eval_op ctx ~lookup ~iter ~values (op : Dfg.op) =
  let ins = Dfg.in_edges ctx.dfg op.Dfg.id in
  let arg i = edge_value ctx ~lookup ~iter (List.nth ins i) in
  let args () = List.map (edge_value ctx ~lookup ~iter) ins in
  let v =
    match op.Dfg.kind with
    | Opkind.Read p -> Stimulus.value ctx.stim ~port:p ~iter
    | Opkind.Const n -> n
    | Opkind.Loop_mux -> if iter = 0 then arg 0 else arg 1
    | Opkind.Write _ -> arg 0
    | Opkind.Call c -> ctx.funcs c.Opkind.callee (args ())
    | Opkind.Concat ->
        let a = arg 0 and b = arg 1 in
        let wb = (Dfg.find ctx.dfg (List.nth ins 1).Dfg.src).Dfg.width in
        (a lsl wb) lor (b land ((1 lsl wb) - 1))
    | Opkind.Sext _ -> arg 0
    | k -> (
        match Opkind.eval_pure k (args ()) with
        | Some v -> v
        | None -> invalid_arg ("Kernel_sim: cannot evaluate " ^ Opkind.to_string k))
  in
  Hashtbl.replace values op.Dfg.id (trunc ~width:op.Dfg.width v)

let cell_order ctx ~state ~stage = Kernel_compile.cell_topo ctx.dfg ctx.fold ~state ~stage

(** The reference interpreter: re-derives cell orders per cycle and keeps
    per-iteration hashtable contexts.  Kept as the executable
    specification the compiled engine is diffed against. *)
let run_interp ?(funcs = Behav.default_fun) ?max_iters ?max_cycles
    ?(stall_pattern = fun _ -> true) (elab : Elaborate.t) (sched : Scheduler.t)
    (stim : Stimulus.t) : result =
  let fold = Pipeline.fold sched in
  let dfg = elab.Elaborate.cdfg.Cdfg.dfg in
  let ctx =
    { elab; sched; fold; stim; funcs; dfg; pre_values = Hashtbl.create 32;
      history = Hashtbl.create 16 }
  in
  (* pre-region evaluated once, as the init state of the FSM would; the
     shared [eval_op] resolves every operand against the pre context *)
  let pre_lookup _ = Some ctx.pre_values in
  List.iter
    (fun id ->
      eval_op ctx ~lookup:pre_lookup ~iter:0 ~values:ctx.pre_values (Dfg.find dfg id))
    (Kernel_compile.pre_topo dfg elab.Elaborate.pre_members);
  let region = sched.Scheduler.s_region in
  let ii = fold.Pipeline.f_ii in
  let stages = fold.Pipeline.f_stages in
  let n_iters = min (Option.value max_iters ~default:stim.Stimulus.n_iters) stim.Stimulus.n_iters in
  let cap =
    match max_cycles with
    | Some c -> c
    | None -> Kernel_compile.default_max_cycles ~ii ~stages ~n_iters
  in
  (* controller state *)
  let stage_iter = Array.make stages (-1) in
  (* iteration id occupying each stage, -1 = bubble *)
  let issued = ref 0 in
  let committed = ref 0 in
  let squashed = ref 0 in
  let stalls = ref 0 in
  let cycle = ref 0 in
  let kernel_state = ref 0 in
  let outputs = ref [] in
  let stop_issue = ref false in
  let exit_at = ref None in
  (* iteration slots begin with stage 0 occupied by iteration 0, unless
     the stimulus is empty *)
  if n_iters > 0 then begin
    stage_iter.(0) <- 0;
    issued := 1
  end;
  let max_distance =
    List.fold_left (fun acc e -> max acc e.Dfg.distance) 1 (Dfg.all_edges dfg)
  in
  let lookup = history_lookup ctx in
  let active () = Array.exists (fun i -> i >= 0) stage_iter in
  let guard_cycles = ref 0 in
  while active () do
    incr guard_cycles;
    if !guard_cycles > cap then
      raise (Watchdog (Kernel_compile.watchdog_diag ~engine:"interpreted" ~cap));
    (* design-level stall: evaluate the stall condition against the oldest
       active iteration's context (the controller's view) *)
    let design_go =
      match region.Region.stall_cond with
      | None -> true
      | Some c -> (
          (* the stall condition is computed combinationally from the
             current inputs of the newest iteration in flight *)
          let iter = Array.fold_left max (-1) stage_iter in
          if iter < 0 then true
          else
            let v =
              match Hashtbl.find_opt ctx.history iter with
              | Some tbl when Hashtbl.mem tbl c -> Hashtbl.find tbl c
              | _ ->
                  (* not yet computed this iteration: evaluate directly *)
                  let op = Dfg.find dfg c in
                  let values =
                    match Hashtbl.find_opt ctx.history iter with
                    | Some t -> t
                    | None ->
                        let t = Hashtbl.create 8 in
                        Hashtbl.replace ctx.history iter t;
                        t
                  in
                  eval_op ctx ~lookup ~iter ~values op;
                  Hashtbl.find values c
            in
            v <> 0)
    in
    if not (stall_pattern !cycle && design_go) then begin
      incr stalls;
      incr cycle
    end
    else begin
      (* execute every active stage's cell for this kernel state *)
      Array.iteri
        (fun sg iter ->
          if iter >= 0 then begin
            let values =
              match Hashtbl.find_opt ctx.history iter with
              | Some t -> t
              | None ->
                  let t = Hashtbl.create 32 in
                  Hashtbl.replace ctx.history iter t;
                  t
            in
            List.iter
              (fun id ->
                let op = Dfg.find dfg id in
                eval_op ctx ~lookup ~iter ~values op;
                match op.Dfg.kind with
                | Opkind.Write p when guard_true ctx ~values op.Dfg.guard ->
                    outputs :=
                      { k_port = p; k_iter = iter; k_cycle = !cycle; k_value = Hashtbl.find values id }
                      :: !outputs
                | _ -> ())
              (cell_order ctx ~state:!kernel_state ~stage:sg);
            (* data-dependent exit evaluated in the stage that computes it *)
            match region.Region.continue_cond with
            | Some c when Hashtbl.mem values c && !exit_at = None ->
                if Hashtbl.find values c = 0 then begin
                  exit_at := Some iter;
                  stop_issue := true
                end
            | _ -> ()
          end)
        stage_iter;
      (* advance the kernel state; on wrap, shift stages and issue *)
      incr cycle;
      if !kernel_state = ii - 1 then begin
        kernel_state := 0;
        (* retire the oldest stage, squashing iterations past the exit *)
        (match !exit_at with
        | Some e ->
            Array.iteri
              (fun sg iter ->
                if iter > e then begin
                  stage_iter.(sg) <- -1;
                  incr squashed
                end)
              stage_iter
        | None -> ());
        let oldest = stages - 1 in
        if stage_iter.(oldest) >= 0 then begin
          incr committed;
          (* drop history beyond the carried horizon *)
          let retired = stage_iter.(oldest) in
          if retired - max_distance >= 0 then Hashtbl.remove ctx.history (retired - max_distance)
        end;
        for sg = stages - 1 downto 1 do
          stage_iter.(sg) <- stage_iter.(sg - 1)
        done;
        stage_iter.(0) <-
          (if (not !stop_issue) && !issued < n_iters then begin
             let i = !issued in
             incr issued;
             i
           end
           else -1)
      end
      else incr kernel_state
    end
  done;
  (* squashed iterations' outputs never commit *)
  let cutoff = match !exit_at with Some e -> e | None -> max_int in
  let outputs =
    List.filter (fun o -> o.k_iter <= cutoff) (List.rev !outputs)
  in
  {
    k_outputs = outputs;
    k_iters = !committed;
    k_cycles = !cycle;
    k_stall_cycles = !stalls;
    k_squashed = !squashed;
  }

(** Step the folded pipeline.  [stall_pattern cycle] returns [true] when
    the external stall condition allows progress at [cycle] (defaults to
    always-go; the design's own [stall_until] condition is also honoured
    when its ops evaluate false).  [engine] selects the compiled plan
    (default) or the reference interpreter; both produce identical
    results. *)
let run ?funcs ?max_iters ?max_cycles ?stall_pattern ?(engine = `Compiled)
    (elab : Elaborate.t) (sched : Scheduler.t) (stim : Stimulus.t) : result =
  match engine with
  | `Interp -> run_interp ?funcs ?max_iters ?max_cycles ?stall_pattern elab sched stim
  | `Compiled ->
      let fold = Pipeline.fold sched in
      let plan = Kernel_compile.compile elab sched fold in
      Kernel_compile.run ?funcs ?max_iters ?max_cycles ?stall_pattern plan stim

let port_values (r : result) port =
  r.k_outputs
  |> List.filter (fun o -> o.k_port = port)
  |> List.sort (fun a b -> compare (a.k_iter, a.k_cycle) (b.k_iter, b.k_cycle))
  |> List.map (fun o -> o.k_value)
