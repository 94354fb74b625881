(** The pass scheduler (Fig. 7) and the outer relaxation loop.

    A pass walks the control steps of the linear region in order.  At each
    step it repeatedly picks the highest-priority ready operation and tries
    to bind it to a compatible resource instance, with every candidate
    binding vetted by the netlist timing model in {!Binding}.  An operation
    that cannot be bound is deferred to a later step, unless the step is the
    last of its life span — then it joins [Failed_ops] and the pass will
    fail after recording restraints.

    The outer loop implements "iterative simultaneous scheduling and
    binding passes": on failure the {!Expert} system relaxes constraints
    (add state / add resource / move SCC / forbid pair) and the
    pass re-runs, up to [max_passes].

    Pipelining needs only the two extensions of Section V: busy tables keyed
    by equivalence classes of steps (handled inside {!Binding}) and SCC
    stage windows (handled here), so the same pass code serves sequential
    and pipelined regions. *)

open Hls_ir
open Hls_techlib

(* --- region-parallel analysis ---------------------------------------
   Each SCC's recurrence check is pure (graph reads + library lookups
   only), so on regions with many SCCs the checks fan out over
   {!Hls_pool.Pool.map}; results come back in SCC index order, so the
   outcome is identical for every worker count. *)

let analysis_jobs = Atomic.make 1

let set_jobs n = Atomic.set analysis_jobs (Int.max 1 n)

type options = {
  timing_aware : bool;
  scc_move : bool;
      (** [false] is the Table 4 ablation: the expert never moves an SCC,
          and SCC members are bound at their window even with negative
          slack, leaving the violation for downstream logic synthesis to
          absorb *)
  max_passes : int;
  warm_start : bool;
      (** reuse pass-invariant analysis across relaxation passes, pick ready
          ops through the lazy-deletion heap, and replay the unaffected
          schedule prefix after a local expert action.  Disabling runs the
          plain cold-restart loop: every pass rebuilds its tables,
          recomputes ASAP/ALAP and re-vets every binding from step 0.  That
          loop is the test reference: [test_sched_perf]'s warm-equals-cold
          property checks every observable of the warm path against it. *)
  seed_latency_floor : bool;
      (** start the latency interval at the resource-implied lower bound
          instead of the designer minimum; disable to follow the paper's
          one-state-at-a-time relaxation narrative *)
  max_actions : int;
      (** budget on total relaxation actions across all passes; the loop
          gives up with a typed budget error once it is spent *)
  timeout_s : float option;
      (** wall-clock budget for the whole relaxation loop; checked at the
          top of every pass *)
  hints : Hints.t;
      (** batched constraints applied at schedule start instead of
          discovered one expert action at a time: feedback hints mined
          from an earlier run (lib/feedback), or a user's dedications
          (Section IV.B item 4).  Hints referencing ops, instances or
          SCCs absent from this region are skipped — a hint is advice,
          not a hard constraint. *)
}

let default_options =
  {
    timing_aware = true;
    scc_move = true;
    max_passes = 200;
    warm_start = true;
    seed_latency_floor = true;
    max_actions = 2000;
    timeout_s = None;
    hints = Hints.empty;
  }

type t = {
  s_region : Region.t;
  s_li : int;  (** final latency interval *)
  s_binding : Binding.t;
  s_passes : int;
  s_actions : string list;  (** relaxation actions applied, oldest first *)
  s_scc_stages : (int list * int) list;  (** each SCC's ops with its stage *)
  s_sched_time_s : float;
  s_warm_passes : int;  (** passes that replayed a schedule prefix *)
  s_cold_passes : int;  (** passes re-vetted from step 0 *)
  s_hints_applied : int;  (** feedback hints actually applied at start *)
}

type error = {
  e_message : string;
  e_code : string;  (** stable machine code, e.g. ["overconstrained"] *)
  e_restraints : Restraint.t list;
  e_passes : int;
  e_actions : string list;
  e_budget : Hls_diag.Diag.budget option;  (** which budget tripped, if any *)
}

type stats = {
  st_passes : int;
  st_actions : int;
  st_queries : int;  (** netlist timing queries — the paper's hottest query *)
  st_trials : int;  (** netlist what-if transactions opened *)
  st_commits : int;
  st_rollbacks : int;
  st_visits : int;  (** cells examined by bounded arrival propagation *)
  st_cycle_visits : int;  (** instances visited by the structural-cycle check *)
  st_sched_s : float;
  st_warm_passes : int;  (** passes served by warm-start prefix replay *)
  st_cold_passes : int;  (** passes run from a cold restart *)
  st_hints : int;  (** feedback hints applied at schedule start *)
  st_decisions : Binding.counters;  (** the binder's decision counters *)
}

let stats t =
  let ns = Hls_netlist.Netlist.stats t.s_binding.Binding.net in
  let c = t.s_binding.Binding.ctr in
  {
    st_passes = t.s_passes;
    st_actions = List.length t.s_actions;
    st_queries = ns.Hls_netlist.Netlist.s_queries;
    st_trials = ns.Hls_netlist.Netlist.s_trials;
    st_commits = ns.Hls_netlist.Netlist.s_commits;
    st_rollbacks = ns.Hls_netlist.Netlist.s_rollbacks;
    st_visits = ns.Hls_netlist.Netlist.s_visits;
    st_cycle_visits = ns.Hls_netlist.Netlist.s_cycle_visits;
    st_sched_s = t.s_sched_time_s;
    st_warm_passes = t.s_warm_passes;
    st_cold_passes = t.s_cold_passes;
    st_hints = t.s_hints_applied;
    (* a copy: the counters stay the binder's *)
    st_decisions = { c with Binding.c_bound = c.Binding.c_bound };
  }

(* internal: unwinds the relaxation loop into a typed error *)
exception Give_up of { g_code : string; g_budget : Hls_diag.Diag.budget option; g_message : string }

let placement t op = Binding.placement t.s_binding op

(* ------------------------------------------------------------------ *)

type pass_outcome = Pass_ok | Pass_failed of Restraint.t list

(** One pass-log entry: enough to re-apply the event structurally on a
    warm start.  Binds record the placement the vetted trial committed
    (including the post-merge instance type); restraints record the fail
    so a fresh {!Restraint.t} can be minted (weights are mutated by the
    expert's proximity pass, so the original values must not be reused). *)
type pass_event =
  | Ev_bind of {
      ev_op : int;
      ev_step : int;
      ev_finish : int;
      ev_inst : int option;
      ev_rtype : Resource.t option;
    }
  | Ev_restraint of { ev_op : int; ev_step : int; ev_fail : Restraint.fail; ev_fatal : bool }

let event_step = function Ev_bind e -> e.ev_step | Ev_restraint e -> e.ev_step

(* [Stdlib.max] specialised to floats, same semantics *)
let fmax (a : float) b = if a >= b then a else b

(* the polymorphic [=] on ranges, field by field (a nan arrival is unequal
   to itself, as there) *)
let same_range (a : Asap_alap.range) (b : Asap_alap.range) =
  a.Asap_alap.asap = b.Asap_alap.asap
  && a.Asap_alap.alap = b.Asap_alap.alap
  && a.Asap_alap.asap_arrival = b.Asap_alap.asap_arrival

(* For regions with many independent recurrences (more than 4 SCCs),
   each SCC's stage is pinned from its members' timing-aware ASAP
   estimates instead of from the first (often dependency-free loop-mux)
   placement: one pass instead of one corrective move per SCC.  Regions
   with few SCCs keep the paper's narrative: place first, move on
   failure.  The pass applies the pins to SCCs without a stage; the
   warm-start dirty-step analysis compares them across an SCC move. *)
let asap_stage_pins region aa sccs =
  if List.length sccs <= 4 then None
  else
    let last = region.Region.n_steps - 1 in
    Some
      (List.map
         (fun members ->
           let m =
             List.fold_left (fun acc o -> Int.max acc (Asap_alap.range aa o).Asap_alap.asap) 0 members
           in
           Region.stage_of_step region (Int.min m last))
         sccs)

let run_pass ~opts ~trace ~(ctx : Pass_ctx.t) ~(binding : Binding.t) ~(aa : Asap_alap.t) ~scc_of
    ?(scc_members = ([] : int list list)) ?warm ~scc_stage_base
    ~scc_stage_local (region : Region.t) : pass_outcome * pass_event list =
  let dfg = region.Region.dfg in
  let li = region.Region.n_steps in
  let ii = Region.ii region in
  Binding.reset_pass binding;
  Array.iteri (fun k _ -> scc_stage_local.(k) <- scc_stage_base k) scc_stage_local;
  let restraints = ref [] in
  let log = ref [] in
  let add_restraint ~op ~step ~fail ~fatal =
    restraints := Restraint.make ~op ~step ~fail ~fatal :: !restraints
  in
  (* step-loop restraints enter the pass log (a warm start replays them);
     the up-front window failures and the end-of-pass F_blocked markers are
     recomputed fresh instead, so they are kept out of the log *)
  let add_logged_restraint ~op ~step ~fail ~fatal =
    add_restraint ~op ~step ~fail ~fatal;
    log := Ev_restraint { ev_op = op; ev_step = step; ev_fail = fail; ev_fatal = fatal } :: !log
  in
  let members = ctx.Pass_ctx.ctx_members in
  let n_ids = Array.length ctx.Pass_ctx.ctx_preds in
  (* id-indexed pass state: the ops not yet placed nor failed, and the
     failed ones, each with its count *)
  let unplaced = Array.make n_ids false and n_unplaced = ref ctx.Pass_ctx.ctx_n_members in
  let failed = Array.make n_ids false and n_failed = ref 0 in
  List.iter (fun o -> unplaced.(o.Dfg.id) <- true) members;
  let settle id =
    if unplaced.(id) then begin
      unplaced.(id) <- false;
      decr n_unplaced
    end
  in
  (* --- incremental readiness ---
     [pending.(op)] counts unplaced scheduling predecessors; an op enters
     the ready pool when it reaches zero.  [min_step] tracks the earliest
     step allowed by the placed predecessors (finish step; +1 after a
     multi-cycle producer). *)
  let preds_of = ctx.Pass_ctx.ctx_preds in
  let deps_of = ctx.Pass_ctx.ctx_deps in
  let scores = ctx.Pass_ctx.ctx_scores in
  let pending = Array.make n_ids 0 in
  let min_step = Array.make n_ids 0 in
  let ready = Array.make n_ids false in
  (* [deferred_at.(op) = e]: the op was deferred out of step [e] *)
  let deferred_at = Array.make n_ids (-1) in
  (* the heap mirrors [ready] under lazy deletion: [ready] stays the truth
     set, stale heap entries are discarded on pop *)
  let use_heap = opts.warm_start in
  let heap = Ready_heap.create ~capacity:(Int.max 16 ctx.Pass_ctx.ctx_n_members) () in
  let enter_ready id =
    ready.(id) <- true;
    if use_heap then Ready_heap.push heap ~score:scores.(id) id
  in
  List.iter
    (fun o ->
      let n = List.length preds_of.(o.Dfg.id) in
      pending.(o.Dfg.id) <- n;
      if n = 0 then enter_ready o.Dfg.id)
    members;
  let on_placed op_id =
    ready.(op_id) <- false;
    settle op_id;
    let pl = Option.get (Binding.placement binding op_id) in
    let p_op = Dfg.find dfg op_id in
    let avail =
      if Library.op_latency binding.Binding.lib p_op.Dfg.kind > 1 then pl.Binding.pl_finish + 1
      else pl.Binding.pl_finish
    in
    List.iter
      (fun d ->
        if unplaced.(d) then begin
          min_step.(d) <- Int.max avail min_step.(d);
          let n = pending.(d) - 1 in
          pending.(d) <- n;
          if n = 0 then enter_ready d
        end)
      deps_of.(op_id)
  in
  let drop_failed op_id =
    if not failed.(op_id) then begin
      failed.(op_id) <- true;
      incr n_failed
    end;
    settle op_id;
    ready.(op_id) <- false
  in
  (* ops whose earliest feasible step falls beyond the latency interval can
     never bind in this pass: fail them up front with a window restraint *)
  List.iter
    (fun o ->
      let r = Asap_alap.range aa o.Dfg.id in
      if r.Asap_alap.asap > li - 1 then begin
        add_restraint ~op:o.Dfg.id ~step:(li - 1) ~fail:Restraint.F_window ~fatal:true;
        drop_failed o.Dfg.id
      end)
    members;
  let window_of op_id =
    match scc_of op_id with
    | None -> None
    | Some k -> (
        match scc_stage_local.(k) with
        | None -> None
        | Some stage -> Some (stage * ii, Int.min ((stage * ii) + ii - 1) (li - 1)))
  in
  (match asap_stage_pins region aa scc_members with
  | Some pins ->
      List.iteri
        (fun k stage -> if scc_stage_local.(k) = None then scc_stage_local.(k) <- Some stage)
        pins
  | None -> ());
  let ready_at op step =
    let r = Asap_alap.range aa op.Dfg.id in
    (* in the Table 4 ablation a pinned SCC window overrides the timing
       estimate: the member is offered inside its window even when ASAP
       says it cannot meet timing there — the force-bind absorbs the
       violation *)
    (r.Asap_alap.asap <= step
    || ((not opts.scc_move) && window_of op.Dfg.id <> None))
    && min_step.(op.Dfg.id) <= step
    && (match window_of op.Dfg.id with
       | Some (lo, hi) -> lo <= step && step <= hi
       | None -> true)
    && (match op.Dfg.anchor with Some a -> a = step | None -> true)
  in
  let last_chance op step =
    let r = Asap_alap.range aa op.Dfg.id in
    let alap =
      match window_of op.Dfg.id with
      | Some (_, hi) -> Int.min r.Asap_alap.alap hi
      | None -> r.Asap_alap.alap
    in
    step >= alap || step = li - 1
  in
  (* big-design fast path: when every instance of a resource class is busy
     (or mux-saturated) at a step, sibling unguarded ops of the same class
     defer immediately instead of re-probing each instance.
     [blocked_at.(k) = e]: class key [k] is blocked at step [e] *)
  let use_class_memo = ctx.Pass_ctx.ctx_n_members > 500 in
  let blocked_at = Array.make ctx.Pass_ctx.ctx_n_class_keys (-1) in
  let class_blocked (op : Dfg.op) e =
    let k = ctx.Pass_ctx.ctx_class_key.(op.Dfg.id) in
    k >= 0 && blocked_at.(k) = e
  in
  let log_bind op_id =
    let pl = Option.get (Binding.placement binding op_id) in
    let rt =
      match pl.Binding.pl_inst with
      | Some i -> Some (Binding.find_inst binding i).Binding.rtype
      | None -> None
    in
    log :=
      Ev_bind
        {
          ev_op = op_id;
          ev_step = pl.Binding.pl_step;
          ev_finish = pl.Binding.pl_finish;
          ev_inst = pl.Binding.pl_inst;
          ev_rtype = rt;
        }
      :: !log
  in
  (* pass-local SCC stage assignment on first placement; true when a stage
     was assigned (the heap's ineligible stash is then re-examined — under
     the Table 4 ablation a fresh window can make a member eligible) *)
  let note_scc_placement op_id step =
    match scc_of op_id with
    | Some k when scc_stage_local.(k) = None ->
        scc_stage_local.(k) <- Some (Region.stage_of_step region step);
        true
    | _ -> false
  in
  (* attempt [op] at step [e], updating the pass state exactly as the
     historic inner loop did; true when the bind landed and assigned an
     SCC stage *)
  let try_place (op : Dfg.op) e =
    match Binding.attempt binding op ~step:e with
    | [] ->
        on_placed op.Dfg.id;
        log_bind op.Dfg.id;
        (* the message's arguments cost a placement lookup, a resource
           name and two timing queries: skip them when nobody reads it.
           Under [timing_aware = false] the muxes are still unpriced here,
           so the line shows the binder's mux-blind arrival and slack *)
        (if Option.is_some trace && Opkind.is_resource_op op.Dfg.kind then
           let pl = Option.get (Binding.placement binding op.Dfg.id) in
           Trace.logf ~level:Trace.Debug trace
             "    bound %s to %s at step %d: arrival %.0f ps, slack %.0f ps"
             op.Dfg.name
             (match pl.Binding.pl_inst with
             | Some i -> Resource.to_string (Binding.find_inst binding i).Binding.rtype
                        ^ "#" ^ string_of_int i
             | None -> "wire")
             e
             (Option.value (Hls_timing.Graph.arrival binding.Binding.graph op.Dfg.id) ~default:0.0)
             (Hls_timing.Graph.endpoint_slack binding.Binding.graph op.Dfg.id));
        note_scc_placement op.Dfg.id e
    | fails
      when (not opts.scc_move) && scc_of op.Dfg.id <> None && last_chance op e
           && List.exists (function Restraint.F_slack _ -> true | _ -> false) fails ->
        (* ablation mode: accept the violating binding; the negative
           slack surfaces in the timing report and Table 4's area
           penalty *)
        let inst_opt =
          match Binding.compatible_insts binding op with
          | i :: _ -> Some i.Binding.inst_id
          | [] -> None
        in
        Binding.force_bind binding op ~step:e ~inst_opt;
        on_placed op.Dfg.id;
        log_bind op.Dfg.id;
        note_scc_placement op.Dfg.id e
    | fails ->
        (if
           use_class_memo
           && Guard.is_always op.Dfg.guard
           && List.for_all (function Restraint.F_busy _ -> true | _ -> false) fails
         then
           let k = ctx.Pass_ctx.ctx_class_key.(op.Dfg.id) in
           if k >= 0 then blocked_at.(k) <- e);
        let fatal = last_chance op e in
        (* record the most informative failure of the attempts *)
        let best_fail =
          let score = function
            | Restraint.F_slack _ -> 5
            | Restraint.F_cycle _ -> 4
            | Restraint.F_window | Restraint.F_dep -> 3
            | Restraint.F_busy _ -> 2
            | Restraint.F_no_resource _ -> 2
            | Restraint.F_forbidden -> 1
            | Restraint.F_anchor -> 1
            | Restraint.F_blocked -> 0
          in
          List.fold_left (fun a b -> if score b > score a then b else a) (List.hd fails)
            (List.tl fails)
        in
        add_logged_restraint ~op:op.Dfg.id ~step:e ~fail:best_fail ~fatal;
        if fatal then begin
          if Option.is_some trace then
            Trace.logf ~level:Trace.Warn trace "    op %d (%s) FAILED at step %d: %s" op.Dfg.id
              op.Dfg.name e
              (Restraint.fail_to_string best_fail);
          drop_failed op.Dfg.id
        end
        else deferred_at.(op.Dfg.id) <- e;
        false
  in
  (* --- warm start: replay the unaffected prefix of the previous pass ---
     Every event strictly before the first step the expert's actions can
     touch is re-applied structurally: binds skip vetting entirely (they
     were vetted when first committed, and nothing before the dirty step
     changed), restraints are minted fresh (their weights are mutated by
     the expert's proximity pass).  The replayed binds run the same arrival
     propagation as the committing binds did, so the timing state entering
     the live steps is bit-identical to a cold pass's — but instead of
     propagating arrivals per bind (which re-times each instance's whole
     bound list at every replayed event, a quadratic term on long
     prefixes), the binds mutate structure only and one full fixpoint
     recompute runs after the batch.  The arrival fixpoint is unique
     given the structure, so the single sweep lands on the same state. *)
  let start_step =
    match warm with
    | None -> 0
    | Some (events, s) ->
        let replayed_bind = ref false in
        List.iter
          (fun ev ->
            if event_step ev < s then
              match ev with
              | Ev_bind { ev_op; ev_step; ev_finish; ev_inst; ev_rtype } ->
                  if unplaced.(ev_op) then begin
                    Binding.replay_bind binding ~propagate:false (Dfg.find dfg ev_op)
                      ~step:ev_step ~finish:ev_finish ~inst_opt:ev_inst ~rtype:ev_rtype;
                    replayed_bind := true;
                    log := ev :: !log;
                    on_placed ev_op;
                    ignore (note_scc_placement ev_op ev_step)
                  end
              | Ev_restraint { ev_op; ev_step; ev_fail; ev_fatal } ->
                  add_logged_restraint ~op:ev_op ~step:ev_step ~fail:ev_fail ~fatal:ev_fatal;
                  if ev_fatal then drop_failed ev_op)
          events;
        if !replayed_bind then Hls_timing.Graph.recompute_all binding.Binding.graph;
        s
  in
  for e = start_step to li - 1 do
    let deferred id = deferred_at.(id) = e in
    if use_heap then begin
      (* heap pick: pop in descending (score, -id); stale entries (no
         longer ready) are discarded, entries ineligible at this step are
         stashed and pushed back when the step ends.  The first eligible
         pop is exactly the fold's maximum. *)
      let stash = ref [] in
      let flush_stash () =
        List.iter (fun (s, id) -> Ready_heap.push heap ~score:s id) !stash;
        stash := []
      in
      let continue_step = ref true in
      while !continue_step do
        match Ready_heap.pop heap with
        | None -> continue_step := false
        | Some (s, id) ->
            if ready.(id) then
              if deferred id then stash := (s, id) :: !stash
              else
                let op = Dfg.find dfg id in
                if not (ready_at op e) then stash := (s, id) :: !stash
                else if
                  use_class_memo
                  && Guard.is_always op.Dfg.guard
                  && class_blocked op e
                  && not (last_chance op e)
                then begin
                  deferred_at.(id) <- e;
                  stash := (s, id) :: !stash
                end
                else begin
                  let scc_assigned = try_place op e in
                  if deferred id then stash := (s, id) :: !stash;
                  if scc_assigned then flush_stash ()
                end
      done;
      flush_stash ()
    end
    else begin
      (* reference pick ([warm_start = false]): one O(|ready|) fold per
         extraction, which the heap pick above must match *)
      let continue_step = ref true in
      while !continue_step do
        let best = ref None in
        Array.iteri
          (fun id is_ready ->
            if is_ready && not (deferred id) then
              let op = Dfg.find dfg id in
              if ready_at op e then
                let s = scores.(id) in
                match !best with
                | Some ((bs : float), bop) when bs > s || (bs = s && -bop.Dfg.id >= -id) -> ()
                | _ -> best := Some (s, op))
          ready;
        match !best with
        | None -> continue_step := false
        | Some (_, op)
          when use_class_memo
               && Guard.is_always op.Dfg.guard
               && class_blocked op e
               && not (last_chance op e) ->
            deferred_at.(op.Dfg.id) <- e
        | Some (_, op) -> ignore (try_place op e)
      done
    end
  done;
  (* ops never placed and never directly failed were blocked upstream *)
  Array.iter
    (fun id ->
      if unplaced.(id) then begin
        let r = Restraint.make ~op:id ~step:(li - 1) ~fail:Restraint.F_blocked ~fatal:false in
        r.Restraint.r_weight <- 0.5;
        restraints := r :: !restraints
      end)
    ctx.Pass_ctx.ctx_blocked_order;
  let outcome =
    if !n_failed = 0 && !n_unplaced = 0 then Pass_ok
    else
      (* deferral restraints of ops that eventually placed are noise: the
         relaxation decision is driven by the ops the pass actually lost *)
      Pass_failed
        (List.rev !restraints
        |> List.filter (fun (r : Restraint.t) -> not (Binding.is_placed binding r.Restraint.r_op)))
  in
  (outcome, List.rev !log)

(* ------------------------------------------------------------------ *)

(** Schedule (and bind) a region.  The initial resource set is estimated at
    the latency upper bound (the paper's "3 multiplies are to be scheduled
    in at most 3 states" reasoning), then passes run from the latency lower
    bound upward under expert-guided relaxation. *)
let schedule ?(opts = default_options) ?trace ~(lib : Library.t) ~clock_ps (region : Region.t) :
    (t, error) result =
  let t0 = Unix.gettimeofday () in
  let dfg = region.Region.dfg in
  let binding = Binding.create ~timing_aware:opts.timing_aware ~lib ~clock_ps region in
  (* --- initial resource set, estimated at the latency upper bound; the
     interval analysis's graph tables and forward sweep are shared by
     every [Asap_alap.compute] of this call whatever the latency
     interval --- *)
  let plan = Asap_alap.plan ~lib ~clock_ps region in
  let initial = Alloc.initial ~plan ~lib ~clock_ps region in
  List.iter
    (fun (rt, n, _) ->
      for _ = 1 to n do
        ignore (Binding.add_inst binding rt)
      done)
    initial;
  if Option.is_some trace then
    Trace.logf trace "initial resources: %s"
      (String.concat ", "
         (List.map (fun (rt, n, _) -> Printf.sprintf "%dx %s" n (Resource.to_string rt)) initial));
  (* seed the latency interval at the resource-implied lower bound, so the
     relaxation loop does not add those unavoidable states one at a time *)
  if opts.seed_latency_floor && not (Region.is_pipelined region) then begin
    let floor = Alloc.latency_floor initial in
    if floor > region.Region.n_steps && floor <= region.Region.max_steps then
      Region.reset_steps region floor
  end;
  (* --- SCC bookkeeping for pipelined regions --- *)
  let sccs = if Region.is_pipelined region then Region.sccs region else [] in
  let scc_idx = Array.make (Array.length region.Region.members) None in
  List.iteri (fun k ops -> List.iter (fun o -> scc_idx.(o) <- Some k) ops) sccs;
  let scc_of op = if op >= 0 && op < Array.length scc_idx then scc_idx.(op) else None in
  let scc_persist = Array.make (List.length sccs) None in
  let scc_stage_local = Array.make (List.length sccs) None in
  let scc_moves = Array.make (List.length sccs) 0 in
  (* --- hints: batched constraints from an earlier schedule of this (or a
     neighboring) design, applied up front so the relaxation loop starts
     where the previous run converged.  Every hint is vetted against this
     region and stale op/inst/SCC references are skipped.  The store
     yields keys in constructor order, so each forbid is vetted against
     the instances that exist before any floor adds one.  Floors keep the
     largest count per resource type and the smallest latency, so they
     are gathered here and applied after the fold. *)
  let hints_applied = ref 0 in
  let hint () = incr hints_applied in
  let n_insts = Hls_netlist.Netlist.n_insts binding.Binding.net in
  let boosts = ref [] in
  let floors = ref [] in
  let latency_floor = ref None in
  List.iter
    (fun ((h : Hints.hint), e) ->
      match h with
      | Boost op when Dfg.mem dfg op ->
          boosts := (op, Hints.boost_delta e) :: !boosts;
          hint ()
      | Dedicate op when Dfg.mem dfg op -> Binding.dedicate binding op
      | Forbid (op, inst) when Dfg.mem dfg op && inst >= 0 && inst < n_insts ->
          Binding.forbid binding ~op ~inst;
          hint ()
      | Scc_stage (k, stage) when k >= 0 && k < Array.length scc_persist ->
          if scc_persist.(k) = None then hint ();
          scc_persist.(k) <- Some (Int.max stage (Option.value scc_persist.(k) ~default:0))
      | Resource_floor (rt, n) ->
          let prev, others = List.partition (fun (r, _) -> Resource.equal r rt) !floors in
          let prev = match prev with [ (_, p) ] -> p | _ -> 0 in
          floors := (rt, Int.max prev n) :: others
      | Latency_floor li ->
          latency_floor := Some (Option.fold ~none:li ~some:(Int.min li) !latency_floor)
      | Boost _ | Dedicate _ | Forbid _ | Scc_stage _ -> ())
    (Hints.to_list opts.hints);
  List.iter
    (fun ((rt : Resource.t), n) ->
      let have =
        List.fold_left
          (fun acc (i : Binding.inst) -> if Resource.equal i.Binding.rtype rt then acc + 1 else acc)
          0
          (Hls_netlist.Netlist.insts binding.Binding.net)
      in
      if n > have then begin
        for _ = 1 to n - have do
          ignore (Binding.add_inst ~added_by_expert:true binding rt)
        done;
        hint ()
      end)
    (List.sort
       (fun (r, (n : int)) (r', n') ->
         match Resource.compare r r' with 0 -> Int.compare n n' | c -> c)
       !floors);
  (match !latency_floor with
  | Some floor when not (Region.is_pipelined region) ->
      let floor = Int.min floor region.Region.max_steps in
      if floor > region.Region.n_steps then begin
        Region.reset_steps region floor;
        hint ()
      end
  | _ -> ());
  (* early recurrence feasibility (RecMII analogue): an SCC whose longest
     internal combinational chain cannot be registered apart within its
     II-state stage window can never be scheduled at this II *)
  let rec_check k scc =
    (* SCCs are disjoint, so [scc_idx] is every SCC's member table at once
       and the concurrent checks only read it *)
    let member o = match scc_of o with Some k' -> k' = k | None -> false in
    let succs id =
      List.filter_map
        (fun e ->
          let is_select =
            e.Dfg.port = 0
            && match (Dfg.find dfg e.Dfg.dst).Dfg.kind with Opkind.Mux -> true | _ -> false
          in
          if e.Dfg.distance = 0 && member e.Dfg.dst && not is_select then
            Some e.Dfg.dst
          else None)
        (Dfg.out_edges dfg id)
    in
    let weight id = Asap_alap.op_delay lib dfg (Dfg.find dfg id) in
    match Graph_algo.longest_path ~nodes:scc ~succs ~weight with
    | exception Invalid_argument _ -> false (* an internal distance-0 cycle is caught elsewhere *)
    | dist ->
        let chain = List.fold_left (fun acc (_, v) -> fmax acc v) 0.0 dist in
        let usable =
          clock_ps -. lib.Library.ff_clk_q -. lib.Library.ff_setup
          -. (if Region.ii region = 1 then 0.0 else Library.mux_delay lib ~inputs:2)
        in
        let min_states = int_of_float (ceil (chain /. fmax 1.0 usable)) in
        min_states > Region.ii region
  in
  (* each SCC's recurrence check is independent of every other's, so
     with 8 or more SCCs the checks fan out over the domain pool; the
     filter below consumes the flags in SCC index order, keeping the
     result (and every downstream decision) identical for any worker
     count *)
  let scc_arr = Array.of_list sccs in
  let jobs = if Array.length scc_arr >= 8 then Atomic.get analysis_jobs else 1 in
  let rec_flags =
    Hls_pool.Pool.map ~jobs
      (fun k -> rec_check k scc_arr.(k))
      (Array.init (Array.length scc_arr) Fun.id)
  in
  let rec_infeasible = List.filteri (fun k _ -> rec_flags.(k)) sccs in
  let actions = ref [] in
  let n_actions = ref 0 in
  let result = ref None in
  let passes = ref 0 in
  (* --- warm-start state ---
     [ctx0] is the pass-invariant analysis, hoisted out of the pass; the
     aa cache keeps ASAP/ALAP across passes whose actions cannot move it
     (forbid / add-resource); [prev_log]+[next_warm] carry the
     previous pass's event log and the first step the latest actions can
     affect, enabling prefix replay.  With [warm_start = false] none of
     this is consulted: every pass rebuilds its tables and recomputes the
     interval analysis — the reference the warm path is tested against. *)
  let ctx0 = if opts.warm_start then Some (Pass_ctx.create ~plan region) else None in
  let aa_cache = ref None in
  let prev_log = ref None in
  let next_warm = ref None in
  let warm_passes = ref 0 in
  let cold_passes = ref 0 in
  (* length of the current add_state streak: drives the geometric
     latency stepping below *)
  let consecutive_add_state = ref 0 in
  (try
     if rec_infeasible <> [] then
       raise
         (Give_up
            {
              g_code = "recurrence_infeasible";
              g_budget = None;
              g_message =
                Printf.sprintf
                  "recurrence infeasible: %d SCC(s) need more than II=%d states for their internal \
                   chains (raise II or the clock period)"
                  (List.length rec_infeasible) (Region.ii region);
            });
     while !result = None do
       incr passes;
       if !passes > opts.max_passes then
         raise
           (Give_up
              {
                g_code = "budget_passes";
                g_budget = Some (Hls_diag.Diag.B_passes opts.max_passes);
                g_message =
                  Printf.sprintf "gave up after %d passes (overconstrained specification)"
                    opts.max_passes;
              });
       (match opts.timeout_s with
       | Some limit when Unix.gettimeofday () -. t0 >= limit ->
           raise
             (Give_up
                {
                  g_code = "budget_wallclock";
                  g_budget = Some (Hls_diag.Diag.B_wallclock limit);
                  g_message =
                    Printf.sprintf "wall-clock budget of %.1f s exceeded after %d passes" limit
                      (!passes - 1);
                })
       | _ -> ());
       let scc_window op =
         match scc_of op with
         | None -> None
         | Some k -> (
             match scc_persist.(k) with
             | None -> None
             | Some stage ->
                 let ii = Region.ii region in
                 Some (stage * ii, (stage * ii) + ii - 1))
       in
       let aa =
         if opts.warm_start then (
           match !aa_cache with
           | Some aa -> aa
           | None ->
               let aa = Asap_alap.compute ~plan ~lib ~clock_ps ~scc_window region in
               aa_cache := Some aa;
               aa)
         else Asap_alap.compute ~plan ~lib ~clock_ps ~scc_window region
       in
       let ctx = match ctx0 with Some c -> c | None -> Pass_ctx.create ~plan region in
       Pass_ctx.refresh_scores ctx ~boosts:!boosts ~aa;
       (* a merge that widened an instance in the last pass changes which
          ops fit it and can flip prealloc-shared flags, which moves
          sharing-mux delays on every step: no prefix of the previous pass
          is replayable then *)
       let prealloc_moved = Binding.refresh_prealloc binding in
       let warm =
         match (!next_warm, !prev_log) with
         | Some s, Some events when not prealloc_moved -> Some (events, s)
         | _ -> None
       in
       next_warm := None;
       (match warm with Some _ -> incr warm_passes | None -> incr cold_passes);
       Trace.logf trace "pass %d: LI=%d, %d resources" !passes region.Region.n_steps
         (Hls_netlist.Netlist.n_insts binding.Binding.net);
       let outcome, pass_log =
         run_pass ~opts ~trace ~ctx ~binding ~aa ~scc_of ~scc_members:sccs ?warm
           ~scc_stage_base:(fun k -> scc_persist.(k))
           ~scc_stage_local region
       in
       (* a timing-unaware pass bound with its sharing muxes unpriced:
          price them now, before the expert's estimates, the feedback
          miner or any report reads an arrival *)
       Hls_timing.Graph.price_muxes binding.Binding.graph;
       prev_log := Some pass_log;
       match outcome with
       | Pass_ok ->
           Trace.logf trace "pass %d: SUCCESS (LI=%d)" !passes region.Region.n_steps;
           result :=
             Some
               (Ok
                  {
                    s_region = region;
                    s_li = region.Region.n_steps;
                    s_binding = binding;
                    s_passes = !passes;
                    s_actions = List.rev !actions;
                    s_scc_stages =
                      List.mapi
                        (fun k ops ->
                          (ops, Option.value scc_stage_local.(k) ~default:0))
                        sccs;
                    s_sched_time_s = Unix.gettimeofday () -. t0;
                    s_warm_passes = !warm_passes;
                    s_cold_passes = !cold_passes;
                    s_hints_applied = !hints_applied;
                  })
       | Pass_failed restraints -> (
           Trace.logf trace "pass %d: failed with %d restraints" !passes (List.length restraints);
           if Option.is_some trace then
             List.iter
               (fun r ->
                 Trace.logf ~level:Trace.Debug trace "    restraint: %s" (Restraint.to_string r))
               restraints;
           let scc_stage k =
             match scc_stage_local.(k) with
             | Some s -> s
             | None -> Option.value scc_persist.(k) ~default:0
           in
           (* stop proposing moves for an SCC that has been bounced around
              without converging *)
           let scc_move = opts.scc_move && not (Array.exists (fun m -> m > 6) scc_moves) in
           match
             Expert.choose_many ~scc_move ~binding ~region
               ~restraints ~sccs ~scc_of ~scc_stage
           with
           | [] ->
               result :=
                 Some
                   (Error
                      {
                        e_message = "no applicable relaxation action: specification overconstrained";
                        e_code = "overconstrained";
                        e_restraints = restraints;
                        e_passes = !passes;
                        e_actions = List.rev !actions;
                        e_budget = None;
                      })
           | chosen ->
             (* classify the round's actions for warm-start eligibility:
                global actions (add-state / add-resource) change what every
                op can do and force a cold pass; local actions (forbid /
                move-SCC) dirty only identifiable ops or windows *)
             let dirty_ops = ref [] in
             let moved_sccs = ref [] in
             let global = ref false in
             let aa_dirty = ref false in
             List.iter
               (fun (action, _) ->
                 match action with
                 | Expert.Add_state ->
                     global := true;
                     aa_dirty := true
                 | Expert.Add_resource _ -> global := true
                 | Expert.Move_scc k ->
                     aa_dirty := true;
                     moved_sccs := k :: !moved_sccs
                 | Expert.Forbid (op, _) -> dirty_ops := op :: !dirty_ops)
               chosen;
             List.iter (fun (action, why) ->
               incr n_actions;
               if !n_actions > opts.max_actions then
                 raise
                   (Give_up
                      {
                        g_code = "budget_actions";
                        g_budget = Some (Hls_diag.Diag.B_actions opts.max_actions);
                        g_message =
                          Printf.sprintf
                            "relaxation action budget of %d exhausted after %d passes"
                            opts.max_actions !passes;
                      });
               Trace.logf trace "  relaxation: %s" why;
               actions := why :: !actions;
               (match action with
               | Expert.Add_state -> incr consecutive_add_state
               | _ -> consecutive_add_state := 0);
               match action with
               | Expert.Add_state ->
                   (* geometric stepping: a long streak of add_state
                      choices means the latency is far from sufficient, so
                      widen in growing increments instead of one state per
                      pass (the schedule quality is unchanged — the pass
                      still packs from step 0 upward) *)
                   let k = Int.max 1 (1 lsl Int.max 0 (!consecutive_add_state - 2)) in
                   let added = ref 0 in
                   while !added < k && Region.add_step region do
                     incr added
                   done;
                   if !added = 0 then
                     result :=
                       Some
                         (Error
                            {
                              e_message = "latency bound reached; cannot add more states";
                              e_code = "latency_bound";
                              e_restraints = restraints;
                              e_passes = !passes;
                              e_actions = List.rev !actions;
                              e_budget = None;
                            })
               | Expert.Add_resource (rt, n) ->
                   for _ = 1 to n do
                     ignore (Binding.add_inst ~added_by_expert:true binding rt)
                   done
               | Expert.Move_scc k ->
                   scc_moves.(k) <- scc_moves.(k) + 1;
                   scc_persist.(k) <- Some (scc_stage k + 1)
               | Expert.Forbid (op, inst) -> Binding.forbid binding ~op ~inst)
               chosen;
             if !aa_dirty then aa_cache := None;
             (* --- first dirty step: the earliest control step the actions
                just applied can influence.  Everything strictly before it
                is replayable.  A dirtied op can never act before its ASAP
                (old or new), so S = min over the dirty set of
                min(asap_old, asap_new).  When the interval analysis moved
                (SCC move), any member whose range changed — and any SCC
                whose pre-pin stage estimate changed — joins the dirty
                set. *)
             if
               opts.warm_start && !result = None && (not !global) && opts.scc_move
             then begin
               let aa_old = aa in
               let aa_new =
                 if !aa_dirty then begin
                   let aa' = Asap_alap.compute ~plan ~lib ~clock_ps ~scc_window region in
                   aa_cache := Some aa';
                   aa'
                 end
                 else aa_old
               in
               let s = ref max_int in
               let consider id =
                 let r_old = Asap_alap.range aa_old id in
                 let r_new = Asap_alap.range aa_new id in
                 s := Int.min !s (Int.min r_old.Asap_alap.asap r_new.Asap_alap.asap)
               in
               List.iter consider !dirty_ops;
               List.iter (fun k -> List.iter consider (List.nth sccs k)) !moved_sccs;
               if aa_new != aa_old then begin
                 List.iter
                   (fun (o : Dfg.op) ->
                     let id = o.Dfg.id in
                     if not (same_range (Asap_alap.range aa_old id) (Asap_alap.range aa_new id))
                     then consider id)
                   ctx.Pass_ctx.ctx_members;
                 (* a moved pre-pin stage estimate dirties the whole SCC
                    even if individual ranges look stable *)
                 match (asap_stage_pins region aa_old sccs, asap_stage_pins region aa_new sccs) with
                 | Some olds, Some news ->
                     List.iteri
                       (fun k (members, (o, n)) ->
                         if scc_persist.(k) = None && o <> n then List.iter consider members)
                       (List.combine sccs (List.combine olds news))
                 | _ -> ()
               end;
               if !s > 0 && !s < max_int then next_warm := Some !s
             end)
     done
   with
  | Give_up g ->
      Trace.logf ~level:Trace.Warn trace "give up: %s" g.g_message;
      result :=
        Some
          (Error
             {
               e_message = g.g_message;
               e_code = g.g_code;
               e_restraints = [];
               e_passes = !passes;
               e_actions = List.rev !actions;
               e_budget = g.g_budget;
             })
  | Failure msg | Invalid_argument msg ->
      (* last-resort conversion: anything a deeper layer still raises
         becomes a typed internal error instead of unwinding the flow *)
      result :=
        Some
          (Error
             {
               e_message = msg;
               e_code = "internal";
               e_restraints = [];
               e_passes = !passes;
               e_actions = List.rev !actions;
               e_budget = None;
             }));
  match !result with Some r -> r | None -> assert false

(** Render the schedule as the paper's Table 2: one row per resource, one
    column per state. *)
let to_table (t : t) : string list list =
  let binding = t.s_binding in
  let dfg = binding.Binding.dfg in
  let insts = Hls_netlist.Netlist.insts binding.Binding.net in
  let header =
    "res \\ state" :: List.init t.s_li (fun i -> Printf.sprintf "s%d" (i + 1))
  in
  let rows =
    List.filter_map
      (fun (inst : Binding.inst) ->
        if inst.Binding.bound = [] then None
        else
          let cells =
            List.init t.s_li (fun step ->
                inst.Binding.bound
                |> List.filter (fun o ->
                       match Binding.placement binding o with
                       | Some pl -> pl.Binding.pl_step = step
                       | None -> false)
                |> List.map (fun o -> (Dfg.find dfg o).Dfg.name)
                |> String.concat ",")
          in
          Some ((Resource.to_string inst.Binding.rtype ^ Printf.sprintf "#%d" inst.Binding.inst_id) :: cells))
      insts
  in
  header :: rows
