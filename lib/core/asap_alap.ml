(** Timing-aware ASAP/ALAP analysis (Section IV.A).

    Unlike classical unit-delay mobility analysis, operation life spans are
    computed "by performing approximate timing analysis on the DFG,
    initially ignoring the sharing multiplexers": the forward pass packs
    chained operations into a control step as long as the accumulated
    combinational delay (plus register setup) fits the clock period, and
    spills to the next step otherwise; the backward pass mirrors it from
    the latency bound.

    Guard predicates are scheduling dependencies: a predicated operation
    commits under a register enable driven by its guard, so the guard op
    must be available no later than the operation's step.

    SCC stage assignments (pipelining) and user anchors clamp the computed
    ranges.  An operation whose clamped range is empty marks the analysis
    infeasible — the signal the relaxation engine uses to add states. *)

open Hls_ir
open Hls_techlib

type range = {
  asap : int;
  alap : int;
  asap_arrival : float;  (** estimated in-step arrival at ASAP placement *)
}

type t = {
  ranges : range option array;  (** by op id; [None] for non-members *)
  infeasible : int list;  (** ops whose range is empty under current LI *)
}

let range t op_id =
  match if op_id >= 0 && op_id < Array.length t.ranges then t.ranges.(op_id) else None with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Asap_alap.range: op %d not analyzed" op_id)

let mobility t op_id =
  let r = range t op_id in
  r.alap - r.asap

(* [Stdlib.max]/[min] specialised to floats, same semantics *)
let fmax (a : float) b = if a >= b then a else b
let fmin (a : float) b = if a <= b then a else b

(** Nominal delay of an op under [lib], ignoring sharing muxes. *)
let op_delay lib dfg (op : Dfg.op) =
  match Resource.of_op dfg op with
  | None -> 0.0 (* wire *)
  | Some rt -> Library.delay lib rt

(** Dependencies that constrain scheduling order: distance-0 data inputs
    plus guard predicates, both restricted to region members. *)
let sched_preds region (op : Dfg.op) =
  let dfg = region.Region.dfg in
  let data =
    List.filter_map
      (fun e ->
        if e.Dfg.distance = 0 && Region.mem region e.Dfg.src then Some e.Dfg.src else None)
      (Dfg.in_edges dfg op.Dfg.id)
  in
  let guards = List.filter (Region.mem region) (Guard.preds op.Dfg.guard) in
  List.sort_uniq Int.compare (data @ guards)

(** Everything {!compute} needs that does not depend on the latency
    interval or the SCC windows: the graph's per-op tables and the forward
    (ASAP) sweep, which reads only the graph, the library and the clock.
    Per-op tables are indexed by op id. *)
type plan = {
  p_clock_ps : float;  (** the clock the forward sweep ran at *)
  p_members : Dfg.op list;  (** region members, ascending id *)
  p_order : int list;  (** members in topological order *)
  p_rtype : Resource.t option array;  (** {!Resource.of_op} *)
  p_delay : float array;  (** {!op_delay} *)
  p_lat : int array;  (** {!Library.op_latency} *)
  p_preds : int list array;  (** {!sched_preds} *)
  p_succs : (int * bool) list array;  (** consumers, [true] = guard edge *)
  p_asap : int array;  (** the forward sweep's step *)
  p_asap_arrival : float array;  (** the forward sweep's in-step arrival there *)
}

(* The forward (ASAP) sweep: op -> step, and op -> in-step arrival there *)
let forward pl ~(lib : Library.t) ~clock_ps (region : Region.t) =
  let dfg = region.Region.dfg in
  let n = Array.length region.Region.members in
  let overhead = lib.Library.ff_setup in
  let ff = lib.Library.ff_clk_q in
  (* op -> step, finish step, out arrival, multi-cycle; unset ops read as
     registered inputs available at step 0 *)
  let f_step = Array.make n 0 and f_fin = Array.make n 0 in
  let f_arr = Array.make n ff and f_multi = Array.make n false in
  List.iter
    (fun id ->
      let d = pl.p_delay.(id) in
      let lat = pl.p_lat.(id) in
      let preds = pl.p_preds.(id) in
      let op = Dfg.find dfg id in
      let guard_preds = List.filter (Region.mem region) (Guard.preds op.Dfg.guard) in
      let data_preds = List.filter (fun p -> not (List.exists (Int.equal p) guard_preds)) preds in
      (* earliest step considering register crossings of multi-cycle preds *)
      let min_step =
        List.fold_left
          (fun acc p -> Int.max acc (if f_multi.(p) then f_fin.(p) + 1 else f_fin.(p)))
          0 preds
      in
      let arr_at step p = if (not f_multi.(p)) && f_fin.(p) = step then f_arr.(p) else ff in
      let rec settle step =
        let in_arr =
          List.fold_left
            (fun acc p -> fmax acc (arr_at step p))
            (if data_preds = [] then
               match op.Dfg.kind with
               | Opkind.Const _ -> 0.0
               | _ -> ff
             else 0.0)
            data_preds
        in
        let out = in_arr +. d in
        (* the guard gates the commit enable in parallel with the datapath *)
        let commit =
          List.fold_left (fun acc p -> fmax acc (arr_at step p)) out guard_preds
        in
        if lat > 1 then (step, out) (* multi-cycle: occupies whole steps *)
        else if commit +. overhead <= clock_ps then (step, out)
        else if in_arr <= ff +. 0.001
                && List.for_all (fun p -> arr_at step p <= ff +. 0.001) guard_preds
        then
          (* already starts from registers; the op alone does not fit — the
             binder will face the same wall, keep the optimistic estimate *)
          (step, out)
        else settle (step + 1)
      in
      let step, out = settle min_step in
      f_step.(id) <- step;
      f_fin.(id) <- step + lat - 1;
      f_arr.(id) <- out;
      f_multi.(id) <- lat > 1)
    pl.p_order;
  (f_step, f_arr)

(* The backward (ALAP) sweep from the latency interval [li]: op -> ALAP
   start step *)
let backward pl ~(lib : Library.t) ~clock_ps ~li (region : Region.t) =
  let n = Array.length region.Region.members in
  let overhead = lib.Library.ff_setup in
  let ff = lib.Library.ff_clk_q in
  (* op -> ALAP start step, required output time *)
  let b_start = Array.make n (li - 1) and b_req = Array.make n (clock_ps -. overhead) in
  List.iter
    (fun id ->
      let d = pl.p_delay.(id) in
      let lat = pl.p_lat.(id) in
      let cons = pl.p_succs.(id) in
      let alap_start, req =
        if cons = [] then (li - 1, clock_ps -. overhead)
        else
          List.fold_left
            (fun (acc_step, acc_req) (c, is_guard) ->
              let c_lat = pl.p_lat.(c) in
              let c_start = b_start.(c) and c_req = b_req.(c) in
              let cand_step, cand_req =
                if c_lat > 1 || lat > 1 then (c_start - lat, clock_ps -. overhead)
                else
                  (* deadline for our output: a guard must settle by the
                     consumer's commit time, data by the consumer's input
                     time (its output deadline minus its delay) *)
                  let budget = if is_guard then c_req else c_req -. pl.p_delay.(c) in
                  if budget -. d >= ff then (c_start, budget)
                  else (c_start - 1, clock_ps -. overhead)
              in
              ( Int.min acc_step cand_step,
                if cand_step < acc_step then cand_req else fmin acc_req cand_req ))
            (max_int, clock_ps -. overhead)
            cons
      in
      b_start.(id) <- alap_start;
      b_req.(id) <- req)
    (List.rev pl.p_order);
  b_start

let plan ~(lib : Library.t) ~clock_ps (region : Region.t) =
  let dfg = region.Region.dfg in
  let members = Region.member_ops region in
  let n = Array.length region.Region.members in
  let p_rtype = Array.make n None and p_delay = Array.make n 0.0 and p_lat = Array.make n 1 in
  let p_preds = Array.make n [] and p_succs = Array.make n [] in
  List.iter
    (fun (op : Dfg.op) ->
      let id = op.Dfg.id in
      let rt = Resource.of_op dfg op in
      p_rtype.(id) <- rt;
      p_delay.(id) <- (match rt with None -> 0.0 | Some rt -> Library.delay lib rt);
      p_lat.(id) <- Library.op_latency lib op.Dfg.kind;
      p_preds.(id) <- sched_preds region op)
    members;
  (* the consumers are the predecessor lists reversed: walking the members
     downward leaves each list ascending.  A consumer fed by a data edge is
     a data consumer even when it is also guarded by the producer *)
  List.iter
    (fun (op : Dfg.op) ->
      let c = op.Dfg.id in
      let ins = Dfg.in_edges dfg c in
      List.iter
        (fun p ->
          let data = List.exists (fun e -> e.Dfg.distance = 0 && e.Dfg.src = p) ins in
          p_succs.(p) <- (c, not data) :: p_succs.(p))
        p_preds.(c))
    (List.rev members);
  let order =
    match
      Graph_algo.topo_sort
        ~nodes:(List.map (fun o -> o.Dfg.id) members)
        ~succs:(fun id -> List.map fst p_succs.(id))
    with
    | Some o -> o
    | None -> invalid_arg "Asap_alap.compute: combinational cycle among member ops"
  in
  let pl =
    { p_clock_ps = clock_ps; p_members = members; p_order = order; p_rtype; p_delay; p_lat;
      p_preds; p_succs; p_asap = [||]; p_asap_arrival = [||] }
  in
  let p_asap, p_asap_arrival = forward pl ~lib ~clock_ps region in
  { pl with p_asap; p_asap_arrival }

(** Clamp a range with an anchor and an SCC stage window. *)
let clamp_range ~anchor ~window (a, b) =
  let a, b = match anchor with Some s -> (Int.max a s, Int.min b s) | None -> (a, b) in
  match window with Some (lo, hi) -> (Int.max a lo, Int.min b hi) | None -> (a, b)

(** [compute ~lib ~clock_ps ~scc_window region] analyzes all member ops.
    [scc_window op] returns the inclusive step window imposed by a pipeline
    SCC stage assignment, if any.  [plan] defaults to a fresh {!plan}; a
    plan built earlier for the same region, library and clock gives the
    same result, whatever the latency interval now is: only the backward
    sweep reads the interval.  Windows and anchors only clamp the sweeps'
    results. *)
let compute ?plan:pl ~(lib : Library.t) ~clock_ps ?(scc_window = fun _ -> None) (region : Region.t) :
    t =
  let pl =
    match pl with
    | Some p when p.p_clock_ps = clock_ps -> p
    | Some _ -> invalid_arg "Asap_alap.compute: plan built for another clock"
    | None -> plan ~lib ~clock_ps region
  in
  let dfg = region.Region.dfg in
  let n = Array.length region.Region.members in
  let li = region.Region.n_steps in
  let f_step = pl.p_asap and f_arr = pl.p_asap_arrival in
  let b_start = backward pl ~lib ~clock_ps ~li region in
  (* ---- combine, clamp, detect infeasibility ---- *)
  let ranges = Array.make n None in
  let infeasible = ref [] in
  List.iter
    (fun id ->
      let op = Dfg.find dfg id in
      let asap = f_step.(id) and arr = f_arr.(id) in
      let alap = Int.min b_start.(id) (li - 1) in
      let asap', alap' =
        clamp_range ~anchor:op.Dfg.anchor ~window:(scc_window id) (asap, alap)
      in
      if asap' > alap' then infeasible := id :: !infeasible;
      ranges.(id) <- Some { asap = asap'; alap = Int.max asap' alap'; asap_arrival = arr })
    pl.p_order;
  { ranges; infeasible = List.rev !infeasible }
