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

(* predicate op -> guarded member ops, over the given member list *)
let guard_index region members =
  let tbl = Array.make (Array.length region.Region.members) [] in
  List.iter
    (fun (o : Dfg.op) ->
      List.iter
        (fun p -> if Region.mem region p then tbl.(p) <- o.Dfg.id :: tbl.(p))
        (Guard.preds o.Dfg.guard))
    members;
  fun p -> if p >= 0 && p < Array.length tbl then tbl.(p) else []

(* Consumers, tagged: [false] = data edge (the value chains through the
   consumer's logic), [true] = guard edge (the value only gates the
   consumer's commit enable). *)
let sched_succs_tagged ~guard_deps region (op : Dfg.op) =
  let dfg = region.Region.dfg in
  let data =
    List.filter_map
      (fun e ->
        if e.Dfg.distance = 0 && Region.mem region e.Dfg.dst then Some (e.Dfg.dst, false)
        else None)
      (Dfg.out_edges dfg op.Dfg.id)
  in
  let guarded =
    List.filter_map
      (fun g -> if List.exists (fun ((d : int), _) -> d = g) data then None else Some (g, true))
      (guard_deps op.Dfg.id)
  in
  (* a consumer reachable through both a data and a guard edge counts as data *)
  List.sort_uniq
    (fun ((a : int), ga) (b, gb) -> match Int.compare a b with 0 -> Bool.compare ga gb | c -> c)
    (data @ guarded)

(** The forward (ASAP) sweep's result under one library and clock: it
    reads neither the latency interval nor the SCC windows. *)
type fwd = {
  fw_lib : Library.t;
  fw_clock : float;
  fw_step : int array;  (** op -> ASAP step *)
  fw_arr : float array;  (** op -> in-step arrival there *)
}

(** The backward (ALAP) sweep's result under one library, clock and
    latency interval: it reads no SCC window either. *)
type bwd = { bw_lib : Library.t; bw_clock : float; bw_li : int; bw_start : int array  (** op -> ALAP step *) }

(** Everything {!compute} needs that depends only on the region's graph
    and the library, not on the latency interval or the SCC windows.
    Per-op tables are indexed by op id. *)
type plan = {
  p_members : Dfg.op list;  (** region members, ascending id *)
  p_order : int list;  (** members in topological order *)
  p_delay : float array;  (** {!op_delay} *)
  p_lat : int array;  (** {!Library.op_latency} *)
  p_preds : int list array;  (** {!sched_preds} *)
  p_data_preds : int list array;  (** [p_preds] minus the guard predicates *)
  p_guard_preds : int list array;  (** member guard predicates *)
  p_succs : (int * bool) list array;  (** consumers, [true] = guard edge *)
  mutable p_fwd : fwd option;  (** the last forward sweep *)
  mutable p_bwd : bwd option;  (** the last backward sweep *)
}

let plan ~(lib : Library.t) (region : Region.t) =
  let dfg = region.Region.dfg in
  let members = Region.member_ops region in
  let n = Array.length region.Region.members in
  let guard_deps = guard_index region members in
  let p_delay = Array.make n 0.0 and p_lat = Array.make n 1 in
  let p_preds = Array.make n [] and p_data_preds = Array.make n [] in
  let p_guard_preds = Array.make n [] and p_succs = Array.make n [] in
  List.iter
    (fun (op : Dfg.op) ->
      let id = op.Dfg.id in
      p_delay.(id) <- op_delay lib dfg op;
      p_lat.(id) <- Library.op_latency lib op.Dfg.kind;
      let preds = sched_preds region op in
      let guard_preds = List.filter (Region.mem region) (Guard.preds op.Dfg.guard) in
      p_preds.(id) <- preds;
      p_guard_preds.(id) <- guard_preds;
      p_data_preds.(id) <- List.filter (fun p -> not (List.exists (Int.equal p) guard_preds)) preds;
      p_succs.(id) <- sched_succs_tagged ~guard_deps region op)
    members;
  let order =
    match
      Graph_algo.topo_sort
        ~nodes:(List.map (fun o -> o.Dfg.id) members)
        ~succs:(fun id -> List.map fst p_succs.(id))
    with
    | Some o -> o
    | None -> invalid_arg "Asap_alap.compute: combinational cycle among member ops"
  in
  { p_members = members; p_order = order; p_delay; p_lat; p_preds; p_data_preds; p_guard_preds;
    p_succs; p_fwd = None; p_bwd = None }

(** Clamp a range with an anchor and an SCC stage window. *)
let clamp_range ~anchor ~window (a, b) =
  let a, b = match anchor with Some s -> (Int.max a s, Int.min b s) | None -> (a, b) in
  match window with Some (lo, hi) -> (Int.max a lo, Int.min b hi) | None -> (a, b)

(* The forward (ASAP) sweep: op -> step and in-step arrival there *)
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
      let guard_preds = pl.p_guard_preds.(id) in
      let data_preds = pl.p_data_preds.(id) in
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
               match (Dfg.find dfg id).Dfg.kind with
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
  { fw_lib = lib; fw_clock = clock_ps; fw_step = f_step; fw_arr = f_arr }

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
  { bw_lib = lib; bw_clock = clock_ps; bw_li = li; bw_start = b_start }

(** [compute ~lib ~clock_ps ~scc_window region] analyzes all member ops.
    [scc_window op] returns the inclusive step window imposed by a pipeline
    SCC stage assignment, if any.  [plan] defaults to a fresh {!plan}; a
    plan built earlier for the same region and library gives the same
    result, whatever the latency interval now is.  Every per-op table is
    an array indexed by op id.  The plan keeps its last forward sweep,
    which depends on the library and clock alone, and its last backward
    sweep, which also depends on the latency interval: a call that
    repeats them reuses them.  Windows and anchors only clamp the
    sweeps' results. *)
let compute ?plan:pl ~(lib : Library.t) ~clock_ps ?(scc_window = fun _ -> None) (region : Region.t) :
    t =
  let pl = match pl with Some p -> p | None -> plan ~lib region in
  let dfg = region.Region.dfg in
  let n = Array.length region.Region.members in
  let li = region.Region.n_steps in
  let fw =
    match pl.p_fwd with
    | Some fw when fw.fw_lib == lib && Float.equal fw.fw_clock clock_ps -> fw
    | _ ->
        let fw = forward pl ~lib ~clock_ps region in
        pl.p_fwd <- Some fw;
        fw
  in
  let bw =
    match pl.p_bwd with
    | Some bw when bw.bw_lib == lib && Float.equal bw.bw_clock clock_ps && bw.bw_li = li -> bw
    | _ ->
        let bw = backward pl ~lib ~clock_ps ~li region in
        pl.p_bwd <- Some bw;
        bw
  in
  (* ---- combine, clamp, detect infeasibility ---- *)
  let ranges = Array.make n None in
  let infeasible = ref [] in
  List.iter
    (fun id ->
      let op = Dfg.find dfg id in
      let asap = fw.fw_step.(id) and arr = fw.fw_arr.(id) in
      let alap = Int.min bw.bw_start.(id) (li - 1) in
      let asap', alap' =
        clamp_range ~anchor:op.Dfg.anchor ~window:(scc_window id) (asap, alap)
      in
      if asap' > alap' then infeasible := id :: !infeasible;
      ranges.(id) <- Some { asap = asap'; alap = Int.max asap' alap'; asap_arrival = arr })
    pl.p_order;
  { ranges; infeasible = List.rev !infeasible }
