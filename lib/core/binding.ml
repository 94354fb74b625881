(** Simultaneous scheduling-and-binding policy (Section IV.B).

    Binding an operation assigns it both a control step and a resource
    instance.  The structural netlist — instances, sharing muxes, busy
    tables, placements — lives in [Hls_netlist.Netlist], the incremental
    timing engine in [Hls_timing.Graph] and the saturation screen in
    [Hls_netlist.Screen]; this module layers the paper's {e policy} on top
    of that mechanism:

    - the restraint checks gating a candidate binding (scheduling window,
      anchors, modulo/inter-iteration dependencies, forbidden pairs,
      user-dedicated instances, busy-table conflicts honouring predicate
      orthogonality, structural combinational cycles),
    - the cheap {!quick_slack} endpoint screen that skips the expensive
      trial when the op's own path cannot possibly close, and on an empty
      instance the op's exact own slack, which is the trial's verdict,
    - the trial protocol itself: a candidate binding runs inside a netlist
      transaction ([begin_trial] / mutate / [propagate]) and is committed
      or rolled back on the resulting worst slack, and
    - the estimation hooks the expert system uses after a failed pass.

    The [~timing_aware:false] ablation binds with the netlist's sharing
    muxes unpriced ({!reset_pass}): its decisions see pure operator
    delays.  The scheduler prices the muxes as soon as the pass ends, so
    the expert and the final timing report see the negative slack a naive
    scheduler hands to logic synthesis. *)

open Hls_ir
open Hls_techlib
module Netlist = Hls_netlist.Netlist
module Screen = Hls_netlist.Screen
module G = Hls_timing.Graph
module Cycles = Hls_timing.Cycle_detector

type inst = Netlist.inst = {
  inst_id : int;
  mutable rtype : Resource.t;
  mutable bound : int list;
  mutable prealloc_shared : bool;
  added_by_expert : bool;
  mutable mux_cache : int list array option;
  mutable mux_n : int array;
  mutable n_bound : int;
  compat : Bytes.t;
}

type placement = Netlist.placement = { pl_step : int; pl_finish : int; pl_inst : int option }

(* Restraint exclusions keyed by op id: the instance ids each op may not
   bind to, and whether it must own its instance outright.  Both arrays
   stay empty, so [try_bind]'s lookups end at the bounds test, unless an
   expert action or a hint filled them. *)
type exclusions = {
  mutable forbidden : int list array;  (** op id -> excluded instance ids *)
  mutable dedicated : bool array;  (** op id -> owns its instance outright *)
}

(* Decision counters: one increment per decision, no clock read *)
type counters = {
  mutable c_bound : int;
  mutable c_failed : int;
  mutable c_visited : int;
  mutable c_prelude : int;
  mutable c_forbid : int;
  mutable c_tier : int;
  mutable c_dedicated : int;
  mutable c_busy : int;
  mutable c_quick_slack : int;
  mutable c_empty_slack : int;
  mutable c_cycle : int;
  mutable c_screen_memo : int;
  mutable c_screen : int;
  mutable c_trial_slack : int;
  mutable c_trial_busy : int;
  mutable c_screen_skipped : int;
  mutable c_screen_futile : int;
  mutable c_slack_bound : int;
  mutable c_failed_visited : int;
}

(* What one (op, step) attempt prices once for all its candidates.  One
   record per binder, refilled by [begin_attempt]; the facts after the
   prelude are filled on first use.  Between two candidates of an attempt
   only rolled-back trials run, so the committed state they read does not
   change. *)
type attempt = {
  mutable a_step : int;
  mutable a_finish : int;
  mutable a_lat : int;
  mutable a_pre_ok : bool;  (** window, anchor and modulo checks passed *)
  mutable a_pre : Restraint.fail;  (** the prelude's failure, when not [a_pre_ok] *)
  mutable a_srcs : float array;  (** source arrival per in-edge (see [a_srcs_ok]) *)
  mutable a_srcs_ok : bool;
  mutable a_guard : float;  (** guard arrival at the step, filled with [a_srcs] *)
  mutable a_chain : int list;  (** instances chaining into the op (see [a_chain_ok]) *)
  mutable a_chain_ok : bool;
  mutable a_own : int;  (** 0 unknown, 1 own slack undefined, 2 defined *)
  mutable a_data1 : float;  (** data arrival behind 1-input muxes, nan until needed *)
  mutable a_data2 : float;  (** ... behind 2-input (pre-allocated) muxes *)
  mutable a_gfin : float;  (** guard arrival at the finishing step, with [a_own] *)
  mutable a_qdata2 : float;  (** {!quick_slack}'s data arrival behind 2-input muxes, nan until needed *)
  mutable a_by_bound : bool;  (** the last candidate was rejected by the slack bound *)
}

type t = {
  net : Netlist.t;  (** the datapath netlist *)
  graph : G.t;  (** its timing graph ({!Netlist.graph}) *)
  scr : Screen.t;  (** its saturation screen *)
  region : Region.t;
  lib : Library.t;
  clock_ps : float;
  dfg : Dfg.t;
  excl : exclusions;
      (** forbidden (op, instance) pairs and dedicated ops — the user
          constraint of Section IV.B item 4: a dedicated op owns its
          resource instance outright, no sharing in any state *)
  timing_aware : bool;
  att : attempt;
  ctr : counters;
}

let create ?(timing_aware = true) ~lib ~clock_ps (region : Region.t) =
  let net = Netlist.create ~lib ~clock_ps region in
  {
    net;
    graph = Netlist.graph net;
    scr = Screen.create net;
    region;
    lib;
    clock_ps;
    dfg = region.Region.dfg;
    excl = { forbidden = [||]; dedicated = [||] };
    timing_aware;
    att =
      {
        a_step = 0;
        a_finish = 0;
        a_lat = 1;
        a_pre_ok = false;
        a_pre = Restraint.F_window;
        a_srcs = Array.make 4 0.0;
        a_srcs_ok = false;
        a_guard = 0.0;
        a_chain = [];
        a_chain_ok = false;
        a_own = 0;
        a_data1 = nan;
        a_data2 = nan;
        a_gfin = 0.0;
        a_qdata2 = nan;
        a_by_bound = false;
      };
    ctr =
      {
        c_bound = 0;
        c_failed = 0;
        c_visited = 0;
        c_prelude = 0;
        c_forbid = 0;
        c_tier = 0;
        c_dedicated = 0;
        c_busy = 0;
        c_quick_slack = 0;
        c_empty_slack = 0;
        c_cycle = 0;
        c_screen_memo = 0;
        c_screen = 0;
        c_trial_slack = 0;
        c_trial_busy = 0;
        c_screen_skipped = 0;
        c_screen_futile = 0;
        c_slack_bound = 0;
        c_failed_visited = 0;
      };
  }

(* [a] with room for index [id], grown by doubling *)
let fit a id default =
  let n = Array.length a in
  if id < n then a
  else begin
    let b = Array.make (Int.max (id + 1) (2 * n)) default in
    Array.blit a 0 b 0 n;
    b
  end

let forbid t ~op ~inst =
  if op < 0 then invalid_arg "Binding.forbid: negative op id";
  let x = t.excl in
  x.forbidden <- fit x.forbidden op [];
  let l = x.forbidden.(op) in
  if not (List.memq inst l) then x.forbidden.(op) <- inst :: l

let dedicate t op =
  if op < 0 then invalid_arg "Binding.dedicate: negative op id";
  let x = t.excl in
  x.dedicated <- fit x.dedicated op false;
  x.dedicated.(op) <- true

let is_forbidden x ~op ~inst = op < Array.length x.forbidden && List.memq inst x.forbidden.(op)

let is_dedicated x op = op < Array.length x.dedicated && x.dedicated.(op)

let forbidden_pairs t =
  let acc = ref [] in
  Array.iteri
    (fun op l -> List.iter (fun inst -> acc := (op, inst) :: !acc) l)
    t.excl.forbidden;
  List.rev !acc

let dedicated_ops t =
  let acc = ref [] in
  Array.iteri (fun op d -> if d then acc := op :: !acc) t.excl.dedicated;
  List.rev !acc

let add_inst ?added_by_expert t rtype = Netlist.add_inst ?added_by_expert t.net rtype
let find_inst t id = Netlist.find_inst t.net id

let refresh_prealloc t = Netlist.refresh_prealloc t.net

(** Reset all pass-local netlist state while keeping the resource set and
    forbidden pairs — the state carried between scheduling passes — and
    price the sharing muxes during the pass only when [timing_aware]. *)
let reset_pass t = Netlist.reset_pass ~price_muxes:t.timing_aware t.net

let placement t op_id = Netlist.placement t.net op_id
let is_placed t op_id = Netlist.is_placed t.net op_id
let slot t step = Netlist.slot t.net step
let op_latency t op = Netlist.op_latency t.net op
let is_multicycle t op = Netlist.is_multicycle t.net op

(** {2 Binding} *)

(** Inter-iteration dependency check (modulo constraint): for an edge with
    distance [d], consumer step [sc] must satisfy
    [sc >= sp - d*II + 1] where [sp] is the producer's finishing step. *)
let modulo_ok t ~op_id ~step ~finish =
  let ii = Region.ii t.region in
  let ok_in =
    List.for_all
      (fun e ->
        e.Dfg.distance = 0
        ||
        match Netlist.placement t.net e.Dfg.src with
        | Some pl -> step >= pl.pl_finish - (e.Dfg.distance * ii) + 1
        | None -> true)
      (Dfg.in_edges t.dfg op_id)
  in
  let ok_out =
    List.for_all
      (fun e ->
        e.Dfg.distance = 0
        ||
        match Netlist.placement t.net e.Dfg.dst with
        | Some pl -> pl.pl_step >= finish - (e.Dfg.distance * ii) + 1
        | None -> true)
      (Dfg.out_edges t.dfg op_id)
  in
  ok_in && ok_out

(* [Stdlib.max] specialised to floats, same semantics *)
let fmax (a : float) b = if a >= b then a else b

(* The quick screen's expression: the op's endpoint on [i], its source
   arrivals [srcs] each through the port's mux grown by the op's source,
   its guard arriving at [guard].  The loop keeps its accumulator in a
   local variable and reads the mux delays from the graph's table, so it
   boxes no float *)
let quick_slack_of t (op : Dfg.op) ~(srcs : float array) ~guard (i : inst) =
  let d = t.graph.G.unit_delay.(i.inst_id) in
  let data = ref t.lib.Library.ff_clk_q and k = ref 0 in
  let rest = ref (Dfg.in_edges t.dfg op.Dfg.id) in
  while
    match !rest with
    | [] -> false
    | (e : Dfg.edge) :: tl ->
        (* size the mux by the port's distinct sources after the
           hypothetical bind — a source already feeding this port on the
           instance adds no mux input *)
        let inputs = Netlist.mux_inputs_with t.net i ~port:e.Dfg.port ~src:e.Dfg.src in
        data := fmax !data (srcs.(!k) +. t.graph.G.mux_tab.(inputs));
        incr k;
        rest := tl;
        true
  do
    ()
  done;
  t.clock_ps -. (fmax (!data +. d) guard +. t.graph.G.reg_mux +. t.lib.Library.ff_setup)

(** Cheap feasibility screen before the full trial binding: the op's own
    endpoint path on [inst] (inputs via the grown sharing mux, instance
    delay, register mux, setup).  Returns the estimated slack; a negative
    value means the full trial would reject too, so callers skip it.
    Collateral effects on other bound ops are not screened — the trial
    still catches those. *)
let quick_slack t (op : Dfg.op) ~step ~inst_id =
  let srcs = Array.make (List.length (Dfg.in_edges t.dfg op.Dfg.id)) 0.0 in
  G.source_arrivals t.graph op ~step srcs;
  quick_slack_of t op ~srcs ~guard:(G.guard_arrival t.graph ~step op) (Netlist.find_inst t.net inst_id)

(** Would binding [op] on [i] widen the instance's resource type?  (Its
    memoized compatibility tier is 0 exactly when the type already fits.) *)
let widens t (op : Dfg.op) (i : inst) =
  match Netlist.resource_of t.net op with
  | Some _ -> Netlist.compat_tier t.net op i > 0
  | None -> false

(* does binding the op whose in-edge is [e] on [i] grow the effective
   mux of [e]'s port?  Measured against the committed mux caches *)
let grows t (i : inst) (e : Dfg.edge) = Netlist.mux_grows t.net i ~port:e.Dfg.port ~src:e.Dfg.src

(** The ports of [i] that gain an effective mux input when [op] binds to
    it, as a set (bit [p] for port [p]) — measured against the committed
    mux caches, before a trial mutates them.  A port whose effective input
    count is unchanged keeps its mux delay bit-identical, so ops reading
    only such ports keep their arrivals and need no re-timing.  Empty when
    the bind widens the instance (every cohabitant is re-timed then), and
    [-1] when a port above {!Screen.port_set_max} grows (no screen runs
    then, and the trial finds the ports one by one).  The op has one
    in-edge per port, of any distance: exactly the sources the attach
    cache update inserts. *)
let changed_ports t (op : Dfg.op) (i : inst) =
  if widens t op i then 0
  else
    List.fold_left
      (fun acc (e : Dfg.edge) ->
        if acc < 0 || not (grows t i e) then acc
        else if e.Dfg.port > Screen.port_set_max then -1
        else acc lor Screen.port_bit e.Dfg.port)
      0
      (Dfg.in_edges t.dfg op.Dfg.id)

(** Open a netlist transaction for the candidate, apply the bind's
    structural mutations and propagate its arrivals.  Returns the worst
    slack and the op carrying it, with the trial still open: the caller
    commits or rolls back.  [changed_ports] is {!changed_ports} of the
    candidate ([0] without an instance). *)
let open_trial t (op : Dfg.op) ~step ~finish ~inst_opt ~changed_ports =
  let net = t.net in
  let inst = Option.map (Netlist.find_inst net) inst_opt in
  let widens = match inst with Some i -> widens t op i | None -> false in
  (* the op's in-edges whose port mux grows, when the set cannot hold
     them: taken before the attach moves the caches *)
  let grown =
    match inst with
    | Some i when changed_ports < 0 -> List.filter (grows t i) (Dfg.in_edges t.dfg op.Dfg.id)
    | _ -> []
  in
  Netlist.begin_trial net;
  Netlist.place net op.Dfg.id ~step ~finish ~inst_opt;
  (match inst with
  | Some i ->
      (match Netlist.resource_of t.net op with
      | Some need when widens -> Netlist.set_rtype net i (Resource.merge need i.rtype)
      | _ -> ());
      Netlist.attach net i op.Dfg.id;
      Netlist.occupy net ~inst_id:i.inst_id ~step ~finish op.Dfg.id
  | None -> ());
  (* arrivals: the new op, then every cohabitant whose inputs the bind
     actually re-times (a widened rtype re-times all of them; a grown
     port mux re-times the ops reading that port), then downstream
     chains via the propagation worklist.  Cohabitants whose ports are
     untouched keep their committed arrivals — and, inductively, their
     non-negative slack — so dropping them from the seeds changes
     neither the worst slack nor the accept/reject decision.  The
     induction breaks if a [force_bind] smuggled in a negative-slack op,
     so a forced pass falls back to full re-timing. *)
  let seeds =
    match inst with
    | None -> [ op.Dfg.id ]
    | Some i when widens || Netlist.forced net -> (
        match i.bound with
        | o :: _ when o = op.Dfg.id -> i.bound
        | b -> op.Dfg.id :: List.filter (fun o -> o <> op.Dfg.id) b)
    | Some _ when changed_ports = 0 -> [ op.Dfg.id ]
    | Some i when changed_ports < 0 ->
        op.Dfg.id
        :: List.filter
             (fun o ->
               o <> op.Dfg.id
               && List.exists
                    (fun (e : Dfg.edge) ->
                      List.exists (fun (g : Dfg.edge) -> g.Dfg.port = e.Dfg.port) grown)
                    (Dfg.in_edges t.dfg o))
             i.bound
    | Some i ->
        op.Dfg.id
        :: List.filter
             (fun o -> o <> op.Dfg.id && Screen.reads_ports t.dfg o ~ports:changed_ports)
             i.bound
  in
  G.propagate t.graph seeds

(** {2 Attempts}

    An attempt binds one op at one step on the first candidate that takes
    it.  [begin_attempt] runs the candidate-independent checks once (the
    prelude: window, anchor, modulo dependencies) and resets the facts the
    candidates share, which the per-candidate check fills on first use:
    the op's source and guard arrivals, the instances chaining into it and
    its data arrival on an empty instance.  Each candidate then runs the
    checks that depend on the instance, cheapest first, and the trial only
    when none of them decides. *)

let begin_attempt t (op : Dfg.op) ~step =
  let a = t.att in
  let lat = op_latency t op in
  let finish = step + lat - 1 in
  a.a_step <- step;
  a.a_finish <- finish;
  a.a_lat <- lat;
  a.a_srcs_ok <- false;
  a.a_chain_ok <- false;
  a.a_chain <- [];
  a.a_own <- 0;
  a.a_data1 <- nan;
  a.a_data2 <- nan;
  a.a_qdata2 <- nan;
  a.a_pre_ok <- false;
  if finish > t.region.Region.n_steps - 1 then a.a_pre <- Restraint.F_window
  else if (match op.Dfg.anchor with Some s -> s <> step | None -> false) then
    a.a_pre <- Restraint.F_anchor
  else if not (modulo_ok t ~op_id:op.Dfg.id ~step ~finish) then a.a_pre <- Restraint.F_dep
  else a.a_pre_ok <- true

(* the attempt's source arrivals and guard arrival at its step *)
let attempt_srcs t (op : Dfg.op) =
  let a = t.att in
  if not a.a_srcs_ok then begin
    let n = List.length (Dfg.in_edges t.dfg op.Dfg.id) in
    if n > Array.length a.a_srcs then a.a_srcs <- Array.make (2 * n) 0.0;
    G.source_arrivals t.graph op ~step:a.a_step a.a_srcs;
    a.a_guard <- G.guard_arrival t.graph ~step:a.a_step op;
    a.a_srcs_ok <- true
  end

(* The trial's exact worst slack on an empty instance [i] whose type fits,
   or nan (run the trial): {!Netlist.empty_bind_slack} with the op's data
   arrival computed once per mux size and attempt *)
let attempt_own_slack t (op : Dfg.op) (i : inst) =
  let a = t.att in
  if a.a_own = 0 then begin
    if Netlist.own_slack_defined t.net op ~finish:a.a_finish then begin
      a.a_own <- 2;
      a.a_gfin <- G.guard_arrival t.graph ~step:a.a_finish op
    end
    else a.a_own <- 1
  end;
  if a.a_own = 1 || Netlist.compat_tier t.net op i <> 0 then nan
  else begin
    attempt_srcs t op;
    let data =
      if i.prealloc_shared then begin
        if Float.is_nan a.a_data2 then a.a_data2 <- G.own_data t.graph op ~srcs:a.a_srcs ~inputs:2;
        a.a_data2
      end
      else begin
        if Float.is_nan a.a_data1 then a.a_data1 <- G.own_data t.graph op ~srcs:a.a_srcs ~inputs:1;
        a.a_data1
      end
    in
    G.slack_of t.graph ~arrival:(data +. t.graph.G.unit_delay.(i.inst_id)) ~guard:a.a_gfin
  end

(* An upper bound on {!quick_slack} of the attempt's op on the loaded
   [i], exact in floats: the same expression with every source behind a
   2-input mux, the fewest inputs a grown mux has when {!grown_muxes_shared}
   holds ([Library.mux_delay] does not fall as inputs grow).  The data
   arrival is priced once per attempt, so the bound depends on the
   instance delay alone: one value per instance type *)
let slack_bound t (op : Dfg.op) (i : inst) =
  let a = t.att in
  if Float.is_nan a.a_qdata2 then begin
    let mux = t.graph.G.mux_tab.(2) in
    let rec data acc k = function
      | [] -> acc
      | _ :: rest -> data (fmax acc (a.a_srcs.(k) +. mux)) (k + 1) rest
    in
    a.a_qdata2 <-
      (* where muxes speed up with inputs, only the guard term bounds *)
      (if t.lib.Library.d_mux_per_extra_input < 0.0 then neg_infinity
       else data t.lib.Library.ff_clk_q 0 (Dfg.in_edges t.dfg op.Dfg.id))
  end;
  let d = t.graph.G.unit_delay.(i.inst_id) in
  t.clock_ps -. (fmax (a.a_qdata2 +. d) a.a_guard +. t.graph.G.reg_mux +. t.lib.Library.ff_setup)

(* Does every mux the op's bind on the loaded [i] grows have at least 2
   inputs?  So when the instance pre-allocates its muxes, or when every
   port the op reads already has a source other than the op's own *)
let grown_muxes_shared t (op : Dfg.op) (i : inst) =
  let rec shared = function
    | [] -> true
    | (e : Dfg.edge) :: rest ->
        let n = Netlist.src_count t.net i ~port:e.Dfg.port in
        (n >= 2 || (n = 1 && Netlist.mux_inputs_with t.net i ~port:e.Dfg.port ~src:e.Dfg.src >= 2))
        && shared rest
  in
  i.prealloc_shared || shared (Dfg.in_edges t.dfg op.Dfg.id)

(* would binding the op on [i] close a structural combinational cycle
   through an instance chaining into it?  The chain sources are fixed for
   the attempt, so one backward search from them answers every candidate:
   [i] closes a cycle exactly when it reaches one of them *)
let closes_cycle t (op : Dfg.op) (i : inst) =
  let a = t.att in
  if not a.a_chain_ok then begin
    a.a_chain <- Netlist.chain_source_insts t.net op.Dfg.id ~step:a.a_step;
    (match a.a_chain with [] -> () | l -> Cycles.mark_reaching (Netlist.chain t.net) l);
    a.a_chain_ok <- true
  end;
  match a.a_chain with [] -> false | _ :: _ -> Cycles.reaches (Netlist.chain t.net) i.inst_id

(* does a cohabitant in some step of [step]..[finish] conflict with the
   op, honouring edge equivalence and predicate orthogonality? *)
let busy_conflict t (op : Dfg.op) (i : inst) ~step ~finish =
  let rec conflict = function
    | [] -> false
    | o :: rest ->
        (not (Guard.mutually_exclusive (Dfg.find t.dfg o).Dfg.guard op.Dfg.guard)) || conflict rest
  in
  let rec from s = s <= finish && (conflict (Netlist.busy_ops t.net i.inst_id s) || from (s + 1)) in
  from step

(* Run the trial of the attempt's op on [inst_opt] and commit or roll it
   back on its worst slack *)
let trial t (op : Dfg.op) ~inst_opt ~changed_ports =
  let net = t.net and a = t.att and c = t.ctr in
  let worst_slack, worst_op =
    open_trial t op ~step:a.a_step ~finish:a.a_finish ~inst_opt ~changed_ports
  in
  if worst_slack < -0.001 then begin
    Netlist.rollback net;
    (* a violation on an op already bound means this instance cannot
       absorb one more source: the resource, not the timing of the new
       op, is the limiting factor *)
    if worst_op <> op.Dfg.id then begin
      c.c_trial_busy <- c.c_trial_busy + 1;
      Error
        (Restraint.F_busy
           (match inst_opt with
           | Some i -> (Netlist.find_inst net i).rtype
           | None ->
               Option.value (Netlist.resource_of t.net op)
                 ~default:{ Resource.rclass = Opkind.R_wire; in_widths = []; out_width = 1 }))
    end
    else begin
      c.c_trial_slack <- c.c_trial_slack + 1;
      Error (Restraint.F_slack worst_slack)
    end
  end
  else begin
    Netlist.commit net;
    (* commit chain edges: the trial moved only the op itself, so the
       chain sources the cycle check walked are still the ones *)
    (match inst_opt with
    | Some i when a.a_lat = 1 ->
        List.iter (fun j -> Netlist.add_chain_edge net ~src:j ~dst:i) a.a_chain
    | _ -> ());
    Ok ()
  end

(* One candidate instance of the attempt: the instance checks in order,
   each counted where it decides, then the trial *)
let check_inst t (op : Dfg.op) (i : inst) : (unit, Restraint.fail) result =
  let net = t.net and a = t.att and c = t.ctr in
  c.c_visited <- c.c_visited + 1;
  a.a_by_bound <- false;
  if is_forbidden t.excl ~op:op.Dfg.id ~inst:i.inst_id then begin
    c.c_forbid <- c.c_forbid + 1;
    Error Restraint.F_forbidden
  end
  else if
    (* neither fits nor may be widened to (the memoized tier) *)
    Option.is_some (Netlist.resource_of net op) && Netlist.compat_tier net op i = 2
  then begin
    c.c_tier <- c.c_tier + 1;
    Error (Restraint.F_busy i.rtype)
  end
  else if
    (* user-dedicated instances: a dedicated op tolerates no cohabitant
       in any state, and instances already hosting a dedicated op admit
       nobody else *)
    Array.length t.excl.dedicated > 0
    && ((is_dedicated t.excl op.Dfg.id && i.n_bound > 0)
       || List.exists (is_dedicated t.excl) i.bound)
  then begin
    c.c_dedicated <- c.c_dedicated + 1;
    Error (Restraint.F_busy i.rtype)
  end
  else if busy_conflict t op i ~step:a.a_step ~finish:a.a_finish then begin
    c.c_busy <- c.c_busy + 1;
    Error (Restraint.F_busy i.rtype)
  end
  else begin
    (* cheap endpoint screen before the expensive trial (timing-aware
       mode only; the naive ablation stays blind to mux effects).  Where
       the slack bound is already below tolerance the screen rejects too:
       the rejection then carries the bound, which the attempt replaces
       by the exact screen value where a pass reads it *)
    let sl =
      if t.timing_aware && i.n_bound > 0 then begin
        attempt_srcs t op;
        let b = slack_bound t op i in
        if b < -0.001 && grown_muxes_shared t op i then begin
          a.a_by_bound <- true;
          b
        end
        else quick_slack_of t op ~srcs:a.a_srcs ~guard:a.a_guard i
      end
      else infinity
    in
    if sl < -0.001 then begin
      if a.a_by_bound then c.c_slack_bound <- c.c_slack_bound + 1
      else c.c_quick_slack <- c.c_quick_slack + 1;
      Error (Restraint.F_slack sl)
    end
    else if a.a_lat = 1 && closes_cycle t op i then begin
      c.c_cycle <- c.c_cycle + 1;
      Error (Restraint.F_cycle i.inst_id)
    end
    else if i.n_bound = 0 then begin
      (* an empty instance: no cohabitant can carry a busy proof, and
         the trial seeds the op alone.  When its type already fits,
         the op's own slack is the trial's exact worst slack; a
         [force_bind] voids that guarantee for the pass *)
      let s = if t.timing_aware && not (Netlist.forced t.net) then attempt_own_slack t op i else nan in
      if s < -0.001 then begin
        c.c_empty_slack <- c.c_empty_slack + 1;
        Error (Restraint.F_slack s)
      end
      else trial t op ~inst_opt:(Some i.inst_id) ~changed_ports:0
    end
    else begin
      let changed_ports = changed_ports t op i in
      (* saturation screen: when the grown mux provably pushes a
         cohabitant, or one of its same-step chained consumers, below
         tolerance — and strictly below the new op's own slack — the
         trial's busy rejection is already decided, so skip the whole
         transaction.  The instance's slack floor rules out the screens
         that cannot prove anything before they price anyone *)
      if changed_ports <= 0 then trial t op ~inst_opt:(Some i.inst_id) ~changed_ports
      else if not (Screen.screen_may_prove t.scr ~inst:i ~changed_ports) then begin
        c.c_screen_skipped <- c.c_screen_skipped + 1;
        trial t op ~inst_opt:(Some i.inst_id) ~changed_ports
      end
      else
        match Screen.screen t.scr ~op ~step:a.a_step ~finish:a.a_finish ~inst:i ~changed_ports with
        | Screen.Screen_memo ->
            c.c_screen_memo <- c.c_screen_memo + 1;
            Error (Restraint.F_busy i.rtype)
        | Screen.Screen_computed ->
            c.c_screen <- c.c_screen + 1;
            Error (Restraint.F_busy i.rtype)
        | Screen.Screen_pass ->
            c.c_screen_futile <- c.c_screen_futile + 1;
            trial t op ~inst_opt:(Some i.inst_id) ~changed_ports
    end
  end

(* the wire or port op of the attempt: the trial alone *)
let check_wire t (op : Dfg.op) =
  t.ctr.c_visited <- t.ctr.c_visited + 1;
  trial t op ~inst_opt:None ~changed_ports:0

(* did [begin_attempt]'s prelude fail (counted once per attempt)? *)
let prelude_failed t =
  (not t.att.a_pre_ok)
  && begin
       t.ctr.c_prelude <- t.ctr.c_prelude + 1;
       true
     end

let count_attempt t ~visited0 ~bound =
  let c = t.ctr in
  if bound then c.c_bound <- c.c_bound + 1
  else begin
    c.c_failed <- c.c_failed + 1;
    c.c_failed_visited <- c.c_failed_visited + (c.c_visited - visited0)
  end

(* the exact {!quick_slack} of the attempt's op on instance [id] *)
let exact_slack t (op : Dfg.op) id =
  Restraint.F_slack (quick_slack_of t op ~srcs:t.att.a_srcs ~guard:t.att.a_guard (Netlist.find_inst t.net id))

(** Attempt to bind [op] at [step] on [inst_opt] ([None] for wire and port
    ops): an attempt with one candidate.  The candidate runs inside a
    netlist transaction: on failure the trial is rolled back and the state
    is left untouched. *)
let try_bind t (op : Dfg.op) ~step ~inst_opt : (unit, Restraint.fail) result =
  let visited0 = t.ctr.c_visited in
  begin_attempt t op ~step;
  let r =
    if prelude_failed t then Error t.att.a_pre
    else
      match inst_opt with
      | Some id -> (
          match check_inst t op (Netlist.find_inst t.net id) with
          | Error (Restraint.F_slack _) when t.att.a_by_bound -> Error (exact_slack t op id)
          | r -> r)
      | None -> check_wire t op
  in
  count_attempt t ~visited0 ~bound:(Result.is_ok r);
  r

(* The candidate cursor over {!Netlist.next_candidate}: slot [k] of the
   tier-[tier] walk is [2k + tier]; -1 before the first and after the
   last *)
let cursor_next t (op : Dfg.op) cur =
  let tier, from = if cur < 0 then (0, 0) else (cur land 1, (cur lsr 1) + 1) in
  let k = Netlist.next_candidate t.net op ~tier ~from in
  if k >= 0 then (2 * k) + tier
  else if tier = 0 then
    let k = Netlist.next_candidate t.net op ~tier:1 ~from:0 in
    if k >= 0 then (2 * k) + 1 else -1
  else -1

(* [fails] with its first slack rejection — the last in walk order, the
   one a pass records — priced exactly when the slack bound decided it
   on instance [id] (-1: it did not) *)
let exact_last_slack t (op : Dfg.op) id fails =
  let rec fix = function
    | Restraint.F_slack _ :: rest -> exact_slack t op id :: rest
    | f :: rest -> f :: fix rest
    | [] -> []
  in
  if id < 0 then fails else fix fails

(** Bind [op] at [step] on its first candidate that takes it: every
    instance compatible with it in {!compatible_insts} order, or the op
    alone when it is a wire or port op.  [[]] when it bound; otherwise the
    failures, the last candidate's first.  A failed prelude fails every
    candidate the same way and is returned once; an op with no compatible
    instance fails with [F_no_resource]. *)
let attempt t (op : Dfg.op) ~step =
  let visited0 = t.ctr.c_visited in
  let resource = Opkind.is_resource_op op.Dfg.kind in
  let first = if resource then cursor_next t op (-1) else 0 in
  let fails =
    if first < 0 then
      match Resource.of_op t.dfg op with Some rt -> [ Restraint.F_no_resource rt ] | None -> []
    else begin
      begin_attempt t op ~step;
      if prelude_failed t then [ t.att.a_pre ]
      else if not resource then match check_wire t op with Ok () -> [] | Error f -> [ f ]
      else
        (* [bounded]: the instance whose slack rejection, the latest in
           walk order, the bound decided, or -1 *)
        let rec go fails bounded cur =
          let i = Netlist.candidate_at t.net op (cur lsr 1) in
          match check_inst t op i with
          | Ok () -> []
          | Error f ->
              let bounded =
                match f with
                | Restraint.F_slack _ -> if t.att.a_by_bound then i.inst_id else -1
                | _ -> bounded
              in
              let next = cursor_next t op cur in
              if next < 0 then exact_last_slack t op bounded (f :: fails) else go (f :: fails) bounded next
        in
        go [] (-1) first
    end
  in
  count_attempt t ~visited0 ~bound:(match fails with [] -> true | _ -> false);
  fails

(** Re-apply a binding already vetted and committed by an earlier pass,
    skipping every feasibility check and the trial protocol.  [rtype] is
    the instance type the original bind left behind (after any width
    merge), so replay reproduces the widening without re-deriving it.  The
    arrival propagation seeds and the chain-edge recording are exactly
    those of the committing [try_bind], so the incremental timing state
    after a replayed prefix is bit-identical to the cold pass's.

    [propagate:false] applies only the structural mutation and leaves the
    arrivals stale; the caller must run one {!G.recompute_all} after the
    whole replayed batch.  Sound because the arrival fixpoint is unique
    given the structure (combinational cycles are excluded by the cycle
    detector), so one sweep over the final structure lands on the same
    state as per-bind propagation. *)
let replay_bind t ?(propagate = true) (op : Dfg.op) ~step ~finish ~inst_opt ~rtype =
  let net = t.net in
  Netlist.place net op.Dfg.id ~step ~finish ~inst_opt;
  let inst = Option.map (Netlist.find_inst net) inst_opt in
  (match inst with
  | Some i ->
      (match rtype with Some rt -> Netlist.set_rtype net i rt | None -> ());
      Netlist.attach net i op.Dfg.id;
      Netlist.occupy net ~inst_id:i.inst_id ~step ~finish op.Dfg.id
  | None -> ());
  if propagate then begin
    let seeds =
      match inst with
      | None -> [ op.Dfg.id ]
      | Some i -> (
          match i.bound with
          | o :: _ when o = op.Dfg.id -> i.bound
          | b -> op.Dfg.id :: List.filter (fun o -> o <> op.Dfg.id) b)
    in
    ignore (G.propagate t.graph seeds)
  end;
  match inst with
  | Some i ->
      if op_latency t op = 1 then
        List.iter
          (fun j -> Netlist.add_chain_edge net ~src:j ~dst:i.inst_id)
          (Netlist.chain_source_insts net op.Dfg.id ~step)
  | None -> ()

(** Unconditionally record a placement, skipping every feasibility check
    (timing, busy tables still maintained, cycles ignored).  Used to import
    schedules produced by external engines — the baseline comparators —
    into the accurate timing/area reporting machinery. *)
let force_bind t (op : Dfg.op) ~step ~inst_opt =
  let net = t.net in
  Netlist.mark_forced net;
  let lat = op_latency t op in
  let finish = step + lat - 1 in
  Netlist.place net op.Dfg.id ~step ~finish ~inst_opt;
  (match inst_opt with
  | Some i ->
      let inst = Netlist.find_inst net i in
      (match Netlist.resource_of t.net op with
      | Some need when not (Resource.fits ~need ~have:inst.rtype) ->
          if Resource.can_merge need inst.rtype then
            Netlist.set_rtype net inst (Resource.merge need inst.rtype)
          else
            Netlist.set_rtype net inst
              {
                Resource.rclass = inst.rtype.Resource.rclass;
                in_widths = List.map2 Int.max inst.rtype.Resource.in_widths need.Resource.in_widths;
                out_width = Int.max inst.rtype.Resource.out_width need.Resource.out_width;
              }
      | _ -> ());
      Netlist.attach net inst op.Dfg.id;
      Netlist.occupy net ~inst_id:i ~step ~finish op.Dfg.id
  | None -> ());
  ignore (G.propagate t.graph [ op.Dfg.id ])

(* Instances keyed by (compatibility tier, bound-op count), in key order;
   the stable sort keeps registration order on equal keys *)
let by_key keyed =
  List.stable_sort
    (fun (fa, la, _) (fb, lb, _) -> match Int.compare fa fb with 0 -> Int.compare la lb | c -> c)
    keyed
  |> List.map (fun (_, _, i) -> i)

(** Instances compatible with [op]: an instance already wide enough always
    qualifies ([fits]); otherwise the width-merge rule decides whether the
    instance may be widened to host the op.  Preferred order: exact-fit
    first, then least-loaded.  Rebuilt from scratch on every call: the
    reference order {!candidates} is tested against. *)
let compatible_insts t (op : Dfg.op) =
  match Netlist.resource_of t.net op with
  | None -> []
  | Some need ->
      (* only the op's own class can host it *)
      Netlist.class_insts t.net op
      |> List.filter_map (fun i ->
             let fits = Resource.fits ~need ~have:i.rtype in
             if fits || Resource.can_merge need i.rtype then
               Some ((if fits then 0 else 1), List.length i.bound, i)
             else None)
      |> by_key

(** {!compatible_insts} as the attempts walk it: the class's (load, id)
    order, tier 0 then tier 1 ({!Netlist.next_candidate}).  Forcing the
    rest after a failed {!try_bind} of the head is sound: a failed bind
    leaves the netlist, and so the order, as it found it. *)
let candidates t (op : Dfg.op) : inst Seq.t =
  let rec from cur () =
    if cur < 0 then Seq.Nil
    else Seq.Cons (Netlist.candidate_at t.net op (cur lsr 1), from (cursor_next t op cur))
  in
  fun () -> from (cursor_next t op (-1)) ()

(** {2 Estimation hooks for the expert system}

    After a failed pass, the expert system asks "would this action have
    saved the failing binding?"  These estimators answer using the arrival
    state the pass left behind. *)

(** Would [op] meet timing at [step] on a fresh resource instance?  Its
    data arrival includes a 2-input sharing mux when the op's class will be
    shared; its commit also waits for its guard's enable arrival. *)
let would_fit t (op : Dfg.op) ~step =
  let shared =
    match Netlist.resource_of t.net op with
    | None -> false
    | Some need ->
        let n_ops = Netlist.class_ops t.net need in
        let n_insts =
          List.length
            (List.filter (fun i -> Resource.can_merge i.rtype need) (Netlist.class_insts t.net op))
        in
        n_ops > n_insts
  in
  let mux = if shared then Library.mux_delay t.lib ~inputs:2 else 0.0 in
  let data =
    List.fold_left
      (fun acc e ->
        fmax acc (G.source_arrival t.graph ~step e +. mux))
      (match op.Dfg.kind with Opkind.Const _ -> 0.0 | _ -> t.lib.Library.ff_clk_q)
      (Dfg.in_edges t.dfg op.Dfg.id)
  in
  let guard = G.guard_arrival t.graph ~step op in
  let d = G.exec_delay t.graph op (-1) in
  let overhead = t.graph.G.reg_mux +. t.lib.Library.ff_setup in
  fmax (data +. d) guard +. overhead <= t.clock_ps +. 0.001

(** Would [op] meet timing on some {e existing} compatible instance if all
    its inputs were registered (i.e. at a fresh later step)?  False when
    every compatible instance's sharing muxes are already too slow — the
    case where adding states cannot help and adding a resource can.
    Deliberately conservative: the hypothetical step is unknown, so every
    port is charged one extra mux input regardless of source identity. *)
let would_fit_existing t (op : Dfg.op) =
  let overhead = t.graph.G.reg_mux +. t.lib.Library.ff_setup in
  match Netlist.resource_of t.net op with
  | None -> true
  | Some need ->
      List.exists
        (fun i ->
          (Resource.fits ~need ~have:i.rtype || Resource.can_merge need i.rtype)
          &&
          let d = Library.delay t.lib i.rtype in
          let worst_mux =
            List.fold_left
              (fun acc port ->
                fmax acc
                  (Library.mux_delay t.lib ~inputs:(Netlist.mux_inputs t.net i ~port + 1)))
              0.0
              (List.init (List.length i.rtype.Resource.in_widths) Fun.id)
          in
          t.lib.Library.ff_clk_q +. worst_mux +. d +. overhead <= t.clock_ps +. 0.001)
        (Netlist.class_insts t.net op)
