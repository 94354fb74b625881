(** Simultaneous scheduling-and-binding policy (Section IV.B).

    Binding an operation assigns it both a control step and a resource
    instance.  The structural netlist — instances, sharing muxes, busy
    tables, placements, arrivals — and the incremental timing engine live
    in [Hls_netlist.Netlist]; this module layers the paper's {e policy} on
    top of that mechanism:

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

type inst = Netlist.inst = {
  inst_id : int;
  mutable rtype : Resource.t;
  mutable bound : int list;
  mutable prealloc_shared : bool;
  added_by_expert : bool;
  mutable mux_cache : int list array option;
  mutable mux_delays : float array option;
  mutable n_bound : int;
  mutable delay_memo : float;
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

type t = {
  net : Netlist.t;  (** the datapath netlist + incremental timing engine *)
  region : Region.t;
  lib : Library.t;
  clock_ps : float;
  dfg : Dfg.t;
  excl : exclusions;
      (** forbidden (op, instance) pairs and dedicated ops — the user
          constraint of Section IV.B item 4: a dedicated op owns its
          resource instance outright, no sharing in any state *)
  timing_aware : bool;
  mutable has_forced : bool;
      (** a [force_bind] (baseline import, slack-tolerating ablation) may
          have committed a negative-slack op, so the narrowed-seed fast
          path in [try_bind] — which relies on every committed op being
          slack-clean — is disabled for the rest of the pass history *)
}

let create ?(timing_aware = true) ~lib ~clock_ps (region : Region.t) =
  {
    net = Netlist.create ~lib ~clock_ps region;
    region;
    lib;
    clock_ps;
    dfg = region.Region.dfg;
    excl = { forbidden = [||]; dedicated = [||] };
    timing_aware;
    has_forced = false;
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

(** Reset all pass-local netlist state while keeping the resource set and
    forbidden pairs — the state carried between scheduling passes — and
    price the sharing muxes during the pass only when [timing_aware]. *)
let refresh_prealloc t = Netlist.refresh_prealloc t.net

let reset_pass t =
  t.has_forced <- false;
  Netlist.reset_pass ~price_muxes:t.timing_aware t.net

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

(** Cheap feasibility screen before the full trial binding: the op's own
    endpoint path on [inst] (inputs via the grown sharing mux, instance
    delay, register mux, setup).  Returns the estimated slack; a negative
    value means the full trial would reject too, so callers skip it.
    Collateral effects on other bound ops are not screened — the trial
    still catches those. *)
let quick_slack t (op : Dfg.op) ~step ~inst_id =
  let i = Netlist.find_inst t.net inst_id in
  let d = Netlist.inst_delay t.net i in
  let data =
    List.fold_left
      (fun acc e ->
        let a = Netlist.source_arrival t.net ~step e in
        (* size the mux by the port's distinct sources after the
           hypothetical bind — a source already feeding this port on the
           instance adds no mux input *)
        let inputs = Netlist.mux_inputs_with t.net i ~port:e.Dfg.port ~src:e.Dfg.src in
        fmax acc (a +. Library.mux_delay t.lib ~inputs))
      t.lib.Library.ff_clk_q
      (Dfg.in_edges t.dfg op.Dfg.id)
  in
  let g = Netlist.guard_arrival t.net ~step op in
  t.clock_ps -. (fmax (data +. d) g +. Netlist.reg_mux_delay t.net +. t.lib.Library.ff_setup)

(** Would binding [op] on [i] widen the instance's resource type?  (Its
    memoized compatibility tier is 0 exactly when the type already fits.) *)
let widens t (op : Dfg.op) (i : inst) =
  match Netlist.resource_of t.net op with
  | Some _ -> Netlist.compat_tier t.net op i > 0
  | None -> false

(** The ports of [i] that gain an effective mux input when [op] binds to
    it, ascending — measured against the committed mux caches, before a
    trial mutates them.  A port whose effective input count is unchanged
    keeps its mux delay bit-identical, so ops reading only such ports keep
    their arrivals and need no re-timing.  Empty when the bind widens the
    instance (every cohabitant is re-timed then).  The op has one in-edge
    per port, of any distance: exactly the sources the attach cache update
    inserts. *)
let changed_ports t (op : Dfg.op) (i : inst) =
  if widens t op i then []
  else
    List.filter_map
      (fun e ->
        if
          Netlist.mux_inputs_with t.net i ~port:e.Dfg.port ~src:e.Dfg.src
          <> Netlist.mux_inputs t.net i ~port:e.Dfg.port
        then Some e.Dfg.port
        else None)
      (Dfg.in_edges t.dfg op.Dfg.id)

(** Open a netlist transaction for the candidate, apply the bind's
    structural mutations and propagate its arrivals.  Returns the worst
    slack and the op carrying it, with the trial still open: the caller
    commits or rolls back.  [changed_ports] is {!changed_ports} of the
    candidate ([[]] without an instance). *)
let open_trial t (op : Dfg.op) ~step ~finish ~inst_opt ~changed_ports =
  let net = t.net in
  let inst = Option.map (Netlist.find_inst net) inst_opt in
  let widens = match inst with Some i -> widens t op i | None -> false in
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
     so [has_forced] falls back to full re-timing. *)
  let seeds =
    match inst with
    | None -> [ op.Dfg.id ]
    | Some i when widens || t.has_forced -> (
        match i.bound with
        | o :: _ when o = op.Dfg.id -> i.bound
        | b -> op.Dfg.id :: List.filter (fun o -> o <> op.Dfg.id) b)
    | Some _ when changed_ports = [] -> [ op.Dfg.id ]
    | Some i ->
        op.Dfg.id
        :: List.filter
             (fun o ->
               o <> op.Dfg.id
               && List.exists (fun p -> Dfg.input t.dfg o ~port:p <> None) changed_ports)
             i.bound
  in
  Netlist.propagate net seeds

exception Fail of Restraint.fail

(** Attempt to bind [op] at [step] on [inst_opt] ([None] for wire and port
    ops).  The candidate runs inside a netlist transaction: on failure the
    trial is rolled back and the state is left untouched. *)
let try_bind t (op : Dfg.op) ~step ~inst_opt : (unit, Restraint.fail) result =
  let net = t.net in
  let lat = op_latency t op in
  let finish = step + lat - 1 in
  try
    if finish > t.region.Region.n_steps - 1 then raise (Fail Restraint.F_window);
    (match op.Dfg.anchor with
    | Some a when a <> step -> raise (Fail Restraint.F_anchor)
    | _ -> ());
    if not (modulo_ok t ~op_id:op.Dfg.id ~step ~finish) then raise (Fail Restraint.F_dep);
    (* resource-specific checks *)
    let inst = Option.map (Netlist.find_inst net) inst_opt in
    (* the instances chaining into the op in this step, walked once: the
       trial below moves only the op itself, so the commit reuses them *)
    let chain_srcs =
      match inst with
      | Some i ->
          if is_forbidden t.excl ~op:op.Dfg.id ~inst:i.inst_id then
            raise (Fail Restraint.F_forbidden);
          (* neither fits nor may be widened to (the memoized tier) *)
          (match Netlist.resource_of t.net op with
          | Some _ when Netlist.compat_tier net op i = 2 -> raise (Fail (Restraint.F_busy i.rtype))
          | _ -> ());
          (* user-dedicated instances: a dedicated op tolerates no cohabitant
             in any state, and instances already hosting a dedicated op admit
             nobody else *)
          if
            Array.length t.excl.dedicated > 0
            && ((is_dedicated t.excl op.Dfg.id && i.bound <> [])
               || List.exists (is_dedicated t.excl) i.bound)
          then raise (Fail (Restraint.F_busy i.rtype));
          (* busy check across occupied steps, honouring edge equivalence and
             predicate orthogonality *)
          for s = step to finish do
            let others = Netlist.busy_ops net i.inst_id s in
            if
              List.exists
                (fun o ->
                  not (Guard.mutually_exclusive (Dfg.find t.dfg o).Dfg.guard op.Dfg.guard))
                others
            then raise (Fail (Restraint.F_busy i.rtype))
          done;
          (* cheap endpoint screen before the expensive trial (timing-aware
             mode only; the naive ablation stays blind to mux effects) *)
          if t.timing_aware && i.bound <> [] then begin
            let sl = quick_slack t op ~step ~inst_id:i.inst_id in
            if sl < -0.001 then raise (Fail (Restraint.F_slack sl))
          end;
          (* structural combinational cycles *)
          if lat = 1 then begin
            let srcs = Netlist.chain_source_insts net op.Dfg.id ~step in
            List.iter
              (fun j ->
                if Netlist.would_close_cycle net ~src:j ~dst:i.inst_id then
                  raise (Fail (Restraint.F_cycle i.inst_id)))
              srcs;
            srcs
          end
          else []
      | None -> []
    in
    let changed_ports =
      match inst with
      | None -> []
      | Some i when i.n_bound = 0 ->
          (* an empty instance: no cohabitant can carry a busy proof, and
             the trial seeds the op alone.  When its type already fits,
             the op's own slack is the trial's exact worst slack; a
             [force_bind] voids that guarantee for the pass *)
          if t.timing_aware && not t.has_forced then begin
            let s = Netlist.empty_bind_slack net op ~step ~finish ~inst:i in
            if s < -0.001 then raise (Fail (Restraint.F_slack s))
          end;
          []
      | Some i ->
          let changed_ports = changed_ports t op i in
          (* saturation screen: when the grown mux provably pushes a
             cohabitant, or one of its same-step chained consumers, below
             tolerance — and strictly below the new op's own slack — the
             trial's busy rejection is already decided, so skip the whole
             transaction.  The pass's slack floor rules most screens out
             before they price anyone *)
          if
            changed_ports <> []
            && Netlist.screen_may_prove net ~inst:i ~changed_ports
            && Netlist.screen_busy_reject net ~op ~step ~finish ~inst:i ~changed_ports
          then raise (Fail (Restraint.F_busy i.rtype));
          changed_ports
    in
    let worst_slack, worst_op = open_trial t op ~step ~finish ~inst_opt ~changed_ports in
    if worst_slack < -0.001 then begin
      Netlist.rollback net;
      (* a violation on an op already bound means this instance cannot
         absorb one more source: the resource, not the timing of the new
         op, is the limiting factor *)
      if worst_op <> op.Dfg.id then
        Error
          (Restraint.F_busy
             (match inst with
             | Some i -> i.rtype
             | None ->
                 Option.value (Netlist.resource_of t.net op)
                   ~default:{ Resource.rclass = Opkind.R_wire; in_widths = []; out_width = 1 }))
      else Error (Restraint.F_slack worst_slack)
    end
    else begin
      Netlist.commit net;
      (* commit chain edges *)
      (match inst with
      | Some i -> List.iter (fun j -> Netlist.add_chain_edge net ~src:j ~dst:i.inst_id) chain_srcs
      | None -> ());
      Ok ()
    end
  with Fail f -> Error f

(** Re-apply a binding already vetted and committed by an earlier pass,
    skipping every feasibility check and the trial protocol.  [rtype] is
    the instance type the original bind left behind (after any width
    merge), so replay reproduces the widening without re-deriving it.  The
    arrival propagation seeds and the chain-edge recording are exactly
    those of the committing [try_bind], so the incremental timing state
    after a replayed prefix is bit-identical to the cold pass's.

    [propagate:false] applies only the structural mutation and leaves the
    arrivals stale; the caller must run one {!recompute_all} after the
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
    ignore (Netlist.propagate net seeds)
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
  t.has_forced <- true;
  let net = t.net in
  Netlist.poison_slack_floor net;
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
  ignore (Netlist.propagate net [ op.Dfg.id ])

(** Refresh every arrival after a batch of [force_bind]s. *)
let recompute_all t = Netlist.recompute_all t.net

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

(** {!compatible_insts}, lazily.  The head is the minimum (tier, load,
    registration order) over the op's class, reading the memoized tier
    ({!Netlist.compat_tier}) and the O(1) count [n_bound], so an attempt
    whose first candidate binds builds no list and sorts nothing.  The
    class's first unloaded instance ({!Netlist.first_unloaded}, a cursor)
    is the head whenever its type fits: nothing can beat (tier 0, load 0),
    and every instance registered before it is loaded.  Otherwise one scan
    finds the head.  The tail — [compatible_insts] minus its head — is
    built only when forced, i.e. after the head failed, and a failed bind
    leaves every tier and count where it found them. *)
let candidates t (op : Dfg.op) : inst Seq.t =
 fun () ->
  let insts = Netlist.class_insts t.net op in
  let head =
    match Netlist.first_unloaded t.net op with
    | Some i when Netlist.compat_tier t.net op i = 0 -> Some i
    | _ ->
        let best = ref None and best_tier = ref 2 and best_load = ref max_int in
        List.iter
          (fun (i : inst) ->
            let tier = Netlist.compat_tier t.net op i in
            if tier < !best_tier || (tier = !best_tier && tier < 2 && i.n_bound < !best_load)
            then begin
              best := Some i;
              best_tier := tier;
              best_load := i.n_bound
            end)
          insts;
        !best
  in
  match head with
  | None -> Seq.Nil
  | Some first ->
      let rest () =
        List.filter_map
          (fun (i : inst) ->
            let tier = Netlist.compat_tier t.net op i in
            if tier < 2 && i != first then Some (tier, i.n_bound, i) else None)
          insts
        |> by_key
      in
      Seq.Cons (first, fun () -> List.to_seq (rest ()) ())

(** Worst endpoint slack over all placed ops. *)
let worst_slack t = Netlist.worst_slack t.net

(** {2 Estimation hooks for the expert system}

    After a failed pass, the expert system asks "would this action have
    saved the failing binding?"  These estimators answer using the arrival
    state the pass left behind. *)

(** Estimated (data arrival, guard arrival, exec delay, endpoint overhead)
    for an unplaced op hypothetically placed at [step].  The data arrival
    includes a 2-input sharing mux when the op's class will be shared. *)
let estimate t (op : Dfg.op) ~step =
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
        fmax acc (Netlist.source_arrival t.net ~step e +. mux))
      (match op.Dfg.kind with Opkind.Const _ -> 0.0 | _ -> t.lib.Library.ff_clk_q)
      (Dfg.in_edges t.dfg op.Dfg.id)
  in
  let guard = Netlist.guard_arrival t.net ~step op in
  let d = Netlist.exec_delay t.net op None in
  let overhead = Netlist.reg_mux_delay t.net +. t.lib.Library.ff_setup in
  (data, guard, d, overhead)

(** Would [op] meet timing at [step] on a fresh resource instance?
    [speculated] drops the guard from the enable path. *)
let would_fit t (op : Dfg.op) ~step ~speculated =
  let data, guard, d, overhead = estimate t op ~step in
  let commit = if speculated then data +. d else fmax (data +. d) guard in
  commit +. overhead <= t.clock_ps +. 0.001

(** Is the failing path dominated by the guard's enable arrival (so that
    speculation, not resources, is the right fix)? *)
let guard_dominated t (op : Dfg.op) ~step =
  let data, guard, d, _ = estimate t op ~step in
  guard > data +. d +. 0.001

(** Would [op] meet timing on some {e existing} compatible instance if all
    its inputs were registered (i.e. at a fresh later step)?  False when
    every compatible instance's sharing muxes are already too slow — the
    case where adding states cannot help and adding a resource can.
    Deliberately conservative: the hypothetical step is unknown, so every
    port is charged one extra mux input regardless of source identity. *)
let would_fit_existing t (op : Dfg.op) =
  let overhead = Netlist.reg_mux_delay t.net +. t.lib.Library.ff_setup in
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
