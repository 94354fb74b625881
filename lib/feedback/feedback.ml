(** Subgraph-extraction feedback-guided iterative scheduling.  See the
    interface for the contract; the notes here cover the two invariants
    the implementation leans on.

    {b Determinism.}  The hint store is a map keyed by the hint value
    itself, so every digest and application is in structural
    key order no matter what order extraction discovered the hints in
    (the netlist busy tables and the binder's hashtables iterate in
    nondeterministic order).  This is what makes [Dse.sweep]'s shared
    store [--jobs]-invariant for free.

    {b No stale constraints.}  Hints carry op / instance / SCC ids from
    the run they were mined from.  The scheduler vets every referent
    against the target region and skips the ones that do not exist, so a
    store mined on one design or micro-architecture point can always be
    offered to another. *)

open Hls_ir
module Scheduler = Hls_core.Scheduler
module Binding = Hls_core.Binding
module Restraint = Hls_core.Restraint
module Netlist = Hls_netlist.Netlist

module Hints = struct
  include Hls_core.Hints

  let apply t (o : Scheduler.options) =
    if is_empty t then o else { o with Scheduler.hints = merge o.Scheduler.hints t }
end

(* ------------------------------------------------------------------ *)
(* Extraction *)

(* fan-in cones stay shallow: the ops within a few dependence hops of a
   violating endpoint are the ones whose placement order decides whether
   the chain registers apart *)
let cone_depth = 3

let extract (s : Scheduler.t) : Hints.t =
  let b = s.Scheduler.s_binding in
  let dfg = b.Binding.dfg in
  let net = b.Binding.net in
  let h = ref Hints.empty in
  let add ?weight hint = h := Hints.add ?weight hint !h in
  (* --- the expert's converged corrective state (replay hints) --- *)
  List.iter (fun (op, inst) -> add (Hints.Forbid (op, inst))) (Binding.forbidden_pairs b);
  List.iter (fun op -> add (Hints.Dedicate op)) (Binding.dedicated_ops b);
  let insts = Netlist.insts net in
  let expert_types =
    List.filter_map
      (fun (i : Binding.inst) -> if i.Binding.added_by_expert then Some i.Binding.rtype else None)
      insts
    |> List.sort_uniq compare
  in
  List.iter
    (fun rt ->
      let n =
        List.length (List.filter (fun (i : Binding.inst) -> i.Binding.rtype = rt) insts)
      in
      add (Hints.Resource_floor (rt, n)))
    expert_types;
  List.iteri
    (fun k (_ops, stage) ->
      if stage > 0 then add (Hints.Scc_stage (k, stage)))
    s.Scheduler.s_scc_stages;
  if not (Region.is_pipelined s.Scheduler.s_region) then
    add (Hints.Latency_floor s.Scheduler.s_li);
  (* --- critical-slack fan-in cones --- *)
  (* on a failed pass the violators have negative slack; on an accepted
     schedule nothing does, so the miner also takes the endpoints inside a
     guard band of the clock — the cones that barely made it are the ones
     whose placement order decides whether the next (tighter) run
     registers them apart *)
  let slack_band = 0.15 *. Float.max 1.0 b.Binding.clock_ps in
  let cone_from op0 severity =
    let seen = Hashtbl.create 16 in
    let rec walk op depth =
      if depth >= 0 && not (Hashtbl.mem seen op) && Dfg.mem dfg op then begin
        Hashtbl.replace seen op ();
        let o = Dfg.find dfg op in
        if Opkind.is_resource_op o.Dfg.kind then
          add ~weight:(1.0 +. severity) (Hints.Boost op);
        List.iter
          (fun (e : Dfg.edge) -> if e.Dfg.distance = 0 then walk e.Dfg.src (depth - 1))
          (Dfg.in_edges dfg op)
      end
    in
    walk op0 cone_depth
  in
  List.iter
    (fun op ->
      let sl = Hls_timing.Graph.endpoint_slack (Netlist.graph net) op in
      if sl < slack_band then
        cone_from op ((slack_band -. sl) /. Float.max 1.0 b.Binding.clock_ps))
    (Netlist.registered_ops net);
  (* --- contended busy-table cliques --- *)
  (* binding is exclusive, so no accepted slot ever holds two ops; the
     contention signal on success is a saturated instance — busy in every
     slot of the schedule with several ops packed rigidly onto it.  Those
     ops have no binding freedom left, so a re-run wants them placed
     first. *)
  let busy = Netlist.dump_busy net in
  let total_slots =
    List.fold_left (fun acc ((_, slot), _) -> max acc (slot + 1)) 0 busy
  in
  let per_inst = Hashtbl.create 16 in
  List.iter
    (fun ((inst, slot), ops) ->
      let slots, iops = Option.value (Hashtbl.find_opt per_inst inst) ~default:([], []) in
      Hashtbl.replace per_inst inst (slot :: slots, ops @ iops))
    busy;
  Hashtbl.iter
    (fun _ (slots, iops) ->
      let n_slots = List.length (List.sort_uniq compare slots) in
      let iops = List.sort_uniq compare iops in
      if total_slots > 0 && n_slots >= total_slots && List.length iops >= 2 then
        List.iter (fun op -> add ~weight:0.5 (Hints.Boost op)) iops)
    per_inst;
  !h

(* ------------------------------------------------------------------ *)
(* The iterate loop *)

type iter_info = {
  fi_iter : int;
  fi_hints_in : int;
  fi_new_hints : int;
  fi_passes : int;
  fi_quality : int * int * float;
  fi_kept : bool;
}

let iterate ?(max_iters = 2) ?(hints = Hints.empty) ~run ~extract ~quality ~passes () =
  let max_iters = max 1 max_iters in
  let infos = ref [] in
  let finish best hints =
    match best with
    | Some (r, _) -> (Stdlib.Ok r, List.rev !infos, hints)
    | None -> assert false
  in
  let rec go i hints best =
    if i >= max_iters then finish best hints
    else
      match run hints with
      | Stdlib.Error e -> (
          (* an iteration that fails outright cannot improve on what we
             already hold; serve the best earlier result if there is one *)
          match best with
          | Some _ -> finish best hints
          | None -> (Stdlib.Error e, List.rev !infos, hints))
      | Stdlib.Ok r ->
          let q = quality r in
          (* ties go to the later iteration: same QoR, fewer passes under
             the batched hints *)
          let kept = match best with Some (_, qb) -> compare q qb <= 0 | None -> true in
          let best = if kept then Some (r, q) else best in
          let extracted = extract r in
          let merged = Hints.merge hints extracted in
          infos :=
            {
              fi_iter = i;
              fi_hints_in = Hints.size hints;
              fi_new_hints = Hints.size merged - Hints.size hints;
              fi_passes = passes r;
              fi_quality = q;
              fi_kept = kept;
            }
            :: !infos;
          if (not kept) || Hints.digest merged = Hints.digest hints then finish best merged
          else go (i + 1) merged best
  in
  go 0 hints None
