(** Iterative modulo scheduling (Rau, MICRO'94) — the classical
    software-pipelining baseline the paper contrasts with (Section III:
    "assigning an operation to a timing slot is modeled by explicitly
    placing several instances of this operation II slots apart.  If this
    causes a conflict ... the schedule chooses a candidate for unscheduling
    and backtracks").

    This implementation is deliberately {e timing-naive}: operations are
    unit-latency cycle-grained entities and resource conflicts are tracked
    in a modulo reservation table (MRT); sharing-mux delays and chaining
    arithmetic are invisible to it.  Comparing its post-synthesis timing
    against the paper's netlist-aware engine is exactly the experiment the
    paper's Section III motivates.

    The scheduler computes ResMII/RecMII lower bounds, then runs
    height-priority scheduling with eviction and a backtracking budget,
    incrementing II on exhaustion (or holding II fixed when the caller pins
    it, as hardware designers do per the paper's Section V condition 1). *)

open Hls_ir
open Hls_techlib
open Hls_core

type result = {
  m_ii : int;
  m_li : int;  (** schedule length of one iteration *)
  m_binding : Binding.t;  (** placements imported for timing/area reporting *)
  m_backtracks : int;
  m_time_s : float;
}

type error = { m_message : string }

(** Recurrence-constrained minimum II: for every SCC cycle, the latency
    around the cycle divided by its distance.  Computed per SCC with a
    Bellman-Ford-style bound (unit latencies — the baseline's view). *)
let rec_mii (region : Region.t) =
  let dfg = region.Region.dfg in
  List.fold_left
    (fun acc scc ->
      let member = Hashtbl.create 8 in
      List.iter (fun o -> Hashtbl.replace member o ()) scc;
      (* total latency and distance of the heaviest simple cycle is NP-hard;
         use the standard estimate sum(latency)/sum(distance) per SCC *)
      let lat, dist =
        List.fold_left
          (fun (l, dt) o ->
            let edges = Dfg.out_edges dfg o in
            let d =
              List.fold_left
                (fun acc e -> if Hashtbl.mem member e.Dfg.dst then acc + e.Dfg.distance else acc)
                0 edges
            in
            let cycles = if Opkind.is_resource_op (Dfg.find dfg o).Dfg.kind then 1 else 0 in
            (l + cycles, dt + d))
          (0, 0) scc
      in
      if dist = 0 then acc else max acc ((lat + dist - 1) / dist))
    1
    (Region.sccs region)

(** Schedule with a fixed [ii].  Returns op->cycle placements or [None] if
    the backtracking budget is exhausted. *)
let try_ii (region : Region.t) ~(alloc : (Resource.t * int * int) list) ~ii ~budget_factor =
  let dfg = region.Region.dfg in
  let members = Region.member_ops region in
  let n = List.length members in
  (* instance table: one MRT row per instance *)
  let insts = List.concat_map (fun (rt, k, _) -> List.init k (fun _ -> rt)) alloc in
  let insts = Array.of_list insts in
  let mrt : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  (* (inst, slot) -> op *)
  let sched : (int, int * int) Hashtbl.t = Hashtbl.create n in
  (* op -> (cycle, inst or -1) *)
  let height = Hashtbl.create n in
  (* priority: longest path to any sink over distance-0 edges *)
  let nodes = List.map (fun o -> o.Dfg.id) members in
  let succs0 id =
    List.filter_map
      (fun e ->
        if e.Dfg.distance = 0 && Region.mem region e.Dfg.dst then Some e.Dfg.dst else None)
      (Dfg.out_edges dfg id)
  in
  (match Graph_algo.topo_sort ~nodes ~succs:succs0 with
  | Some order ->
      List.iter
        (fun id ->
          let h =
            List.fold_left
              (fun acc s -> max acc (1 + Option.value (Hashtbl.find_opt height s) ~default:0))
              0 (succs0 id)
          in
          Hashtbl.replace height id h)
        (List.rev order)
  | None -> ());
  let budget = ref (budget_factor * n) in
  let backtracks_guard = ref (budget_factor * n) in
  let backtracks = ref 0 in
  let unscheduled = ref (List.sort (fun a b ->
      compare
        (- (Option.value (Hashtbl.find_opt height b.Dfg.id) ~default:0), b.Dfg.id)
        (- (Option.value (Hashtbl.find_opt height a.Dfg.id) ~default:0), a.Dfg.id))
      members |> List.rev)
  in
  (* earliest start given scheduled predecessors (cycle-grained, unit
     latency for resource ops, zero for wires) *)
  let latency op = if Opkind.is_resource_op op.Dfg.kind then 1 else 0 in
  let estart op =
    List.fold_left
      (fun acc e ->
        if not (Region.mem region e.Dfg.src) then acc
        else
          match Hashtbl.find_opt sched e.Dfg.src with
          | Some (tc, _) ->
              let p = Dfg.find dfg e.Dfg.src in
              max acc (tc + latency p - (e.Dfg.distance * ii))
          | None -> acc)
      0 (Dfg.in_edges dfg op.Dfg.id)
  in
  let compatible op =
    match Resource.of_op dfg op with
    | None -> []
    | Some need ->
        Array.to_list
          (Array.mapi (fun i rt -> (i, rt)) insts)
        |> List.filter_map (fun (i, rt) ->
               if Resource.fits ~need ~have:rt || Resource.can_merge need rt then Some i else None)
  in
  (* Rau's anti-livelock rule: an evicted op is rescheduled no earlier
     than one past its previous slot *)
  let last_time : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let unschedule op_id =
    match Hashtbl.find_opt sched op_id with
    | None -> ()
    | Some (tc, inst) ->
        Hashtbl.remove sched op_id;
        Hashtbl.replace last_time op_id tc;
        if inst >= 0 then Hashtbl.remove mrt (inst, ((tc mod ii) + ii) mod ii)
  in
  let ok = ref true in
  (* after any placement, already-scheduled neighbours whose dependence
     constraints are now violated must be unscheduled and retried (the
     backtracking core of iterative modulo scheduling) *)
  let evict_violators op_id t =
    let lat_here = latency (Dfg.find dfg op_id) in
    let violated =
      List.filter_map
        (fun e ->
          if not (Region.mem region e.Dfg.dst) then None
          else
            match Hashtbl.find_opt sched e.Dfg.dst with
            | Some (tc, _) when tc < t + lat_here - (e.Dfg.distance * ii) -> Some e.Dfg.dst
            | _ -> None)
        (Dfg.out_edges dfg op_id)
      @ List.filter_map
          (fun e ->
            if not (Region.mem region e.Dfg.src) then None
            else
              match Hashtbl.find_opt sched e.Dfg.src with
              | Some (tp, _) ->
                  let p = Dfg.find dfg e.Dfg.src in
                  if t < tp + latency p - (e.Dfg.distance * ii) then Some e.Dfg.src else None
              | None -> None)
          (Dfg.in_edges dfg op_id)
    in
    List.sort_uniq compare violated
  in
  while !unscheduled <> [] && !ok do
    match !unscheduled with
    | [] -> ()
    | op :: rest ->
        unscheduled := rest;
        let e0 = max 0 (estart op) in
        let e0 =
          match Hashtbl.find_opt last_time op.Dfg.id with
          | Some prev -> max e0 (prev + 1)
          | None -> e0
        in
        if not (Opkind.is_resource_op op.Dfg.kind) then begin
          Hashtbl.replace sched op.Dfg.id (e0, -1);
          let vs = evict_violators op.Dfg.id e0 in
          if vs <> [] then begin
            decr budget;
            incr backtracks;
            if !budget <= 0 then ok := false
            else
              List.iter
                (fun v ->
                  unschedule v;
                  unscheduled := Dfg.find dfg v :: !unscheduled)
                vs
          end
        end
        else begin
          let placed = ref false in
          let cands = compatible op in
          (* scan II consecutive cycles for a free MRT slot *)
          let t = ref e0 in
          while (not !placed) && !t < e0 + ii do
            let slot = ((!t mod ii) + ii) mod ii in
            (match List.find_opt (fun i -> not (Hashtbl.mem mrt (i, slot))) cands with
            | Some i ->
                Hashtbl.replace mrt (i, slot) op.Dfg.id;
                Hashtbl.replace sched op.Dfg.id (!t, i);
                placed := true;
                let vs = evict_violators op.Dfg.id !t in
                if vs <> [] then begin
                  decr backtracks_guard;
                  incr backtracks;
                  if !backtracks_guard <= 0 then ok := false
                  else
                    List.iter
                      (fun v ->
                        unschedule v;
                        unscheduled := Dfg.find dfg v :: !unscheduled)
                      vs
                end
            | None -> ());
            incr t
          done;
          if not !placed then begin
            (* force at e0: evict whoever holds the slot on the first
               candidate instance, reschedule the victim later *)
            decr budget;
            incr backtracks;
            if !budget <= 0 || cands = [] then ok := false
            else begin
              let slot = e0 mod ii in
              let inst = List.hd cands in
              (match Hashtbl.find_opt mrt (inst, slot) with
              | Some victim ->
                  unschedule victim;
                  unscheduled := Dfg.find dfg victim :: !unscheduled
              | None -> ());
              (* also evict anything that now violates dependences *)
              Hashtbl.replace mrt (inst, slot) op.Dfg.id;
              Hashtbl.replace sched op.Dfg.id (e0, inst);
              List.iter
                (fun v ->
                  unschedule v;
                  unscheduled := Dfg.find dfg v :: !unscheduled)
                (evict_violators op.Dfg.id e0)
            end
          end
        end
  done;
  if !ok then Some (sched, insts, !backtracks) else None

(** Run the baseline.  [ii] pins the initiation interval (as the paper's
    designers do); otherwise the search starts at max(ResMII, RecMII) and
    increments. *)
let schedule ?ii ?(budget_factor = 6) ~(lib : Library.t) ~clock_ps (region : Region.t) :
    (result, error) Stdlib.result =
  let t0 = Unix.gettimeofday () in
  (* resource set: reuse the same initial estimator as the main engine *)
  let alloc = Alloc.initial ~lib ~clock_ps region in
  (* ResMII: ops per class over instances, the bound that floors the
     main engine's latency *)
  let mii = max (Alloc.latency_floor alloc) (rec_mii region) in
  let start_ii = match ii with Some i -> max i 1 | None -> max 1 mii in
  let max_ii = match ii with Some i -> i | None -> start_ii + 64 in
  let rec search cur =
    if cur > max_ii then Error { m_message = Printf.sprintf "no schedule up to II=%d" max_ii }
    else
      match try_ii region ~alloc ~ii:cur ~budget_factor with
      | Some (sched, insts, backtracks) ->
          (* normalize cycles to start at 0 and import into a Binding *)
          let min_c = Hashtbl.fold (fun _ (c, _) acc -> min acc c) sched 0 in
          let max_c = Hashtbl.fold (fun _ (c, _) acc -> max acc c) sched 0 in
          let li = max_c - min_c + 1 in
          let binding = Binding.create ~lib ~clock_ps region in
          let inst_ids = Array.map (fun rt -> (Binding.add_inst binding rt).Binding.inst_id) insts in
          Region.reset_steps region (min region.Region.max_steps (max li region.Region.min_steps));
          Hashtbl.iter
            (fun op_id (c, i) ->
              let op = Dfg.find region.Region.dfg op_id in
              let inst_opt = if i >= 0 then Some inst_ids.(i) else None in
              Binding.force_bind binding op ~step:(c - min_c) ~inst_opt)
            sched;
          Hls_timing.Graph.recompute_all binding.Binding.graph;
          Ok
            {
              m_ii = cur;
              m_li = li;
              m_binding = binding;
              m_backtracks = backtracks;
              m_time_s = Unix.gettimeofday () -. t0;
            }
      | None -> search (cur + 1)
  in
  search start_ii
