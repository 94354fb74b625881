(** Decoupled "schedule-then-fold" pipelining (Sehwa [4] / loop-winding
    [5] style): a plain resource-constrained list scheduler places one
    iteration with no knowledge of pipelining, then a separate folding step
    checks whether the schedule can overlap at the requested II; when
    folding fails (a resource collides with itself II states apart, or an
    inter-iteration dependency breaks), the loop latency is relaxed and
    scheduling repeats.

    "Separation of scheduling and constraint checking is a significant
    source of inefficiency of this method" (Section III) — the bench
    compares its relaxation count and final latency against the unified
    engine. *)

open Hls_ir
open Hls_techlib
open Hls_core

type result = {
  s_ii : int;
  s_li : int;
  s_binding : Binding.t;
  s_attempts : int;  (** schedule+fold attempts before success *)
  s_time_s : float;
}

type error = { s_message : string }

(** Plain list schedule of one iteration into [li] states, pipeline-blind:
    resources are busy per state (not per equivalence class), chaining is
    approximated by one resource op per value chain per state. *)
let list_schedule (region : Region.t) ~(alloc : (Resource.t * int * int) list) ~li =
  let dfg = region.Region.dfg in
  let members = Region.member_ops region in
  let insts = Array.of_list (List.concat_map (fun (rt, k, _) -> List.init k (fun _ -> rt)) alloc) in
  let busy : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let sched : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
  let nodes = List.map (fun o -> o.Dfg.id) members in
  let succs0 id =
    List.filter_map
      (fun e ->
        if e.Dfg.distance = 0 && Region.mem region e.Dfg.dst then Some e.Dfg.dst else None)
      (Dfg.out_edges dfg id)
  in
  match Graph_algo.topo_sort ~nodes ~succs:succs0 with
  | None -> None
  | Some order ->
      let ok = ref true in
      List.iter
        (fun id ->
          if !ok then begin
            let op = Dfg.find dfg id in
            let e0 =
              List.fold_left
                (fun acc e ->
                  if e.Dfg.distance > 0 || not (Region.mem region e.Dfg.src) then acc
                  else
                    match Hashtbl.find_opt sched e.Dfg.src with
                    | Some (t, _) ->
                        let p = Dfg.find dfg e.Dfg.src in
                        max acc (if Opkind.is_resource_op p.Dfg.kind then t + 1 else t)
                    | None -> acc)
                0 (Dfg.in_edges dfg id)
            in
            if not (Opkind.is_resource_op op.Dfg.kind) then Hashtbl.replace sched id (min e0 (li - 1), -1)
            else begin
              let need = Option.get (Resource.of_op dfg op) in
              let placed = ref false in
              let t = ref e0 in
              while (not !placed) && !t < li do
                (match
                   Array.to_list (Array.mapi (fun i rt -> (i, rt)) insts)
                   |> List.find_opt (fun (i, rt) ->
                          (Resource.fits ~need ~have:rt || Resource.can_merge need rt)
                          && not (Hashtbl.mem busy (i, !t)))
                 with
                | Some (i, _) ->
                    Hashtbl.replace busy (i, !t) ();
                    Hashtbl.replace sched id (!t, i);
                    placed := true
                | None -> ());
                incr t
              done;
              if not !placed then ok := false
            end
          end)
        order;
      if !ok then Some (sched, insts) else None

(** Fold check: ops on equivalent states (mod II) must not share an
    instance, and loop-carried edges must satisfy the modulo constraint. *)
let fold_ok (region : Region.t) sched ~ii =
  let dfg = region.Region.dfg in
  let by_slot = Hashtbl.create 64 in
  let ok = ref true in
  Hashtbl.iter
    (fun _op (t, i) ->
      if i >= 0 then begin
        let key = (i, t mod ii) in
        if Hashtbl.mem by_slot key then ok := false else Hashtbl.replace by_slot key ()
      end)
    sched;
  Hashtbl.iter
    (fun op (t, _) ->
      List.iter
        (fun e ->
          if e.Dfg.distance > 0 && Region.mem region e.Dfg.src then
            match Hashtbl.find_opt sched e.Dfg.src with
            | Some (tp, _) -> if t < tp - (e.Dfg.distance * ii) + 1 then ok := false
            | None -> ())
        (Dfg.in_edges dfg op))
    sched;
  !ok

(** Run the decoupled pipeliner: schedule at growing LI until the folding
    check passes. *)
let schedule ~ii ~(lib : Library.t) ~clock_ps (region : Region.t) : (result, error) Stdlib.result =
  let t0 = Unix.gettimeofday () in
  let alloc = Alloc.initial ~lib ~clock_ps region in
  let rec attempt li n =
    if li > region.Region.max_steps then
      Error { s_message = Printf.sprintf "folding never succeeded up to LI=%d" li }
    else
      match list_schedule region ~alloc ~li with
      | Some (sched, insts) when fold_ok region sched ~ii ->
          let binding = Binding.create ~lib ~clock_ps region in
          let inst_ids = Array.map (fun rt -> (Binding.add_inst binding rt).Binding.inst_id) insts in
          Region.reset_steps region (min region.Region.max_steps (max li region.Region.min_steps));
          Hashtbl.iter
            (fun op_id (t, i) ->
              let op = Dfg.find region.Region.dfg op_id in
              Binding.force_bind binding op ~step:t
                ~inst_opt:(if i >= 0 then Some inst_ids.(i) else None))
            sched;
          Hls_timing.Graph.recompute_all binding.Binding.graph;
          Ok { s_ii = ii; s_li = li; s_binding = binding; s_attempts = n; s_time_s = Unix.gettimeofday () -. t0 }
      | _ -> attempt (li + 1) (n + 1)
  in
  attempt (max region.Region.min_steps (ii + 1)) 1
