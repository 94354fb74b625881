(** Subgraph-extraction feedback-guided iterative scheduling.  See the
    interface for the contract; the notes here cover the two invariants
    the implementation leans on.

    {b Determinism.}  The hint store is a map keyed by the hint value
    itself, so every rendering, digest and application is in structural
    key order no matter what order extraction discovered the hints in
    (the netlist busy tables and the binder's hashtables iterate in
    nondeterministic order).  This is what makes [Dse.sweep]'s shared
    store [--jobs]-invariant for free.

    {b No stale constraints.}  Hints carry op / instance / SCC ids from
    the run they were mined from.  Application (here and in the
    scheduler) vets every referent against the target region and skips
    the ones that do not exist, so a store mined on one design or
    micro-architecture point can always be offered to another. *)

open Hls_ir
open Hls_techlib
module Scheduler = Hls_core.Scheduler
module Binding = Hls_core.Binding
module Restraint = Hls_core.Restraint
module Netlist = Hls_netlist.Netlist

module Hints = struct
  type hint =
    | Boost of int
    | Speculate of int
    | Dedicate of int
    | Forbid of int * int
    | Scc_stage of int * int
    | Resource_floor of Resource.t * int
    | Latency_floor of int

  type kind = Replay | Slack_cone | Busy_clique | Scc_window

  type entry = { e_kind : kind; e_weight : float; e_recur : int }

  module M = Map.Make (struct
    type t = hint

    let compare = Stdlib.compare
  end)

  type t = entry M.t

  let empty : t = M.empty
  let is_empty = M.is_empty
  let size = M.cardinal

  let add ?(kind = Replay) ?(weight = 1.0) hint t =
    match M.find_opt hint t with
    | Some e ->
        M.add hint { e with e_weight = Float.max e.e_weight weight; e_recur = e.e_recur + 1 } t
    | None -> M.add hint { e_kind = kind; e_weight = weight; e_recur = 1 } t

  let merge a b =
    M.union
      (fun _ ea eb ->
        Some
          {
            e_kind = ea.e_kind;
            e_weight = Float.max ea.e_weight eb.e_weight;
            e_recur = ea.e_recur + eb.e_recur;
          })
      a b

  let to_list t = M.bindings t

  let ops t =
    M.fold
      (fun h _ acc ->
        match h with
        | Boost op | Speculate op | Dedicate op | Forbid (op, _) -> op :: acc
        | Scc_stage _ | Resource_floor _ | Latency_floor _ -> acc)
      t []
    |> List.sort_uniq compare

  let portable t =
    M.filter (fun h _ -> match h with Boost _ | Speculate _ | Dedicate _ -> true | _ -> false) t

  let digest t =
    let keys = M.fold (fun h _ acc -> h :: acc) t [] in
    Digest.to_hex (Digest.string (Marshal.to_string keys []))

  let hint_to_string = function
    | Boost op -> Printf.sprintf "boost(%d)" op
    | Speculate op -> Printf.sprintf "speculate(%d)" op
    | Dedicate op -> Printf.sprintf "dedicate(%d)" op
    | Forbid (op, inst) -> Printf.sprintf "forbid(%d,%d)" op inst
    | Scc_stage (k, s) -> Printf.sprintf "scc_stage(%d,%d)" k s
    | Resource_floor (rt, n) -> Printf.sprintf "floor(%s,%d)" (Resource.to_string rt) n
    | Latency_floor li -> Printf.sprintf "latency_floor(%d)" li

  (* serialization: hex of the marshalled binding list — the bindings are
     pure data (the only float is the weight), and rebuilding the map from
     the list sidesteps any dependence on the map's internal layout *)
  let to_string t =
    let s = Marshal.to_string (to_list t) [] in
    let b = Buffer.create (2 * String.length s) in
    String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
    Buffer.contents b

  let of_string s =
    let n = String.length s in
    if n mod 2 <> 0 then None
    else
      match
        let raw = Bytes.create (n / 2) in
        for i = 0 to (n / 2) - 1 do
          Bytes.set raw i (Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))
        done;
        (Marshal.from_string (Bytes.to_string raw) 0 : (hint * entry) list)
      with
      | exception _ -> None
      | l -> Some (List.fold_left (fun acc (h, e) -> M.add h e acc) M.empty l)

  (* priority-boost magnitude: scaled by severity and recurrence, capped
     well below the mobility term so a hint reorders ties rather than
     overriding the paper's priority function *)
  let boost_delta e = Float.min 40.0 (5.0 *. e.e_weight *. float_of_int e.e_recur)

  let apply t (o : Scheduler.options) =
    if is_empty t then o
    else begin
      let boosts = ref [] in
      let specs = ref [] in
      let dedicated = ref [] in
      let forbids = ref [] in
      let scc_stages = Hashtbl.create 8 in
      let floors = Hashtbl.create 8 in
      let lat = ref None in
      M.iter
        (fun h e ->
          match h with
          | Boost op -> boosts := (op, boost_delta e) :: !boosts
          | Speculate op -> specs := op :: !specs
          | Dedicate op -> dedicated := op :: !dedicated
          | Forbid (op, inst) -> forbids := (op, inst) :: !forbids
          | Scc_stage (k, s) ->
              let prev = Option.value (Hashtbl.find_opt scc_stages k) ~default:0 in
              Hashtbl.replace scc_stages k (max prev s)
          | Resource_floor (rt, n) ->
              let prev = Option.value (Hashtbl.find_opt floors rt) ~default:0 in
              Hashtbl.replace floors rt (max prev n)
          | Latency_floor li ->
              lat := Some (match !lat with Some l -> min l li | None -> li))
        t;
      let dedup l = List.sort_uniq compare l in
      let sorted_tbl tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare in
      {
        o with
        Scheduler.priority_boosts = dedup (!boosts @ o.Scheduler.priority_boosts);
        speculated_ops = dedup (!specs @ o.Scheduler.speculated_ops);
        dedicated_ops = dedup (!dedicated @ o.Scheduler.dedicated_ops);
        forbidden_pairs = dedup (!forbids @ o.Scheduler.forbidden_pairs);
        scc_stage_hints = sorted_tbl scc_stages;
        resource_floors = sorted_tbl floors;
        latency_floor =
          (match (!lat, o.Scheduler.latency_floor) with
          | Some a, Some b -> Some (min a b)
          | (Some _ as s), None | None, (Some _ as s) -> s
          | None, None -> None);
      }
    end
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
  let add ?kind ?weight hint = h := Hints.add ?kind ?weight hint !h in
  (* --- the expert's converged corrective state (replay hints) --- *)
  Dfg.iter_ops dfg (fun o -> if o.Dfg.speculated then add (Hints.Speculate o.Dfg.id));
  Hashtbl.iter (fun (op, inst) () -> add (Hints.Forbid (op, inst))) b.Binding.forbidden;
  Hashtbl.iter (fun op () -> add (Hints.Dedicate op)) b.Binding.dedicated;
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
      if stage > 0 then add ~kind:Hints.Scc_window (Hints.Scc_stage (k, stage)))
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
          add ~kind:Hints.Slack_cone ~weight:(1.0 +. severity) (Hints.Boost op);
        List.iter
          (fun (e : Dfg.edge) -> if e.Dfg.distance = 0 then walk e.Dfg.src (depth - 1))
          (Dfg.in_edges dfg op)
      end
    in
    walk op0 cone_depth
  in
  List.iter
    (fun op ->
      let sl = Netlist.endpoint_slack net op in
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
        List.iter (fun op -> add ~kind:Hints.Busy_clique ~weight:0.5 (Hints.Boost op)) iops)
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
