(** Pipeline folding (Section V, Step II).

    After a pipelined region is scheduled in LI states, equivalent control
    steps (congruent modulo II) are folded onto single kernel states: the
    loop body becomes a kernel of II states, each executing the union of the
    operations of its folded steps, with every operation predicated by the
    activity of its pipeline stage.  The prologue fills the stages one
    initiation interval apart; the epilogue drains them; a stalling
    condition freezes all stages.

    Folding is a pure bookkeeping transform over the schedule — the
    scheduler guaranteed no resource is shared between equivalent steps and
    every SCC sits within one stage, so the fold cannot fail.  [validate]
    re-checks both properties plus the inter-iteration (modulo) dependency
    constraint, and is exercised heavily by the property tests. *)

open Hls_ir

type t = {
  f_ii : int;
  f_li : int;
  f_stages : int;
  f_kernel : (int, int * int) Hashtbl.t;
      (** op -> (kernel state = step mod II, stage = step / II) *)
}

(** Fold a successful schedule.  For a non-pipelined region this is the
    identity fold: one stage, kernel = the LI states themselves. *)
let fold (s : Scheduler.t) : t =
  let region = s.Scheduler.s_region in
  let ii = Region.ii region in
  let li = s.Scheduler.s_li in
  let kernel = Hashtbl.create 64 in
  Hls_netlist.Netlist.iter_placements s.Scheduler.s_binding.Binding.net (fun op pl ->
      let step = pl.Binding.pl_step in
      Hashtbl.replace kernel op (step mod ii, step / ii));
  { f_ii = ii; f_li = li; f_stages = (li + ii - 1) / ii; f_kernel = kernel }

let kernel_state t op = Hashtbl.find_opt t.f_kernel op

(** Ops executing in kernel state [state] for stage [stage]. *)
let ops_at t ~state ~stage =
  Hashtbl.fold
    (fun op (st, sg) acc -> if st = state && sg = stage then op :: acc else acc)
    t.f_kernel []
  |> List.sort compare

(** Re-check the folding invariants:
    - no two ops bound to the same instance land in the same kernel state
      (unless their guards are mutually exclusive);
    - every SCC of the region occupies a single stage;
    - every loop-carried edge satisfies the modulo constraint
      [step(dst) >= finish(src) - distance*II + 1]. *)
let validate (s : Scheduler.t) (t : t) : string list =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let binding = s.Scheduler.s_binding in
  let region = s.Scheduler.s_region in
  let dfg = region.Region.dfg in
  (* resource conflicts per kernel state *)
  List.iter
    (fun (inst : Binding.inst) ->
      let by_state = Hashtbl.create 4 in
      List.iter
        (fun op ->
          match kernel_state t op with
          | Some (st, _) ->
              let prev = Option.value (Hashtbl.find_opt by_state st) ~default:[] in
              List.iter
                (fun o ->
                  let g1 = (Dfg.find dfg o).Dfg.guard and g2 = (Dfg.find dfg op).Dfg.guard in
                  if not (Guard.mutually_exclusive g1 g2) then
                    err "instance %d: ops %d and %d collide in kernel state %d" inst.Binding.inst_id
                      o op st)
                prev;
              Hashtbl.replace by_state st (op :: prev)
          | None -> err "op %d bound to instance %d but not folded" op inst.Binding.inst_id)
        inst.Binding.bound)
    (Hls_netlist.Netlist.insts binding.Binding.net);
  (* SCC stage confinement; a sequential region is one stage, where it
     holds by construction *)
  if Region.is_pipelined region then
    List.iter
      (fun scc ->
        let stages =
          List.filter_map (fun op -> Option.map snd (kernel_state t op)) scc
          |> List.sort_uniq compare
        in
        match stages with
        | [] | [ _ ] -> ()
        | _ -> err "SCC [%s] spans stages" (String.concat ";" (List.map string_of_int scc)))
      (Region.sccs region);
  (* modulo dependency constraint *)
  Dfg.iter_ops dfg (fun op ->
      List.iter
        (fun e ->
          if e.Dfg.distance > 0 && Region.mem region e.Dfg.src && Region.mem region e.Dfg.dst then
            match (Binding.placement binding e.Dfg.src, Binding.placement binding e.Dfg.dst) with
            | Some sp, Some dp ->
                if dp.Binding.pl_step < sp.Binding.pl_finish - (e.Dfg.distance * t.f_ii) + 1 then
                  err "loop-carried edge %d->%d violates the modulo constraint" e.Dfg.src e.Dfg.dst
            | _ -> ())
        (Dfg.in_edges dfg op.Dfg.id));
  List.rev !errs

(** Render the kernel as the paper's Fig. 5: one row per kernel state, one
    column per pipeline stage. *)
let to_table (s : Scheduler.t) (t : t) : string list list =
  let dfg = s.Scheduler.s_region.Region.dfg in
  let header =
    "state \\ stage" :: List.init t.f_stages (fun k -> Printf.sprintf "Stage%d" (k + 1))
  in
  let rows =
    List.init t.f_ii (fun st ->
        Printf.sprintf "cycle %d" (st + 1)
        :: List.init t.f_stages (fun sg ->
               ops_at t ~state:st ~stage:sg
               |> List.filter (fun op -> Opkind.is_resource_op (Dfg.find dfg op).Dfg.kind
                                         || (match (Dfg.find dfg op).Dfg.kind with
                                             | Opkind.Read _ | Opkind.Write _ -> true
                                             | _ -> false))
               |> List.map (fun op -> (Dfg.find dfg op).Dfg.name)
               |> String.concat ", "))
  in
  header :: rows
