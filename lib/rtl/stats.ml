(** Area roll-up of a scheduled design: resources (post-synthesis sized),
    sharing muxes, registers, register muxes and control.

    This is the figure the paper's Table 3 and Figures 10/11 report.  The
    resource component defaults to nominal library areas; when the schedule
    carries negative slack (the Table 4 ablation), the
    {!Hls_timing.Synthesize} sizing result substitutes upsized areas. *)

open Hls_ir
open Hls_techlib
open Hls_core
module Netlist = Hls_netlist.Netlist

type breakdown = {
  a_resources : float;
  a_input_muxes : float;
  a_registers : float;
  a_reg_muxes : float;
  a_control : float;
  a_total : float;
  n_registers : int;
  n_instances : int;
  wns : float;  (** worst negative slack after sizing (0 = timing met) *)
}

(** Compute the breakdown.  [synth] supplies post-sizing resource areas
    (from {!Hls_timing.Synthesize.run} on the schedule's timing report);
    when omitted, the accurate timing report is synthesized internally.
    [io_widths] lists the design's port widths — each port carries an I/O
    register. *)
let area ?(synth : Hls_timing.Synthesize.result option) ?(io_widths : int list = [])
    (s : Scheduler.t) : breakdown =
  let net = s.Scheduler.s_binding.Binding.net in
  let lib = Netlist.lib net in
  let region = s.Scheduler.s_region in
  let synth =
    match synth with
    | Some r -> r
    | None ->
        Hls_timing.Synthesize.run lib
          (Hls_timing.Graph.worst_paths (Netlist.graph net) ~endpoints:(Netlist.registered_ops net)
             ~rtype:(fun i -> (Netlist.find_inst net i).Netlist.rtype))
  in
  let used_insts = List.filter (fun i -> i.Netlist.bound <> []) (Netlist.insts net) in
  let sized_area inst =
    match
      List.find_opt (fun (i, _, _, _) -> i = inst.Netlist.inst_id) synth.Hls_timing.Synthesize.s_per_inst
    with
    | Some (_, _, _, a) -> a
    | None -> Library.area lib inst.Netlist.rtype
  in
  let a_resources = List.fold_left (fun acc i -> acc +. sized_area i) 0.0 used_insts in
  let a_input_muxes =
    List.fold_left
      (fun acc inst ->
        let ports = List.length inst.Netlist.rtype.Resource.in_widths in
        let per_port p =
          let k = Netlist.mux_inputs net inst ~port:p in
          let w = List.nth inst.Netlist.rtype.Resource.in_widths p in
          Library.mux_area lib ~inputs:k ~width:w
        in
        acc +. List.fold_left (fun a p -> a +. per_port p) 0.0 (List.init ports Fun.id))
      0.0 used_insts
  in
  let ra = Regalloc.analyze s in
  let a_registers =
    List.fold_left
      (fun acc r -> acc +. (float_of_int r.Regalloc.r_copies *. Library.reg_area lib ~width:r.Regalloc.r_width))
      0.0 ra.Regalloc.regs
  in
  let a_reg_muxes =
    List.fold_left
      (fun acc r ->
        acc +. Library.mux_area lib ~inputs:(List.length r.Regalloc.r_values) ~width:r.Regalloc.r_width)
      0.0 (Regalloc.shared_regs ra)
  in
  let kernel_states = Region.ii region in
  let stages = Region.n_stages region in
  let a_control =
    lib.Library.control_area_base
    +. (lib.Library.control_area_per_state *. float_of_int kernel_states)
    +. (if Region.is_pipelined region then
          (* stage-valid registers and per-stage gating *)
          float_of_int stages *. (lib.Library.a_ff_per_bit +. (0.35 *. lib.Library.control_area_per_state))
        else 0.0)
  in
  let a_io = List.fold_left (fun acc w -> acc +. Library.reg_area lib ~width:w) 0.0 io_widths in
  let a_control = a_control +. a_io in
  {
    a_resources;
    a_input_muxes;
    a_registers;
    a_reg_muxes;
    a_control;
    a_total = a_resources +. a_input_muxes +. a_registers +. a_reg_muxes +. a_control;
    n_registers = Regalloc.n_registers ra;
    n_instances = List.length used_insts;
    wns = synth.Hls_timing.Synthesize.s_wns;
  }

(** Activity-aware power estimate in mW.

    Dynamic power: each op execution activates its resource (switching
    energy proportional to sized area); each register copy toggles once per
    initiation interval; the controller toggles every cycle.  Executions
    per iteration come from the simulator's activity counts (falling back
    to 1.0 per op).  Static power: leakage proportional to total area.

    [clock_ps] is the operating clock; one loop iteration completes every
    [II * clock_ps]. *)
let power ?(activity : (int, int) Hashtbl.t option) ?(iters = 1) (s : Scheduler.t)
    (bd : breakdown) ~clock_ps : float =
  let net = s.Scheduler.s_binding.Binding.net in
  let lib = Netlist.lib net in
  let region = s.Scheduler.s_region in
  let dfg = region.Region.dfg in
  let ii = Region.ii region in
  let execs_per_iter op_id =
    match activity with
    | Some tbl ->
        float_of_int (Option.value (Hashtbl.find_opt tbl op_id) ~default:0)
        /. float_of_int (max 1 iters)
    | None -> 1.0
  in
  let op_energy =
    Netlist.fold_placements net
      (fun op_id _pl acc ->
        let op = Dfg.find dfg op_id in
        match Resource.of_op dfg op with
        | Some rt when Opkind.is_resource_op op.Dfg.kind ->
            acc +. (Library.energy lib rt *. execs_per_iter op_id)
        | _ -> acc)
      0.0
  in
  let ra = Regalloc.analyze s in
  let reg_energy =
    List.fold_left
      (fun acc r ->
        acc +. (float_of_int r.Regalloc.r_copies *. Library.reg_energy lib ~width:r.Regalloc.r_width))
      0.0 ra.Regalloc.regs
  in
  let control_energy = 0.002 *. bd.a_control *. float_of_int ii in
  let energy_per_iter_pj = op_energy +. reg_energy +. control_energy in
  (* pJ / ps = W; convert to mW *)
  let dynamic_mw = energy_per_iter_pj /. (float_of_int ii *. clock_ps) *. 1000.0 in
  let leakage_mw = Library.leakage_mw lib ~total_area:bd.a_total in
  dynamic_mw +. leakage_mw

let pp_breakdown fmt b =
  Format.fprintf fmt
    "area %.0f (resources %.0f, input muxes %.0f, registers %.0f, reg muxes %.0f, control %.0f; \
     %d regs, %d instances%s)"
    b.a_total b.a_resources b.a_input_muxes b.a_registers b.a_reg_muxes b.a_control b.n_registers
    b.n_instances
    (if b.wns < -0.5 then Printf.sprintf ", WNS %.0f ps" b.wns else "")
