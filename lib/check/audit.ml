(** Post-schedule validator.  See the interface for the rule catalogue;
    the logic mirrors what the property tests have always demanded of a
    successful schedule, factored here so the flow can audit every pass
    (and every degraded tier) under [--paranoid]. *)

open Hls_ir
open Hls_core
module Netlist = Hls_netlist.Netlist

type violation = { v_rule : string; v_message : string }

let to_strings vs = List.map (fun v -> Printf.sprintf "%s: %s" v.v_rule v.v_message) vs

let run ?(check_timing = true) (region : Region.t) (s : Scheduler.t) (fold : Pipeline.t) :
    violation list =
  let dfg = region.Region.dfg in
  let li = s.Scheduler.s_li in
  let ii = Region.ii region in
  let nl = s.Scheduler.s_binding.Binding.net in
  let lib = Netlist.lib nl in
  let viols = ref [] in
  let fail rule fmt =
    Printf.ksprintf (fun m -> viols := { v_rule = rule; v_message = m } :: !viols) fmt
  in
  (* placement: every member placed, within the latency interval *)
  List.iter
    (fun op ->
      match Netlist.placement nl op.Dfg.id with
      | None -> fail "placement" "op %d (%s) is not placed" op.Dfg.id op.Dfg.name
      | Some pl ->
          if pl.Netlist.pl_step < 0 || pl.Netlist.pl_finish > li - 1 then
            fail "placement" "op %d (%s) at steps %d..%d outside [0,%d)" op.Dfg.id op.Dfg.name
              pl.Netlist.pl_step pl.Netlist.pl_finish li)
    (Region.member_ops region);
  (* dependency ordering and modulo constraints *)
  Dfg.iter_ops dfg (fun op ->
      List.iter
        (fun e ->
          if Region.mem region e.Dfg.src && Region.mem region e.Dfg.dst then
            match (Netlist.placement nl e.Dfg.src, Netlist.placement nl e.Dfg.dst) with
            | Some sp, Some dp ->
                if e.Dfg.distance = 0 then begin
                  let p_op = Dfg.find dfg e.Dfg.src in
                  let min_step =
                    if Hls_techlib.Library.op_latency lib p_op.Dfg.kind > 1 then
                      sp.Netlist.pl_finish + 1
                    else sp.Netlist.pl_finish
                  in
                  if dp.Netlist.pl_step < min_step then
                    fail "dep-order" "edge %d->%d: consumer at step %d before producer finish %d"
                      e.Dfg.src e.Dfg.dst dp.Netlist.pl_step min_step
                end
                else if dp.Netlist.pl_step < sp.Netlist.pl_finish - (e.Dfg.distance * ii) + 1 then
                  fail "modulo" "loop-carried edge %d->%d (distance %d) violates the modulo constraint"
                    e.Dfg.src e.Dfg.dst e.Dfg.distance
            | _ -> ())
        (Dfg.in_edges dfg op.Dfg.id));
  (* busy discipline on equivalence classes of steps *)
  List.iter
    (fun (inst : Netlist.inst) ->
      let by_slot = Hashtbl.create 8 in
      List.iter
        (fun o ->
          match Netlist.placement nl o with
          | Some pl ->
              for st = pl.Netlist.pl_step to pl.Netlist.pl_finish do
                let slot = if Region.is_pipelined region then st mod ii else st in
                let prev = Option.value (Hashtbl.find_opt by_slot slot) ~default:[] in
                List.iter
                  (fun o' ->
                    if
                      not
                        (Guard.mutually_exclusive (Dfg.find dfg o).Dfg.guard
                           (Dfg.find dfg o').Dfg.guard)
                    then
                      fail "slot-collision" "ops %d and %d share instance %d on equivalent step %d"
                        o o' inst.Netlist.inst_id slot)
                  prev;
                Hashtbl.replace by_slot slot (o :: prev)
              done
          | None -> ())
        inst.Netlist.bound)
    (Netlist.insts nl);
  (* accurate timing is met *)
  if check_timing then begin
    let wns = Hls_timing.Graph.worst_slack (Netlist.graph nl) in
    if wns < -0.001 then fail "timing" "negative endpoint slack: %.0f ps" wns
  end;
  (* folding invariants *)
  List.iter (fun m -> fail "fold" "%s" m) (Pipeline.validate s fold);
  List.rev !viols
