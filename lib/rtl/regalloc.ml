(** Register allocation for values crossing control-step boundaries.

    Every scheduled value that is consumed in a later step (or carried to
    the next loop iteration, or written to an output port) needs storage.
    Two refinements mirror what the paper's area numbers imply:

    - {b pipelining copies}: in a folded pipeline a value produced at step
      [s] and consumed at step [u] must survive [u - s] cycles while a new
      instance is produced every II cycles, so it occupies
      [ceil((u - s) / II)] register copies (a shift chain);
    - {b register sharing}: in sequential schedules, values with disjoint
      life spans share a register (which is why shared registers carry the
      input mux of Fig. 8); loop-carried and cross-region values keep
      dedicated registers.

    Sharing is greedy interval allocation per width class. *)

open Hls_ir
open Hls_core
module Netlist = Hls_netlist.Netlist

type value_info = {
  v_op : int;
  v_width : int;
  v_def : int;  (** producing step (finish step for multi-cycle ops) *)
  v_last_use : int;  (** last consuming step within the region *)
  v_copies : int;  (** pipeline shift-chain length *)
  v_dedicated : bool;  (** loop-carried / cross-region: not shareable *)
}

type reg = { r_width : int; r_values : value_info list; r_copies : int }

type t = { values : value_info list; regs : reg list }

let analyze (s : Scheduler.t) : t =
  let nl = s.Scheduler.s_binding.Binding.net in
  let region = s.Scheduler.s_region in
  let dfg = region.Region.dfg in
  let ii = Region.ii region in
  let li = s.Scheduler.s_li in
  let values =
    List.filter_map
      (fun id ->
        let op = Dfg.find dfg id in
        match Netlist.placement nl id with
        | None -> None
        | Some pl ->
            let def = pl.Netlist.pl_finish in
            let dedicated = ref false in
            let last_use = ref def in
            List.iter
              (fun e ->
                if e.Dfg.distance > 0 then begin
                  dedicated := true;
                  last_use := max !last_use (li - 1)
                end
                else if not (Region.mem region e.Dfg.dst) then begin
                  dedicated := true;
                  last_use := max !last_use (li - 1)
                end
                else
                  match Netlist.placement nl e.Dfg.dst with
                  | Some cpl -> last_use := max !last_use cpl.Netlist.pl_step
                  | None -> ())
              (Dfg.out_edges dfg id);
            let is_write = match op.Dfg.kind with Opkind.Write _ -> true | _ -> false in
            if (not is_write) && !last_use <= def && not !dedicated then None
            else
              let span = max 0 (!last_use - def) in
              let copies = if Region.is_pipelined region then max 1 ((span + ii - 1) / ii) else 1 in
              Some
                {
                  v_op = id;
                  v_width = op.Dfg.width;
                  v_def = def;
                  v_last_use = !last_use;
                  v_copies = copies;
                  v_dedicated = !dedicated || is_write || Region.is_pipelined region;
                })
      (Netlist.registered_ops nl)
  in
  (* greedy interval sharing for non-dedicated values *)
  let shareable = List.filter (fun v -> not v.v_dedicated) values in
  let dedicated = List.filter (fun v -> v.v_dedicated) values in
  let sorted = List.sort (fun a b -> compare (a.v_width, a.v_def) (b.v_width, b.v_def)) shareable in
  let pools : reg list ref = ref [] in
  List.iter
    (fun v ->
      let fits r =
        r.r_width = v.v_width
        && List.for_all (fun u -> u.v_last_use < v.v_def || v.v_last_use < u.v_def) r.r_values
      in
      match List.find_opt fits !pools with
      | Some r ->
          pools :=
            { r with r_values = v :: r.r_values } :: List.filter (fun r' -> r' != r) !pools
      | None -> pools := { r_width = v.v_width; r_values = [ v ]; r_copies = 1 } :: !pools)
    sorted;
  let dedicated_regs =
    List.map (fun v -> { r_width = v.v_width; r_values = [ v ]; r_copies = v.v_copies }) dedicated
  in
  { values; regs = !pools @ dedicated_regs }

let n_registers t = List.fold_left (fun acc r -> acc + r.r_copies) 0 t.regs

(** Registers written by more than one value need an input sharing mux. *)
let shared_regs t = List.filter (fun r -> List.length r.r_values > 1) t.regs
