(** The relaxation expert: each restraint kind it answers leads
    [Expert.choose_many] to the paper's action for it, on a region whose
    latency bound is already reached, so adding a state never competes. *)

open Hls_ir
open Hls_core
open Hls_techlib

let lib = Library.artisan90
let mul_rt = { Resource.rclass = Opkind.R_mul; in_widths = [ 32; 32 ]; out_width = 32 }

(* two reads into a multiply, the multiply into an add; with [ii] the
   add accumulates over iterations, an SCC of its own *)
let region ?ii () =
  let dfg = Dfg.create () in
  let read p = (Dfg.add_op dfg (Opkind.Read p) ~width:32 ~name:p).Dfg.id in
  let a = read "a" and b = read "b" in
  let mul = (Dfg.add_op dfg (Opkind.Bin Opkind.Mul) ~width:32 ~name:"mul").Dfg.id in
  let acc = (Dfg.add_op dfg (Opkind.Bin Opkind.Add) ~width:32 ~name:"acc").Dfg.id in
  Dfg.connect dfg ~src:a ~dst:mul ~port:0;
  Dfg.connect dfg ~src:b ~dst:mul ~port:1;
  Dfg.connect dfg ~src:mul ~dst:acc ~port:0;
  if ii <> None then Dfg.connect dfg ~src:acc ~dst:acc ~port:1 ~distance:1;
  let pipeline = Option.map (fun ii -> { Region.ii }) ii in
  (Region.create ~min_steps:2 ~max_steps:2 ?pipeline ~name:"mac" dfg, mul, acc)

(* the first action [choose_many] returns for one fatal restraint *)
let choice ?(clock_ps = 1600.0) ?(sccs = []) region ~op ~fail =
  let binding = Binding.create ~lib ~clock_ps region in
  ignore (Binding.add_inst binding mul_rt);
  Binding.reset_pass binding;
  let scc_of id = List.find_index (List.mem id) sccs in
  match
    Expert.choose_many ~scc_move:true ~binding ~region
      ~restraints:[ Restraint.make ~op ~step:0 ~fail ~fatal:true ]
      ~sccs ~scc_of ~scc_stage:(fun _ -> 0)
  with
  | [] -> None
  | (a, _) :: _ -> Some (Expert.action_to_string a)

let check name expected got =
  Alcotest.(check (option string)) name (Option.map Expert.action_to_string expected) got

let test_busy_adds_resource () =
  let r, mul, _ = region () in
  check "busy multiplier" (Some (Expert.Add_resource (mul_rt, 1)))
    (choice r ~op:mul ~fail:(Restraint.F_busy mul_rt))

let test_cycle_forbids_pair () =
  let r, mul, _ = region () in
  check "comb cycle through inst 0" (Some (Expert.Forbid (mul, 0)))
    (choice r ~op:mul ~fail:(Restraint.F_cycle 0))

let test_scc_member_moves_scc () =
  let r, _, acc = region ~ii:1 () in
  Alcotest.(check bool) "two stages to move between" true (Region.n_stages r = 2);
  check "failing accumulator" (Some (Expert.Move_scc 0))
    (choice r ~sccs:[ [ acc ] ] ~op:acc ~fail:(Restraint.F_slack (-100.0)))

(* a forbidden pair leaves the op one instance short: a fresh one serves
   it when the op fits a clock cycle, and nothing does when it cannot *)
let test_forbidden_adds_resource () =
  let r, mul, _ = region () in
  check "forbidden multiply" (Some (Expert.Add_resource (mul_rt, 1)))
    (choice r ~op:mul ~fail:Restraint.F_forbidden);
  check "forbidden multiply slower than the clock" None
    (choice ~clock_ps:400.0 r ~op:mul ~fail:Restraint.F_forbidden)

let suite =
  [
    Alcotest.test_case "busy: add a resource" `Quick test_busy_adds_resource;
    Alcotest.test_case "comb cycle: forbid the pair" `Quick test_cycle_forbids_pair;
    Alcotest.test_case "failing SCC member: move the SCC" `Quick test_scc_member_moves_scc;
    Alcotest.test_case "forbidden pair: add a resource" `Quick test_forbidden_adds_resource;
  ]
