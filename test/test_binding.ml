(** The binder's netlist timing model: the paper's Fig. 8 arithmetic is
    reproduced op by op, and the structural comb-cycle avoidance rejects
    the Fig. 6 pattern. *)

open Hls_ir
open Hls_core
open Hls_techlib
module Netlist = Hls_netlist.Netlist
module Screen = Hls_netlist.Screen
module G = Hls_timing.Graph

let lib = Library.artisan90
let clock = 1600.0

(* a miniature region: chrome*mask -> +aver -> >th, as in Fig. 8 *)
let fig8_region () =
  let dfg = Dfg.create () in
  let read p = (Dfg.add_op dfg (Opkind.Read p) ~width:32 ~name:(p ^ "_read")).Dfg.id in
  let chrome = read "chrome" and mask = read "mask" and aver = read "aver" and th = read "th" in
  let mul1 = (Dfg.add_op dfg (Opkind.Bin Opkind.Mul) ~width:32 ~name:"mul1").Dfg.id in
  (* two more muls so the multiplier class is shared (pre-allocated muxes) *)
  let mul2 = (Dfg.add_op dfg (Opkind.Bin Opkind.Mul) ~width:32 ~name:"mul2").Dfg.id in
  let mul3 = (Dfg.add_op dfg (Opkind.Bin Opkind.Mul) ~width:32 ~name:"mul3").Dfg.id in
  let add = (Dfg.add_op dfg (Opkind.Bin Opkind.Add) ~width:32 ~name:"add").Dfg.id in
  let gt = (Dfg.add_op dfg (Opkind.Bin Opkind.Gt) ~width:1 ~name:"gt").Dfg.id in
  Dfg.connect dfg ~src:chrome ~dst:mul1 ~port:0;
  Dfg.connect dfg ~src:mask ~dst:mul1 ~port:1;
  Dfg.connect dfg ~src:mul1 ~dst:add ~port:0;
  Dfg.connect dfg ~src:aver ~dst:add ~port:1;
  Dfg.connect dfg ~src:add ~dst:gt ~port:0;
  Dfg.connect dfg ~src:th ~dst:gt ~port:1;
  (* keep mul2/mul3 schedulable elsewhere *)
  Dfg.connect dfg ~src:chrome ~dst:mul2 ~port:0;
  Dfg.connect dfg ~src:mask ~dst:mul2 ~port:1;
  Dfg.connect dfg ~src:chrome ~dst:mul3 ~port:0;
  Dfg.connect dfg ~src:mask ~dst:mul3 ~port:1;
  let region = Region.create ~min_steps:3 ~max_steps:3 ~name:"fig8" dfg in
  (region, chrome, mask, mul1, add, gt)

let mk_binding region =
  let b = Binding.create ~lib ~clock_ps:clock region in
  let mul_rt = { Resource.rclass = Opkind.R_mul; in_widths = [ 32; 32 ]; out_width = 32 } in
  let add_rt = { Resource.rclass = Opkind.R_addsub; in_widths = [ 32; 32 ]; out_width = 32 } in
  let cmp_rt = { Resource.rclass = Opkind.R_cmp_rel; in_widths = [ 32; 32 ]; out_width = 1 } in
  let mi = Binding.add_inst b mul_rt in
  let ai = Binding.add_inst b add_rt in
  let ci = Binding.add_inst b cmp_rt in
  Binding.reset_pass b;
  (b, mi.Binding.inst_id, ai.Binding.inst_id, ci.Binding.inst_id)

let dfg_of region = region.Region.dfg

let bind_ok b op ~step ~inst_opt =
  match Binding.try_bind b op ~step ~inst_opt with
  | Ok () -> ()
  | Error f -> Alcotest.failf "bind failed: %s" (Restraint.fail_to_string f)

(* the above got unwieldy; a cleaner end-to-end variant *)
let test_fig8_clean () =
  let region, chrome, mask, mul1, add, gt = fig8_region () in
  let dfg = dfg_of region in
  let b, mi, ai, ci = mk_binding region in
  ignore chrome;
  ignore mask;
  (* place all reads *)
  List.iter
    (fun o ->
      match o.Dfg.kind with
      | Opkind.Read _ -> bind_ok b o ~step:0 ~inst_opt:None
      | _ -> ())
    (Dfg.ops dfg);
  bind_ok b (Dfg.find dfg mul1) ~step:0 ~inst_opt:(Some mi);
  Alcotest.(check (float 0.5)) "Fig 8a: mul arrival 1080" 1080.0
    (Option.get (G.arrival b.Binding.graph mul1));
  bind_ok b (Dfg.find dfg add) ~step:0 ~inst_opt:(Some ai);
  (* Fig 8b: 40 + 110 + 930 + 350 = 1430; endpoint 1430+110+40 = 1580 *)
  Alcotest.(check (float 0.5)) "Fig 8b: add arrival 1430" 1430.0
    (Option.get (G.arrival b.Binding.graph add));
  Alcotest.(check (float 0.5)) "Fig 8b: add slack 20" 20.0
    (G.endpoint_slack b.Binding.graph add);
  (* Fig 8c: gt would land at 1800 -> slack -200: the binder rejects it *)
  (match Binding.try_bind b (Dfg.find dfg gt) ~step:0 ~inst_opt:(Some ci) with
  | Ok () -> Alcotest.fail "gt must not fit in state s1"
  | Error (Restraint.F_slack s) -> Alcotest.(check (float 0.5)) "slack -200" (-200.0) s
  | Error f -> Alcotest.failf "expected slack failure, got %s" (Restraint.fail_to_string f));
  (* it fits in the next state from a register *)
  bind_ok b (Dfg.find dfg gt) ~step:1 ~inst_opt:(Some ci)

let test_busy_and_equivalence () =
  let region, _, _, mul1, _, _ = fig8_region () in
  let dfg = dfg_of region in
  let b, mi, _, _ = mk_binding region in
  List.iter
    (fun o ->
      match o.Dfg.kind with Opkind.Read _ -> bind_ok b o ~step:0 ~inst_opt:None | _ -> ())
    (Dfg.ops dfg);
  bind_ok b (Dfg.find dfg mul1) ~step:0 ~inst_opt:(Some mi);
  (* another mul on the same instance in the same step must be busy *)
  let mul2 =
    List.find
      (fun o -> o.Dfg.kind = Opkind.Bin Opkind.Mul && o.Dfg.id <> mul1)
      (Dfg.ops dfg)
  in
  (match Binding.try_bind b mul2 ~step:0 ~inst_opt:(Some mi) with
  | Error (Restraint.F_busy _) -> ()
  | Ok () -> Alcotest.fail "same instance, same step must be busy"
  | Error f -> Alcotest.failf "expected busy, got %s" (Restraint.fail_to_string f));
  (* a later step is fine *)
  bind_ok b mul2 ~step:1 ~inst_opt:(Some mi)

let test_pipelined_equivalence_busy () =
  (* with II=2, steps 0 and 2 are equivalent: an op in step 0 blocks the
     instance in step 2 *)
  let dfg = Dfg.create () in
  let r1 = (Dfg.add_op dfg (Opkind.Read "a") ~width:32).Dfg.id in
  let m1 = (Dfg.add_op dfg (Opkind.Bin Opkind.Mul) ~width:32 ~name:"m1").Dfg.id in
  let m2 = (Dfg.add_op dfg (Opkind.Bin Opkind.Mul) ~width:32 ~name:"m2").Dfg.id in
  Dfg.connect dfg ~src:r1 ~dst:m1 ~port:0;
  Dfg.connect dfg ~src:r1 ~dst:m1 ~port:1;
  Dfg.connect dfg ~src:r1 ~dst:m2 ~port:0;
  Dfg.connect dfg ~src:r1 ~dst:m2 ~port:1;
  let region = Region.create ~min_steps:3 ~max_steps:3 ~pipeline:{ Region.ii = 2 } ~name:"eq" dfg in
  let b = Binding.create ~lib ~clock_ps:clock region in
  let mi =
    Binding.add_inst b { Resource.rclass = Opkind.R_mul; in_widths = [ 32; 32 ]; out_width = 32 }
  in
  Binding.reset_pass b;
  bind_ok b (Dfg.find dfg r1) ~step:0 ~inst_opt:None;
  bind_ok b (Dfg.find dfg m1) ~step:0 ~inst_opt:(Some mi.Binding.inst_id);
  (match Binding.try_bind b (Dfg.find dfg m2) ~step:2 ~inst_opt:(Some mi.Binding.inst_id) with
  | Error (Restraint.F_busy _) -> ()
  | Ok () -> Alcotest.fail "equivalent steps must not share a resource"
  | Error f -> Alcotest.failf "expected busy, got %s" (Restraint.fail_to_string f));
  (* the odd step is a different equivalence class *)
  bind_ok b (Dfg.find dfg m2) ~step:1 ~inst_opt:(Some mi.Binding.inst_id)

let test_comb_cycle_fig6 () =
  (* Fig. 6: adder A chains into adder B in state s1, B chains into A in
     state s2 -> structural cycle through the sharing muxes, rejected *)
  let dfg = Dfg.create () in
  let read p = (Dfg.add_op dfg (Opkind.Read p) ~width:16 ~name:p).Dfg.id in
  let a = read "a" and bb = read "b" and c = read "c" and d = read "d" and p = read "p" and q = read "q" in
  let x = (Dfg.add_op dfg (Opkind.Bin Opkind.Add) ~width:16 ~name:"x").Dfg.id in
  let y = (Dfg.add_op dfg (Opkind.Bin Opkind.Add) ~width:16 ~name:"y").Dfg.id in
  let w = (Dfg.add_op dfg (Opkind.Bin Opkind.Add) ~width:16 ~name:"w").Dfg.id in
  let v = (Dfg.add_op dfg (Opkind.Bin Opkind.Add) ~width:16 ~name:"v").Dfg.id in
  (* s1: x = a + b; y = x + c  (A feeds B) *)
  Dfg.connect dfg ~src:a ~dst:x ~port:0;
  Dfg.connect dfg ~src:bb ~dst:x ~port:1;
  Dfg.connect dfg ~src:x ~dst:y ~port:0;
  Dfg.connect dfg ~src:c ~dst:y ~port:1;
  (* s2: w = d + p; v = w + q  (would put B feeding A) *)
  Dfg.connect dfg ~src:d ~dst:w ~port:0;
  Dfg.connect dfg ~src:p ~dst:w ~port:1;
  Dfg.connect dfg ~src:w ~dst:v ~port:0;
  Dfg.connect dfg ~src:q ~dst:v ~port:1;
  let region = Region.create ~min_steps:2 ~max_steps:2 ~name:"fig6" dfg in
  let b = Binding.create ~lib ~clock_ps:clock region in
  let rt = { Resource.rclass = Opkind.R_addsub; in_widths = [ 16; 16 ]; out_width = 16 } in
  let ia = Binding.add_inst b rt and ib = Binding.add_inst b rt in
  Binding.reset_pass b;
  List.iter
    (fun o -> match o.Dfg.kind with Opkind.Read _ -> bind_ok b o ~step:0 ~inst_opt:None | _ -> ())
    (Dfg.ops dfg);
  bind_ok b (Dfg.find dfg x) ~step:0 ~inst_opt:(Some ia.Binding.inst_id);
  bind_ok b (Dfg.find dfg y) ~step:0 ~inst_opt:(Some ib.Binding.inst_id);
  bind_ok b (Dfg.find dfg w) ~step:1 ~inst_opt:(Some ib.Binding.inst_id);
  (* v on instance A would close A -> B -> A *)
  (match Binding.try_bind b (Dfg.find dfg v) ~step:1 ~inst_opt:(Some ia.Binding.inst_id) with
  | Error (Restraint.F_cycle _) -> ()
  | Ok () -> Alcotest.fail "binding must be rejected: structural comb cycle"
  | Error f -> Alcotest.failf "expected cycle rejection, got %s" (Restraint.fail_to_string f))

let test_reset_pass_clears_chain () =
  (* regression: reset_pass used to empty the chain detector's adjacency
     table but leave n_edges stale, so a detector that had ever seen
     max_chain_edges edges rejected every chained binding in later passes *)
  let dfg = Dfg.create () in
  let read p = (Dfg.add_op dfg (Opkind.Read p) ~width:16 ~name:p).Dfg.id in
  let a = read "a" and bb = read "b" and c = read "c" in
  let x = (Dfg.add_op dfg (Opkind.Bin Opkind.Add) ~width:16 ~name:"x").Dfg.id in
  let y = (Dfg.add_op dfg (Opkind.Bin Opkind.Add) ~width:16 ~name:"y").Dfg.id in
  Dfg.connect dfg ~src:a ~dst:x ~port:0;
  Dfg.connect dfg ~src:bb ~dst:x ~port:1;
  Dfg.connect dfg ~src:x ~dst:y ~port:0;
  Dfg.connect dfg ~src:c ~dst:y ~port:1;
  let region = Region.create ~min_steps:1 ~max_steps:1 ~name:"chain" dfg in
  let b = Binding.create ~lib ~clock_ps:clock region in
  let rt = { Resource.rclass = Opkind.R_addsub; in_widths = [ 16; 16 ]; out_width = 16 } in
  let ia = Binding.add_inst b rt and ib = Binding.add_inst b rt in
  Binding.reset_pass b;
  List.iter
    (fun o -> match o.Dfg.kind with Opkind.Read _ -> bind_ok b o ~step:0 ~inst_opt:None | _ -> ())
    (Dfg.ops dfg);
  bind_ok b (Dfg.find dfg x) ~step:0 ~inst_opt:(Some ia.Binding.inst_id);
  bind_ok b (Dfg.find dfg y) ~step:0 ~inst_opt:(Some ib.Binding.inst_id);
  Alcotest.(check bool) "chaining x into y recorded an instance edge" true
    (Hls_timing.Cycle_detector.n_edges (Netlist.chain b.Binding.net) > 0);
  Binding.reset_pass b;
  Alcotest.(check int) "reset_pass leaves a fresh detector: zero edges" 0
    (Hls_timing.Cycle_detector.n_edges (Netlist.chain b.Binding.net))

let test_forbidden_pair () =
  let region, _, _, mul1, _, _ = fig8_region () in
  let dfg = dfg_of region in
  let b, mi, _, _ = mk_binding region in
  Binding.forbid b ~op:mul1 ~inst:mi;
  (* idempotent, so feedback extraction sees each pair once *)
  Binding.forbid b ~op:mul1 ~inst:mi;
  Alcotest.(check (list (pair int int))) "one forbidden pair" [ (mul1, mi) ]
    (Binding.forbidden_pairs b);
  List.iter
    (fun o -> match o.Dfg.kind with Opkind.Read _ -> bind_ok b o ~step:0 ~inst_opt:None | _ -> ())
    (Dfg.ops dfg);
  match Binding.try_bind b (Dfg.find dfg mul1) ~step:0 ~inst_opt:(Some mi) with
  | Error Restraint.F_forbidden -> ()
  | Ok () -> Alcotest.fail "forbidden pair must be rejected"
  | Error f -> Alcotest.failf "expected forbidden, got %s" (Restraint.fail_to_string f)

let test_rollback_on_failure () =
  let region, _, _, _, add, gt = fig8_region () in
  let dfg = dfg_of region in
  let b, mi, ai, ci = mk_binding region in
  ignore ci;
  List.iter
    (fun o -> match o.Dfg.kind with Opkind.Read _ -> bind_ok b o ~step:0 ~inst_opt:None | _ -> ())
    (Dfg.ops dfg);
  let mul1 = List.find (fun o -> o.Dfg.name = "mul1") (Dfg.ops dfg) in
  bind_ok b mul1 ~step:0 ~inst_opt:(Some mi);
  bind_ok b (Dfg.find dfg add) ~step:0 ~inst_opt:(Some ai);
  let placements_before = Netlist.fold_placements b.Binding.net (fun _ _ n -> n + 1) 0 in
  let gt_op = Dfg.find dfg gt in
  (match Binding.try_bind b gt_op ~step:0 ~inst_opt:(Some (Binding.add_inst b { Resource.rclass = Opkind.R_cmp_rel; in_widths = [ 32; 32 ]; out_width = 1 }).Binding.inst_id) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected failure");
  Alcotest.(check int) "placement count unchanged after rollback" placements_before
    (Netlist.fold_placements b.Binding.net (fun _ _ n -> n + 1) 0);
  Alcotest.(check bool) "gt not placed" true (Binding.placement b gt = None)

(* Regression for the quick_slack mux overcounting bug: the screen used to
   charge [mux_inputs + 1] per input port even when the candidate op's
   source already fed that port on the instance.  Here mul1 and mul2 read
   the same (chrome, mask) pair, so sharing the multiplier adds no mux
   input — yet the old screen sized a 3-input mux (115 ps instead of 110)
   and rejected a binding whose true endpoint path is 40 + 110 + 930 +
   110 + 40 = 1230 ps.  At a 1232 ps clock the spurious 5 ps pushed the
   estimate to -3 ps, a false F_slack. *)
let test_quick_slack_shared_source () =
  let region, _, _, mul1, _, _ = fig8_region () in
  let dfg = dfg_of region in
  let b = Binding.create ~lib ~clock_ps:1232.0 region in
  let mi =
    (Binding.add_inst b { Resource.rclass = Opkind.R_mul; in_widths = [ 32; 32 ]; out_width = 32 })
      .Binding.inst_id
  in
  Binding.reset_pass b;
  List.iter
    (fun o -> match o.Dfg.kind with Opkind.Read _ -> bind_ok b o ~step:0 ~inst_opt:None | _ -> ())
    (Dfg.ops dfg);
  bind_ok b (Dfg.find dfg mul1) ~step:0 ~inst_opt:(Some mi);
  let mul2 = List.find (fun o -> o.Dfg.name = "mul2") (Dfg.ops dfg) in
  Alcotest.(check bool)
    "screen accepts a same-source cohabitant" true
    (Binding.quick_slack b mul2 ~step:1 ~inst_id:mi >= 0.0);
  bind_ok b mul2 ~step:1 ~inst_opt:(Some mi)

(* The saturation screen's downstream walk.  c = r0 + r1 sits on adder A
   in step 0 and heads a same-step chain d1 = c + r2 (adder B), d2 = d1 +
   r2 (adder C), ...; the candidate n = r3 + r1 binds to A in step 1.  A
   spare adder keeps the class from pre-allocating muxes, so n grows A's
   port 0 from one source (no mux) to two (110 ps) and pushes every
   arrival of the chain up by 110 ps: c 390 -> 500, d1 740 -> 850, d2
   1090 -> 1200.  An endpoint adds the register mux and setup (150 ps);
   n's own endpoint lands at 650 ps. *)
let add_chain ~hops ~clock =
  let dfg = Dfg.create () in
  let read p = (Dfg.add_op dfg (Opkind.Read p) ~width:32 ~name:p).Dfg.id in
  let r0 = read "r0" and r1 = read "r1" and r2 = read "r2" and r3 = read "r3" in
  let add name a b =
    let o = (Dfg.add_op dfg (Opkind.Bin Opkind.Add) ~width:32 ~name).Dfg.id in
    Dfg.connect dfg ~src:a ~dst:o ~port:0;
    Dfg.connect dfg ~src:b ~dst:o ~port:1;
    o
  in
  let c = add "c" r0 r1 in
  let rec chain k prev =
    if k > hops then []
    else
      let d = add (Printf.sprintf "d%d" k) prev r2 in
      d :: chain (k + 1) d
  in
  let ds = chain 1 c in
  let n = add "n" r3 r1 in
  let region = Region.create ~min_steps:2 ~max_steps:2 ~name:"chain" dfg in
  let b = Binding.create ~lib ~clock_ps:clock region in
  let rt = { Resource.rclass = Opkind.R_addsub; in_widths = [ 32; 32 ]; out_width = 32 } in
  let insts = List.init (hops + 2) (fun _ -> (Binding.add_inst b rt).Binding.inst_id) in
  Binding.reset_pass b;
  List.iter
    (fun o -> match o.Dfg.kind with Opkind.Read _ -> bind_ok b o ~step:0 ~inst_opt:None | _ -> ())
    (Dfg.ops dfg);
  List.iteri
    (fun k o -> bind_ok b (Dfg.find dfg o) ~step:0 ~inst_opt:(Some (List.nth insts k)))
    (c :: ds);
  (b, Dfg.find dfg n, List.hd insts)

let trials b = (Netlist.stats b.Binding.net).Netlist.s_trials

let expect_screened_busy ~hops ~clock () =
  let b, n, a = add_chain ~hops ~clock in
  let before = trials b in
  (match Binding.try_bind b n ~step:1 ~inst_opt:(Some a) with
  | Error (Restraint.F_busy _) -> ()
  | Ok () -> Alcotest.fail "the grown mux breaks a chained consumer: must be busy"
  | Error f -> Alcotest.failf "expected busy, got %s" (Restraint.fail_to_string f));
  Alcotest.(check int) "decided without a trial" before (trials b)

(* one hop: d1 lands at 850 + 150 = 1000 ps > 950, c and n keep 300 ps *)
let test_screen_one_hop = expect_screened_busy ~hops:1 ~clock:950.0

(* two hops: d1 keeps 300 ps of slack, d2 lands at 1350 ps > 1300 *)
let test_screen_two_hops = expect_screened_busy ~hops:2 ~clock:1300.0

(* at 1100 ps d1 keeps 100 ps of slack: the screen proves nothing, the
   trial runs and the bind commits *)
let test_screen_consumer_with_slack () =
  let b, n, a = add_chain ~hops:1 ~clock:1100.0 in
  let before = trials b in
  bind_ok b n ~step:1 ~inst_opt:(Some a);
  Alcotest.(check int) "the trial ran" (before + 1) (trials b)

(* A seeded synthetic design, sequential or at [ii], with a tightness
   that varies with the seed *)
let synthetic_region ~seed ~ops ?ii () =
  let profile =
    {
      Hls_designs.Synthetic.default_profile with
      Hls_designs.Synthetic.p_ops = ops;
      p_seed = seed;
      p_tightness = 0.2 +. (float_of_int (seed mod 5) /. 10.0);
    }
  in
  Hls_frontend.Elaborate.main_region ?ii
    (Hls_frontend.Elaborate.design (Hls_designs.Synthetic.design ~profile ()))

(* Replay a finished schedule of a synthetic design op by op, in (step,
   id) order, onto a fresh binder with the same instances.  Before each
   op is replayed, probe it on every compatible instance at its scheduled
   step that the busy table admits: whenever the screen claims a busy
   rejection, run the trial try_bind would run and check that it rolls
   back with the worst slack on some op other than the candidate.  Each
   probe also asks the slack floor, which must never rule out a screen
   that would have proved something.  Returns the counts in [screen_run]. *)
type screen_run = {
  claims : int;
  wrong : int;  (** screen claims whose trial did not end busy *)
  floor_cleared : int;  (** probes the slack floor ruled out *)
  floor_wrong : int;  (** ... of which the full screen proved a rejection *)
}

let screen_vs_trial ~seed ~ops ~clock =
  let region = synthetic_region ~seed ~ops () in
  match Scheduler.schedule ~lib ~clock_ps:clock region with
  | Error _ -> None
  | Ok s ->
      let done_ = s.Scheduler.s_binding in
      let dfg = region.Region.dfg in
      let b = Binding.create ~lib ~clock_ps:clock region in
      List.iter
        (fun (i : Netlist.inst) -> ignore (Binding.add_inst b i.Netlist.rtype))
        (Netlist.insts done_.Binding.net);
      Binding.reset_pass b;
      let order =
        Netlist.fold_placements done_.Binding.net (fun id pl acc -> ((pl.Netlist.pl_step, id), pl) :: acc) []
        |> List.sort compare
      in
      let claims = ref 0 and wrong = ref 0 and floor_cleared = ref 0 and floor_wrong = ref 0 in
      List.iter
        (fun ((step, id), (pl : Netlist.placement)) ->
          let op = Dfg.find dfg id in
          let finish = pl.Netlist.pl_finish in
          let free (i : Binding.inst) =
            let rec ok s =
              s > finish
              || List.for_all
                   (fun o -> Guard.mutually_exclusive (Dfg.find dfg o).Dfg.guard op.Dfg.guard)
                   (Netlist.busy_ops b.Binding.net i.Binding.inst_id s)
                 && ok (s + 1)
            in
            ok step
          in
          List.iter
            (fun (i : Binding.inst) ->
              let changed_ports = Binding.changed_ports b op i in
              let screened () =
                match Screen.screen b.Binding.scr ~op ~step ~finish ~inst:i ~changed_ports with
                | Screen.Screen_pass -> false
                | Screen.Screen_memo | Screen.Screen_computed -> true
              in
              if
                free i && changed_ports <> 0
                && not (Screen.screen_may_prove b.Binding.scr ~inst:i ~changed_ports)
              then begin
                incr floor_cleared;
                if screened () then incr floor_wrong
              end;
              if free i && changed_ports <> 0 && screened () then begin
                incr claims;
                let worst, worst_op =
                  Binding.open_trial b op ~step ~finish ~inst_opt:(Some i.Binding.inst_id)
                    ~changed_ports
                in
                Netlist.rollback b.Binding.net;
                if not (worst < -0.001 && worst_op <> id) then incr wrong
              end)
            (Binding.compatible_insts b op);
          Binding.replay_bind b op ~step ~finish ~inst_opt:pl.Netlist.pl_inst ~rtype:None)
        order;
      Some
        { claims = !claims; wrong = !wrong; floor_cleared = !floor_cleared; floor_wrong = !floor_wrong }

let prop_screen_claims_are_busy =
  QCheck.Test.make ~name:"screen claims only trials that end busy" ~count:20
    QCheck.(pair (int_range 1 10000) (int_range 0 2))
    (fun (seed, k) ->
      let clock = [| 1200.0; 1400.0; 1600.0 |].(k) in
      match screen_vs_trial ~seed ~ops:(100 + (seed mod 150)) ~clock with
      | None -> QCheck.assume_fail ()
      | Some { wrong = 0; _ } -> true
      | Some r ->
          QCheck.Test.fail_reportf "seed=%d clock=%.0f: %d of %d screen claims did not end busy"
            seed clock r.wrong r.claims)

let prop_floor_rules_out_only_false_screens =
  QCheck.Test.make ~name:"slack floor rules out only screens that prove nothing" ~count:20
    QCheck.(pair (int_range 1 10000) (int_range 0 2))
    (fun (seed, k) ->
      let clock = [| 1200.0; 1400.0; 1600.0 |].(k) in
      match screen_vs_trial ~seed ~ops:(100 + (seed mod 150)) ~clock with
      | None -> QCheck.assume_fail ()
      | Some { floor_wrong = 0; _ } -> true
      | Some r ->
          QCheck.Test.fail_reportf
            "seed=%d clock=%.0f: the floor ruled out %d screens that prove a rejection (of %d)"
            seed clock r.floor_wrong r.floor_cleared)

(* the properties above are not vacuous: the screen does fire on such
   states, and the floor rules screens out *)
let test_screen_fires_on_synthetic () =
  match screen_vs_trial ~seed:2 ~ops:150 ~clock:1600.0 with
  | None -> Alcotest.fail "seed 2 failed to schedule"
  | Some r ->
      Alcotest.(check int) "wrong claims" 0 r.wrong;
      Alcotest.(check int) "floor ruled out a proving screen" 0 r.floor_wrong;
      Alcotest.(check bool) (Printf.sprintf "screen fired (%d claims)" r.claims) true (r.claims > 0);
      Alcotest.(check bool)
        (Printf.sprintf "floor ruled screens out (%d)" r.floor_cleared)
        true (r.floor_cleared > 0)

(* The own-slack screen against the trial.  Replay a finished schedule of
   a synthetic design (sequential, II=1, II=2) in (step, id) order onto a
   fresh binder with the same instances, at a replay clock that may be
   tighter than the schedule's.  Before each resource op is replayed,
   probe it on every empty instance of its class whose type fits it:
   wherever [empty_bind_slack] is defined, open the trial [try_bind]
   would open and check that its worst slack is the same float, bit for
   bit, and that the op itself carries it.  Returns (probes, probes with
   a violating slack, mismatches). *)
let own_slack_vs_trial ~seed ~ops ~ii ~replay_clock =
  let region = synthetic_region ~seed ~ops ?ii () in
  match Scheduler.schedule ~lib ~clock_ps:1600.0 region with
  | Error _ -> None
  | Ok s ->
      let net = s.Scheduler.s_binding.Binding.net in
      let dfg = region.Region.dfg in
      let b = Binding.create ~lib ~clock_ps:replay_clock region in
      List.iter (fun (i : Netlist.inst) -> ignore (Binding.add_inst b i.Netlist.rtype)) (Netlist.insts net);
      Binding.reset_pass b;
      let order =
        Netlist.fold_placements net (fun id pl acc -> ((pl.Netlist.pl_step, id), pl) :: acc) []
        |> List.sort compare
      in
      let probes = ref 0 and violating = ref 0 and mismatches = ref 0 in
      List.iter
        (fun ((step, id), (pl : Netlist.placement)) ->
          let op = Dfg.find dfg id in
          let finish = pl.Netlist.pl_finish in
          List.iter
            (fun (i : Binding.inst) ->
              let sl = Netlist.empty_bind_slack b.Binding.net op ~step ~finish ~inst:i in
              if i.Binding.n_bound = 0 && not (Float.is_nan sl) then begin
                incr probes;
                if sl < -0.001 then incr violating;
                let worst, worst_op =
                  Binding.open_trial b op ~step ~finish ~inst_opt:(Some i.Binding.inst_id)
                    ~changed_ports:0
                in
                Netlist.rollback b.Binding.net;
                if Int64.bits_of_float worst <> Int64.bits_of_float sl || worst_op <> id then
                  incr mismatches
              end)
            (Netlist.class_insts b.Binding.net op);
          Binding.replay_bind b op ~step ~finish ~inst_opt:pl.Netlist.pl_inst ~rtype:None)
        order;
      Some (!probes, !violating, !mismatches)

let prop_own_slack_is_trial_slack =
  QCheck.Test.make ~name:"empty-instance own slack is the trial's worst slack" ~count:24
    QCheck.(pair (int_range 1 10000) (int_range 0 2))
    (fun (seed, mode) ->
      let ii = if mode = 0 then None else Some mode in
      let replay_clock = [| 1600.0; 1400.0; 1250.0 |].(seed mod 3) in
      match own_slack_vs_trial ~seed ~ops:(60 + (seed mod 120)) ~ii ~replay_clock with
      | None -> QCheck.assume_fail ()
      | Some (_, _, 0) -> true
      | Some (probes, _, m) ->
          QCheck.Test.fail_reportf "seed=%d ii=%d: %d of %d own slacks differ from the trial's" seed
            mode m probes)

(* the property above is not vacuous: it probes violating binds, which the
   screen decides without a trial, sequential and pipelined alike *)
let test_own_slack_coverage () =
  List.iter
    (fun ii ->
      let name = match ii with None -> "seq" | Some k -> Printf.sprintf "II=%d" k in
      match own_slack_vs_trial ~seed:5 ~ops:150 ~ii ~replay_clock:1250.0 with
      | None -> Alcotest.failf "%s: seed 5 failed to schedule" name
      | Some (probes, violating, m) ->
          Alcotest.(check int) (name ^ ": mismatches") 0 m;
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d violating of %d probes" name violating probes)
            true (violating > 0))
    [ None; Some 1; Some 2 ]

(* Candidate order.  Replay a finished schedule of a synthetic design onto
   a fresh binder whose instance set doubles the schedule's: each
   instance is preceded by a copy half as wide, which its ops can widen
   but not fit.  Every resource op is attempted at its scheduled step the
   way a pass attempts it — the [candidates] cursor offered one at a
   time, [try_bind] on each until one binds — so the offers interleave
   with rolled-back trials and widening merges.  Every offered sequence
   must be a prefix of [compatible_insts] taken before the attempt, and
   all of it when nothing binds (the op is then force-bound on its
   scheduled instance's twin).  Between attempts the order is also moved
   from outside an attempt: every 7th op adds a fresh half-width instance
   to its class mid-pass, every 11th widens the least-loaded half-width
   one with [set_rtype], and half-way through the pass is reset and its
   binds so far replayed.  After each such move the whole cursor walk
   must equal [compatible_insts].  Returns (mismatches, attempts with a
   failed trial, widening binds), or [None] when the design does not
   schedule at 1600 ps.  A replay clock tighter than that makes trials
   fail on slack too, not only on busy tables. *)
let candidate_order_run ~seed ~ops ~ii ~replay_clock =
  let region = synthetic_region ~seed ~ops ?ii () in
  match Scheduler.schedule ~lib ~clock_ps:1600.0 region with
  | Error _ -> None
  | Ok s ->
      let dfg = region.Region.dfg in
      let net = s.Scheduler.s_binding.Binding.net in
      let b = Binding.create ~lib ~clock_ps:replay_clock region in
      let half (rt : Resource.t) =
        { rt with Resource.in_widths = List.map (fun w -> (w + 1) / 2) rt.Resource.in_widths }
      in
      List.iter
        (fun (i : Netlist.inst) ->
          let rt = i.Netlist.rtype in
          ignore (Binding.add_inst b (half rt));
          ignore (Binding.add_inst b rt))
        (Netlist.insts net);
      Binding.reset_pass b;
      let order =
        Netlist.fold_placements net (fun id pl acc -> ((pl.Netlist.pl_step, id), pl) :: acc) []
        |> List.sort compare
      in
      let mismatches = ref 0 and failed = ref 0 and widened = ref 0 in
      let ids = List.map (fun (i : Binding.inst) -> i.Binding.inst_id) in
      let walk_matches op =
        if ids (List.of_seq (Binding.candidates b op)) <> ids (Binding.compatible_insts b op) then
          incr mismatches
      in
      (* the binds of this pass so far, newest first and marked when
         forced, for the replay after the reset *)
      let placed = ref [] in
      let n = List.length order in
      List.iteri
        (fun k ((step, id), (pl : Netlist.placement)) ->
          let op = Dfg.find dfg id in
          if k = n / 2 then begin
            Binding.reset_pass b;
            List.iter
              (fun (o, st, fin, inst_opt, forced) ->
                if forced then Binding.force_bind b (Dfg.find dfg o) ~step:st ~inst_opt
                else Binding.replay_bind b (Dfg.find dfg o) ~step:st ~finish:fin ~inst_opt ~rtype:None)
              (List.rev !placed);
            walk_matches op
          end;
          (match Netlist.resource_of b.Binding.net op with
          | Some need when k mod 7 = 3 ->
              ignore (Binding.add_inst b (half need));
              walk_matches op
          | Some need when k mod 11 = 5 -> (
              let narrow =
                List.filter
                  (fun (i : Binding.inst) -> Netlist.compat_tier b.Binding.net op i = 1)
                  (Netlist.class_insts b.Binding.net op)
              in
              match List.sort (fun (x : Binding.inst) y -> compare x.Binding.n_bound y.Binding.n_bound) narrow with
              | i :: _ ->
                  Netlist.set_rtype b.Binding.net i (Resource.merge need i.Binding.rtype);
                  walk_matches op
              | [] -> ())
          | _ -> ());
          let forced =
          match pl.Netlist.pl_inst with
          | None ->
              Result.is_error (Binding.try_bind b op ~step ~inst_opt:None)
              && begin
                   Binding.force_bind b op ~step ~inst_opt:None;
                   true
                 end
          | Some k ->
              let reference = ids (Binding.compatible_insts b op) in
              let offered = ref [] in
              let rec go seq =
                match seq () with
                | Seq.Nil -> false
                | Seq.Cons ((i : Binding.inst), rest) -> (
                    offered := i.Binding.inst_id :: !offered;
                    let before = i.Binding.rtype in
                    match Binding.try_bind b op ~step ~inst_opt:(Some i.Binding.inst_id) with
                    | Ok () ->
                        if i.Binding.rtype <> before then incr widened;
                        true
                    | Error _ -> go rest)
              in
              let bound = go (Binding.candidates b op) in
              let offered = List.rev !offered in
              if List.length offered > 1 || not bound then incr failed;
              let rec is_prefix p l =
                match (p, l) with
                | [], _ -> true
                | x :: p', y :: l' -> x = y && is_prefix p' l'
                | _ :: _, [] -> false
              in
              if not (if bound then is_prefix offered reference else offered = reference) then
                incr mismatches;
              if not bound then Binding.force_bind b op ~step ~inst_opt:(Some ((2 * k) + 1));
              not bound
          in
          match Binding.placement b id with
          | Some p ->
              placed := (id, p.Binding.pl_step, p.Binding.pl_finish, p.Binding.pl_inst, forced) :: !placed
          | None -> ())
        order;
      Some (!mismatches, !failed, !widened)

let prop_candidate_order =
  QCheck.Test.make ~name:"lazy candidates follow compatible_insts order" ~count:24
    QCheck.(pair (int_range 1 10000) (int_range 0 2))
    (fun (seed, mode) ->
      let ii = if mode = 0 then None else Some mode in
      let replay_clock = [| 1600.0; 1400.0; 1250.0 |].(seed mod 3) in
      match candidate_order_run ~seed ~ops:(60 + (seed mod 120)) ~ii ~replay_clock with
      | None -> QCheck.assume_fail ()
      | Some (0, _, _) -> true
      | Some (m, _, _) -> QCheck.Test.fail_reportf "seed=%d ii=%d: %d attempts out of order" seed mode m)

(* the property above is not vacuous: its attempts do roll trials back and
   widen instances, sequential and pipelined alike *)
let test_candidate_order_coverage () =
  List.iter
    (fun ii ->
      let name = match ii with None -> "seq" | Some k -> Printf.sprintf "II=%d" k in
      match candidate_order_run ~seed:5 ~ops:150 ~ii ~replay_clock:1400.0 with
      | None -> Alcotest.failf "%s: seed 5 failed to schedule" name
      | Some (m, failed, widened) ->
          Alcotest.(check int) (name ^ ": out-of-order attempts") 0 m;
          Alcotest.(check bool) (Printf.sprintf "%s: %d failed trials" name failed) true (failed > 0);
          Alcotest.(check bool) (Printf.sprintf "%s: %d widening binds" name widened) true (widened > 0))
    [ None; Some 1; Some 2 ]

(* Replay a finished schedule in (step, id) order onto two binders built
   alike, at a replay clock tighter than the schedule's so that attempts
   fail.  Before each op is replayed, attempt it at its scheduled step on
   both: on [a] with [Binding.attempt], on [p] with [try_bind] on each of
   [Binding.candidates] in turn until one binds — the reference, which
   checks every candidate and prices every slack exactly.  The outcome
   lists must agree element by element: the same failure, busy types and
   cycle instances equal, and a slack either bit-equal or, where the
   attempt's slack bound decided it, an upper bound of the exact one that
   is still below tolerance.  The restraint a pass records from them (the
   scheduler's most informative failure) must be equal, slacks bit for
   bit.  With [forbid], every third resource op is denied its class's
   last-registered instance on both binders.  An op neither binds is
   force-bound on its scheduled instance in both, so the two binders stay
   alike.  Each op is first attempted past the last step too, where the
   window check fails every candidate: there the attempt answers once.
   It is also attempted at the one or two steps before its own where its
   class is full (some slot of its span has every instance of the class
   occupied), as a pass tries it before it settles; should it bind there,
   it stays there in both. *)
type attempt_cov = {
  mutable differ : int;  (** attempts that answer unlike the reference *)
  mutable failing : int;  (** attempts with a failure *)
  mutable collapsed : int;  (** prelude failures answered once *)
  mutable full : int;  (** attempts where the op's class is full: the walk decides *)
  mutable multi_full : int;  (** ... for a multi-cycle op *)
  mutable pipelined_full : int;  (** ... in a pipelined region (a full modulo slot) *)
  mutable guarded_full : int;  (** guarded ops attempted where their class is full: the walk decides *)
  mutable forbid_full : int;  (** ops with a forbidden pair attempted where their class is full *)
  mutable bounded : int;  (** slack rejections the bound decided with a value above the exact one *)
  mutable cycles : int;  (** cycle rejections, each one stamp lookup *)
}

let same_fail (x : Restraint.fail) (y : Restraint.fail) =
  match (x, y) with
  | Restraint.F_slack u, Restraint.F_slack v -> Int64.bits_of_float u = Int64.bits_of_float v
  | Restraint.F_busy r, Restraint.F_busy r' | Restraint.F_no_resource r, Restraint.F_no_resource r' ->
      Resource.equal r r'
  | Restraint.F_cycle i, Restraint.F_cycle j -> i = j
  | _ -> Restraint.fail_to_string x = Restraint.fail_to_string y

(* an attempt's failure [x] against the reference's [y]: equal, or a slack
   bound above the exact slack that still rejects *)
let bounds_fail (x : Restraint.fail) (y : Restraint.fail) =
  same_fail x y
  || match (x, y) with Restraint.F_slack u, Restraint.F_slack v -> u > v && u < -0.001 | _ -> false

(* the scheduler's choice of the failure a pass records *)
let best_fail fails =
  let score = function
    | Restraint.F_slack _ -> 5
    | Restraint.F_cycle _ -> 4
    | Restraint.F_window | Restraint.F_dep -> 3
    | Restraint.F_busy _ | Restraint.F_no_resource _ -> 2
    | Restraint.F_forbidden | Restraint.F_anchor -> 1
    | Restraint.F_blocked -> 0
  in
  List.fold_left (fun a b -> if score b > score a then b else a) (List.hd fails) (List.tl fails)

(* does some step of [step]..[finish] have every instance of [op]'s class
   occupied in its slot? *)
let class_full net (op : Dfg.op) ~step ~finish =
  let insts = Netlist.class_insts net op in
  let rec from s =
    s <= finish
    && (List.for_all (fun (i : Netlist.inst) -> Netlist.busy_ops net i.Netlist.inst_id s <> []) insts
       || from (s + 1))
  in
  insts <> [] && from step

let attempt_vs_try_bind ?(lib = lib) ?(forbid = false) ~replay_clock (region : Region.t) =
  match Scheduler.schedule ~lib ~clock_ps:1600.0 region with
  | Error _ -> None
  | Ok s ->
      let dfg = region.Region.dfg in
      let net = s.Scheduler.s_binding.Binding.net in
      let mk () =
        let b = Binding.create ~lib ~clock_ps:replay_clock region in
        List.iter (fun (i : Netlist.inst) -> ignore (Binding.add_inst b i.Netlist.rtype)) (Netlist.insts net);
        Binding.reset_pass b;
        b
      in
      let a = mk () and p = mk () in
      if forbid then
        List.iter
          (fun (op : Dfg.op) ->
            match List.rev (Netlist.class_insts a.Binding.net op) with
            | last :: _ :: _ when op.Dfg.id mod 3 = 0 ->
                Binding.forbid a ~op:op.Dfg.id ~inst:last.Netlist.inst_id;
                Binding.forbid p ~op:op.Dfg.id ~inst:last.Netlist.inst_id
            | _ -> ())
          (Region.member_ops region);
      let per_candidate op ~step =
        if not (Opkind.is_resource_op op.Dfg.kind) then
          match Binding.try_bind p op ~step ~inst_opt:None with Ok () -> [] | Error f -> [ f ]
        else
          let rec go fails seq =
            match seq () with
            | Seq.Nil -> fails
            | Seq.Cons ((i : Binding.inst), rest) -> (
                match Binding.try_bind p op ~step ~inst_opt:(Some i.Binding.inst_id) with
                | Ok () -> []
                | Error f -> go (f :: fails) rest)
          in
          match go [] (Binding.candidates p op) with
          | [] when Binding.compatible_insts p op = [] -> (
              match Resource.of_op dfg op with Some rt -> [ Restraint.F_no_resource rt ] | None -> [])
          | fails -> fails
      in
      let cov =
        { differ = 0; failing = 0; collapsed = 0; full = 0; multi_full = 0; pipelined_full = 0;
          guarded_full = 0; forbid_full = 0; bounded = 0; cycles = 0 }
      in
      let compare_at op ~step =
        let c = a.Binding.ctr in
        let cycle0 = c.Binding.c_cycle in
        let full =
          Opkind.is_resource_op op.Dfg.kind
          && class_full a.Binding.net op ~step ~finish:(step + Binding.op_latency a op - 1)
        in
        let fa = Binding.attempt a op ~step and fp = per_candidate op ~step in
        let same =
          match (fa, fp) with
          | [], [] -> true
          | [ f ], (_ :: _ :: _ as l) when List.for_all (same_fail f) l ->
              (* a prelude failure, once *)
              cov.collapsed <- cov.collapsed + 1;
              true
          | _ -> List.length fa = List.length fp && List.for_all2 bounds_fail fa fp
        in
        if fa <> [] then cov.failing <- cov.failing + 1;
        if not (same && (fa = [] || same_fail (best_fail fa) (best_fail fp))) then
          cov.differ <- cov.differ + 1;
        if same && List.length fa = List.length fp then
          List.iter2 (fun x y -> if not (same_fail x y) then cov.bounded <- cov.bounded + 1) fa fp;
        if full then begin
          cov.full <- cov.full + 1;
          if Binding.is_multicycle a op then cov.multi_full <- cov.multi_full + 1;
          if Region.is_pipelined region then cov.pipelined_full <- cov.pipelined_full + 1
        end;
        if full && not (Guard.is_always op.Dfg.guard) then cov.guarded_full <- cov.guarded_full + 1;
        if full && List.exists (fun (o, _) -> o = op.Dfg.id) (Binding.forbidden_pairs a) then
          cov.forbid_full <- cov.forbid_full + 1;
        cov.cycles <- cov.cycles + (c.Binding.c_cycle - cycle0)
      in
      let order =
        Netlist.fold_placements net (fun id pl acc -> ((pl.Netlist.pl_step, id), pl) :: acc) []
        |> List.sort compare
      in
      List.iter
        (fun ((step, id), (pl : Netlist.placement)) ->
          let op = Dfg.find dfg id in
          compare_at op ~step:region.Region.n_steps;
          (* the one or two steps before, where the op's class is full:
             a pass tries an op there before it settles *)
          List.iter
            (fun s ->
              if
                s >= 0
                && Opkind.is_resource_op op.Dfg.kind
                && (not (Binding.is_placed a id))
                && class_full a.Binding.net op ~step:s ~finish:(s + Binding.op_latency a op - 1)
              then compare_at op ~step:s)
            [ step - 2; step - 1 ];
          if not (Binding.is_placed a id) then compare_at op ~step;
          if not (Binding.is_placed a id) then begin
            Binding.force_bind a op ~step ~inst_opt:pl.Netlist.pl_inst;
            Binding.force_bind p op ~step ~inst_opt:pl.Netlist.pl_inst
          end)
        order;
      let trials b = (Netlist.stats b.Binding.net).Netlist.s_trials in
      if trials a <> trials p then cov.differ <- cov.differ + 1;
      Some cov

let prop_attempt_is_per_candidate =
  QCheck.Test.make ~name:"attempt answers as try_bind on each candidate" ~count:18
    QCheck.(triple (int_range 1 10000) (int_range 0 2) bool)
    (fun (seed, mode, forbid) ->
      let ii = if mode = 0 then None else Some mode in
      let replay_clock = [| 1600.0; 1400.0; 1250.0 |].(seed mod 3) in
      let region = synthetic_region ~seed ~ops:(60 + (seed mod 120)) ?ii () in
      match attempt_vs_try_bind ~forbid ~replay_clock region with
      | None -> QCheck.assume_fail ()
      | Some { differ = 0; _ } -> true
      | Some cov ->
          QCheck.Test.fail_reportf "seed=%d ii=%d forbid=%b: %d attempts differ from per-candidate binds"
            seed mode forbid cov.differ)

(* a two-cycle IP block, called four times an iteration, three of the
   calls in a chain *)
let ip2_lib = Library.with_blackbox lib ~name:"ip2" ~latency:2 ~stage_delay:700.0 ~area:3000.0 ~energy:5.0

let calls_src =
  {|
design calls {
  in a : 16;
  in b : 16;
  in c : 16;
  out r : 32;
  out q : 32;
  wait();
  do [name=main, latency=1..12] {
    $r = ip2(ip2(ip2($a, $b), $c), $a);
    $q = ip2($c, $b);
    wait();
  } while (1);
}
|}

(* The comparison above on synthetic designs and on every built-in design,
   sequential, II=1 and II=2, with and without forbidden pairs: no attempt
   may differ, and between them the runs must reach every case the walk
   and the verdicts decide — a full class (for a multi-cycle op too, in a
   full II=2 modulo slot, for a guarded op and for an op with a forbidden
   pair), slack bounds above the exact slack, cycle rejections and
   preludes answered once *)
let test_attempt_coverage () =
  let total =
    { differ = 0; failing = 0; collapsed = 0; full = 0; multi_full = 0; pipelined_full = 0;
      guarded_full = 0; forbid_full = 0; bounded = 0; cycles = 0 }
  in
  let ii2_full = ref 0 in
  (* a built-in that does not schedule at 1600 ps has nothing to replay;
     the synthetic design must schedule *)
  let run ?lib ?(required = false) name ~ii ~forbid ~replay_clock region =
    match attempt_vs_try_bind ?lib ~forbid ~replay_clock region with
    | None -> if required then Alcotest.failf "%s: failed to schedule" name
    | Some c ->
        Alcotest.(check int) (name ^ ": differing attempts") 0 c.differ;
        if ii = Some 2 then ii2_full := !ii2_full + c.full;
        total.failing <- total.failing + c.failing;
        total.collapsed <- total.collapsed + c.collapsed;
        total.full <- total.full + c.full;
        total.multi_full <- total.multi_full + c.multi_full;
        total.pipelined_full <- total.pipelined_full + c.pipelined_full;
        total.guarded_full <- total.guarded_full + c.guarded_full;
        total.forbid_full <- total.forbid_full + c.forbid_full;
        total.bounded <- total.bounded + c.bounded;
        total.cycles <- total.cycles + c.cycles
  in
  List.iter
    (fun ii ->
      let mode = match ii with None -> "seq" | Some k -> Printf.sprintf "II=%d" k in
      List.iter
        (fun forbid ->
          let name = mode ^ if forbid then " forbid" else "" in
          run ~required:true ("synthetic " ^ name) ~ii ~forbid ~replay_clock:1400.0 (synthetic_region ~seed:5 ~ops:150 ?ii ());
          List.iter
            (fun (design, mk) ->
              let e = Hls_frontend.Elaborate.design (mk ()) in
              run (Printf.sprintf "%s %s" design name) ~ii ~forbid ~replay_clock:1250.0
                (Hls_frontend.Elaborate.main_region ?ii e))
            Hls_server.Design_db.builtins;
          run ~lib:ip2_lib ~required:true ("two-cycle calls " ^ name) ~ii ~forbid ~replay_clock:1600.0
            (Hls_frontend.Elaborate.main_region ?ii (Hls_frontend.Elaborate.design (Hls_frontend.Parser.parse_string calls_src))))
        [ false; true ])
    [ None; Some 1; Some 2 ];
  let check what n = Alcotest.(check bool) (Printf.sprintf "%s: %d" what n) true (n > 0) in
  check "failing attempts" total.failing;
  check "preludes answered once" total.collapsed;
  check "attempts where the class is full" total.full;
  check "... for a multi-cycle op" total.multi_full;
  check "... in a full II=2 slot" !ii2_full;
  check "guarded ops where the class is full" total.guarded_full;
  check "ops with a forbidden pair where the class is full" total.forbid_full;
  check "slack rejections carrying a bound" total.bounded;
  check "cycle rejections" total.cycles

(* Every rejection the saturation memo decides is a trial that ends busy.
   Replay a finished schedule as [candidate_order_run] does, without the
   doubled instances: each op is attempted at its scheduled step on its
   candidates in turn with [try_bind].  Whenever the memo decided a
   candidate (its counter moved), open the trial [try_bind] skipped and
   check that it ends with a worst slack below -1 fs on an op other than
   the one being bound, then roll it back.  An op that binds nowhere is
   left unplaced, or with [~force] force-bound where the schedule put it,
   as the slack-tolerating ablation does; the memo must decide nothing
   for the rest of that pass.  Returns (memo decisions, wrong ones,
   decisions after a force). *)
let memo_vs_trial ~force ~seed ~ops ~ii ~replay_clock =
  let region = synthetic_region ~seed ~ops ?ii () in
  match Scheduler.schedule ~lib ~clock_ps:1600.0 region with
  | Error _ -> None
  | Ok s ->
      let dfg = region.Region.dfg in
      let net = s.Scheduler.s_binding.Binding.net in
      let b = Binding.create ~lib ~clock_ps:replay_clock region in
      List.iter (fun (i : Netlist.inst) -> ignore (Binding.add_inst b i.Netlist.rtype)) (Netlist.insts net);
      Binding.reset_pass b;
      let order =
        Netlist.fold_placements net (fun id pl acc -> ((pl.Netlist.pl_step, id), pl) :: acc) []
        |> List.sort compare
      in
      let decided = ref 0 and wrong = ref 0 and after_force = ref 0 in
      List.iter
        (fun ((step, id), (pl : Netlist.placement)) ->
          let op = Dfg.find dfg id in
          let rec go seq =
            match seq () with
            | Seq.Nil -> false
            | Seq.Cons ((i : Binding.inst), rest) -> (
                let memo0 = b.Binding.ctr.Binding.c_screen_memo in
                match Binding.try_bind b op ~step ~inst_opt:(Some i.Binding.inst_id) with
                | Ok () -> true
                | Error f ->
                    if b.Binding.ctr.Binding.c_screen_memo > memo0 then begin
                      incr decided;
                      if Netlist.forced b.Binding.net then incr after_force;
                      let worst, worst_op =
                        Binding.open_trial b op ~step ~finish:pl.Netlist.pl_finish
                          ~inst_opt:(Some i.Binding.inst_id)
                          ~changed_ports:(Binding.changed_ports b op i)
                      in
                      Netlist.rollback b.Binding.net;
                      let busy = match f with Restraint.F_busy _ -> true | _ -> false in
                      if not (busy && worst < -0.001 && worst_op <> id) then incr wrong
                    end;
                    go rest)
          in
          let bound = pl.Netlist.pl_inst <> None && go (Binding.candidates b op) in
          if force && not bound then Binding.force_bind b op ~step ~inst_opt:pl.Netlist.pl_inst)
        order;
      Some (!decided, !wrong, !after_force)

let prop_memo_decides_busy_trials =
  QCheck.Test.make ~name:"memo-decided rejections are busy trials" ~count:18
    QCheck.(triple (int_range 1 10000) (int_range 0 2) bool)
    (fun (seed, mode, force) ->
      let ii = if mode = 0 then None else Some mode in
      let replay_clock = [| 1600.0; 1400.0; 1250.0 |].(seed mod 3) in
      match memo_vs_trial ~force ~seed ~ops:(80 + (seed mod 150)) ~ii ~replay_clock with
      | None -> QCheck.assume_fail ()
      | Some (_, 0, 0) -> true
      | Some (d, w, a) ->
          QCheck.Test.fail_reportf
            "seed=%d ii=%d force=%b: of %d memo rejections %d did not end busy, %d followed a force"
            seed mode force d w a)

(* the property above is not vacuous: the memo decides rejections on
   sequential replays, and none once the ablation path forces a bind *)
let test_memo_fires () =
  List.iter
    (fun (seed, clock) ->
      let name = Printf.sprintf "seed %d at %.0f ps" seed clock in
      match memo_vs_trial ~force:false ~seed ~ops:300 ~ii:None ~replay_clock:clock with
      | None -> Alcotest.failf "%s: failed to schedule" name
      | Some (d, w, _) ->
          Alcotest.(check int) (name ^ ": memo rejections that did not end busy") 0 w;
          Alcotest.(check bool) (Printf.sprintf "%s: memo decided %d" name d) true (d > 0))
    [ (1, 1300.0); (7, 1300.0) ];
  match memo_vs_trial ~force:true ~seed:7 ~ops:300 ~ii:None ~replay_clock:1300.0 with
  | None -> Alcotest.fail "seed 7: failed to schedule"
  | Some (_, w, a) ->
      Alcotest.(check int) "forced: memo rejections that did not end busy" 0 w;
      Alcotest.(check int) "forced: memo rejections after a force" 0 a

(* The instance floor against the full screen.  Replay a finished
   schedule as [memo_vs_trial] does: each op is attempted at its
   scheduled step on its candidates in turn with [try_bind], so trials
   commit and roll back as in a pass, and an op that binds nowhere is
   left unplaced or, with [~force], force-bound where the schedule put
   it.  Before each candidate that hosts ops already, whenever its floor
   rules the screen out, run the full screen (the memo read, then the
   cohabitant pricing) and check that it proves nothing.  Returns (screens
   ruled out, of which the screen proved a rejection). *)
let floor_vs_screen ~force ~seed ~ops ~ii ~replay_clock =
  let region = synthetic_region ~seed ~ops ?ii () in
  match Scheduler.schedule ~lib ~clock_ps:1600.0 region with
  | Error _ -> None
  | Ok s ->
      let dfg = region.Region.dfg in
      let net = s.Scheduler.s_binding.Binding.net in
      let b = Binding.create ~lib ~clock_ps:replay_clock region in
      List.iter (fun (i : Netlist.inst) -> ignore (Binding.add_inst b i.Netlist.rtype)) (Netlist.insts net);
      Binding.reset_pass b;
      let order =
        Netlist.fold_placements net (fun id pl acc -> ((pl.Netlist.pl_step, id), pl) :: acc) []
        |> List.sort compare
      in
      let ruled_out = ref 0 and wrong = ref 0 in
      List.iter
        (fun ((step, id), (pl : Netlist.placement)) ->
          let op = Dfg.find dfg id in
          let rec go seq =
            match seq () with
            | Seq.Nil -> false
            | Seq.Cons ((i : Binding.inst), rest) -> (
                let changed_ports = Binding.changed_ports b op i in
                if
                  i.Binding.n_bound > 0 && changed_ports > 0
                  && not (Screen.screen_may_prove b.Binding.scr ~inst:i ~changed_ports)
                then begin
                  incr ruled_out;
                  match
                    Screen.screen b.Binding.scr ~op ~step ~finish:pl.Netlist.pl_finish ~inst:i
                      ~changed_ports
                  with
                  | Screen.Screen_pass -> ()
                  | Screen.Screen_memo | Screen.Screen_computed -> incr wrong
                end;
                match Binding.try_bind b op ~step ~inst_opt:(Some i.Binding.inst_id) with
                | Ok () -> true
                | Error _ -> go rest)
          in
          let bound = pl.Netlist.pl_inst <> None && go (Binding.candidates b op) in
          if force && not bound then Binding.force_bind b op ~step ~inst_opt:pl.Netlist.pl_inst)
        order;
      Some (!ruled_out, !wrong)

let prop_instance_floor_rules_out_passes =
  QCheck.Test.make ~name:"instance floor rules out only screens that pass" ~count:18
    QCheck.(triple (int_range 1 10000) (int_range 0 2) bool)
    (fun (seed, mode, force) ->
      let ii = if mode = 0 then None else Some mode in
      let replay_clock = [| 1600.0; 1400.0; 1250.0 |].(seed mod 3) in
      match floor_vs_screen ~force ~seed ~ops:(80 + (seed mod 150)) ~ii ~replay_clock with
      | None -> QCheck.assume_fail ()
      | Some (_, 0) -> true
      | Some (r, w) ->
          QCheck.Test.fail_reportf
            "seed=%d ii=%d force=%b: the floor ruled out %d screens that prove a rejection (of %d)"
            seed mode force w r)

(* the property above is not vacuous: the floor rules screens out on
   sequential and II=2 replays.  At II=1 no instance is shared (every
   slot is the one slot), so no screen runs there *)
let test_instance_floor_fires () =
  List.iter
    (fun (ii, seed, ops, clock) ->
      let name = match ii with None -> "seq" | Some k -> Printf.sprintf "II=%d" k in
      match floor_vs_screen ~force:false ~seed ~ops ~ii ~replay_clock:clock with
      | None -> Alcotest.failf "%s: failed to schedule" name
      | Some (r, w) ->
          Alcotest.(check int) (name ^ ": ruled-out screens that prove") 0 w;
          Alcotest.(check bool) (Printf.sprintf "%s: the floor ruled out %d" name r) true (r > 0))
    [ (None, 7, 300, 1300.0); (Some 2, 2, 150, 1400.0) ]

(* The ops a screen on [i] can price: its bound ops and, below each, the
   distance-0 consumers placed in the step a latency-1 region member
   finishes, recursively (the screen's downstream walk) *)
let screen_cone (b : Binding.t) (i : Binding.inst) =
  let net = b.Binding.net and dfg = b.Binding.dfg in
  let seen = Hashtbl.create 16 in
  let rec down x =
    if not (Hashtbl.mem seen x) then begin
      Hashtbl.add seen x ();
      match Netlist.placement net x with
      | Some pl when Region.mem b.Binding.region x && Binding.op_latency b (Dfg.find dfg x) <= 1 ->
          List.iter
            (fun (e : Dfg.edge) ->
              if e.Dfg.distance = 0 then
                match Netlist.placement net e.Dfg.dst with
                | Some pd when pd.Netlist.pl_step = pl.Netlist.pl_finish -> down e.Dfg.dst
                | _ -> ())
            (Dfg.out_edges dfg x)
      | _ -> ()
    end
  in
  List.iter down i.Binding.bound;
  Hashtbl.fold (fun x () acc -> x :: acc) seen []

(* instances whose floor is above the committed endpoint slack of an op
   in their cone (beyond the 1 fs by which a guard may rise unseen) *)
let floor_breaches (b : Binding.t) =
  let net = b.Binding.net in
  List.fold_left
    (fun n (i : Netlist.inst) ->
      let f = Screen.inst_floor b.Binding.scr i in
      if List.exists (fun y -> f > G.endpoint_slack b.Binding.graph y +. 0.002) (screen_cone b i) then n + 1
      else n)
    0 (Netlist.insts net)

let floors (b : Binding.t) = List.map (Screen.inst_floor b.Binding.scr) (Netlist.insts b.Binding.net)

(* The floor bounds every committed slack in the instance's cone: after
   each commit of a try_bind replay, across a rolled-back trial (which
   leaves every floor as it was), after a warm replay with one
   [recompute_all], and after [reset_pass] (a fresh binder replaying the
   same binds has the same floors) *)
let test_instance_floor_bounds_cone () =
  let region = synthetic_region ~seed:7 ~ops:200 () in
  let dfg = region.Region.dfg in
  let s =
    match Scheduler.schedule ~lib ~clock_ps:1600.0 region with
    | Ok s -> s
    | Error _ -> Alcotest.fail "seed 7 failed to schedule"
  in
  let net = s.Scheduler.s_binding.Binding.net in
  let order =
    Netlist.fold_placements net (fun id pl acc -> ((pl.Netlist.pl_step, id), pl) :: acc) []
    |> List.sort compare
  in
  let fresh clock =
    let b = Binding.create ~lib ~clock_ps:clock region in
    List.iter (fun (i : Netlist.inst) -> ignore (Binding.add_inst b i.Netlist.rtype)) (Netlist.insts net);
    Binding.reset_pass b;
    b
  in
  (* try_bind replay at a tighter clock: commits and rollbacks *)
  let b = fresh 1300.0 in
  let breaches = ref 0 and rollbacks = ref 0 and moved = ref 0 and low = ref 0 in
  List.iter
    (fun ((step, id), (pl : Netlist.placement)) ->
      let op = Dfg.find dfg id in
      let rec go seq =
        match seq () with
        | Seq.Nil -> ()
        | Seq.Cons ((i : Binding.inst), rest) ->
            let before = floors b in
            let _ =
              Binding.open_trial b op ~step ~finish:pl.Netlist.pl_finish
                ~inst_opt:(Some i.Binding.inst_id) ~changed_ports:(Binding.changed_ports b op i)
            in
            Netlist.rollback b.Binding.net;
            incr rollbacks;
            if floors b <> before then incr moved;
            (match Binding.try_bind b op ~step ~inst_opt:(Some i.Binding.inst_id) with
            | Ok () -> breaches := !breaches + floor_breaches b
            | Error _ -> go rest)
      in
      if pl.Netlist.pl_inst <> None then go (Binding.candidates b op))
    order;
  List.iter (fun f -> if f < 50.0 then incr low) (floors b);
  Alcotest.(check int) "breaches after commits" 0 !breaches;
  Alcotest.(check int) "floors a rolled-back trial moved" 0 !moved;
  Alcotest.(check bool) (Printf.sprintf "%d trials rolled back" !rollbacks) true (!rollbacks > 0);
  Alcotest.(check bool) (Printf.sprintf "%d floors below 50 ps" !low) true (!low > 0);
  (* a warm replay: structure only, then one recompute_all *)
  let replay b ~propagate =
    List.iter
      (fun ((step, id), (pl : Netlist.placement)) ->
        Binding.replay_bind b ~propagate (Dfg.find dfg id) ~step ~finish:pl.Netlist.pl_finish
          ~inst_opt:pl.Netlist.pl_inst ~rtype:None)
      order;
    if not propagate then G.recompute_all b.Binding.graph
  in
  Binding.reset_pass b;
  replay b ~propagate:false;
  Alcotest.(check int) "breaches after a warm replay" 0 (floor_breaches b);
  (* reset_pass keeps no floor of the pass before *)
  Binding.reset_pass b;
  replay b ~propagate:true;
  let b' = fresh 1300.0 in
  replay b' ~propagate:true;
  Alcotest.(check int) "breaches after reset_pass" 0 (floor_breaches b);
  Alcotest.(check bool) "floors after reset_pass are a fresh binder's" true (floors b = floors b')

(* The own slack an attempt shares among its empty candidates is
   [Netlist.empty_bind_slack] on each of them, bit for bit.  A finished
   schedule is replayed op by op, in (step, id) order.  Before an op is
   replayed, when every empty candidate whose own slack is defined
   violates (and one does), the op is attempted at its scheduled step
   with [Binding.attempt].  If the attempt fails on every candidate, each
   such candidate must fail with [F_slack] of exactly its own slack, or
   on a check that runs before it (a prelude, a forbidden pair, a
   cycle).  An attempt that binds after all (on a loaded candidate)
   leaves a state the schedule may not fit beside, so the replay starts
   over from the schedule's prefix.  Returns (slacks compared,
   mismatches). *)
let shared_own_slack_run ~seed ~ops ~ii ~replay_clock =
  let region = synthetic_region ~seed ~ops ?ii () in
  match Scheduler.schedule ~lib ~clock_ps:1600.0 region with
  | Error _ -> None
  | Ok s ->
      let dfg = region.Region.dfg in
      let net = s.Scheduler.s_binding.Binding.net in
      let replay b ((step, id), (pl : Netlist.placement)) =
        Binding.replay_bind b (Dfg.find dfg id) ~step ~finish:pl.Netlist.pl_finish
          ~inst_opt:pl.Netlist.pl_inst ~rtype:None
      in
      let fresh prefix =
        let b = Binding.create ~lib ~clock_ps:replay_clock region in
        List.iter (fun (i : Netlist.inst) -> ignore (Binding.add_inst b i.Netlist.rtype)) (Netlist.insts net);
        Binding.reset_pass b;
        List.iter (replay b) prefix;
        b
      in
      let order =
        Netlist.fold_placements net (fun id pl acc -> ((pl.Netlist.pl_step, id), pl) :: acc) []
        |> List.sort compare
      in
      let compared = ref 0 and mismatches = ref 0 in
      let rec go b done_rev = function
        | [] -> ()
        | (((step, id), (pl : Netlist.placement)) as x) :: rest ->
            let op = Dfg.find dfg id in
            let cands = List.of_seq (Binding.candidates b op) in
            let own =
              List.map
                (fun (i : Binding.inst) ->
                  if i.Binding.n_bound = 0 then
                    Netlist.empty_bind_slack b.Binding.net op ~step ~finish:pl.Netlist.pl_finish ~inst:i
                  else nan)
                cands
            in
            let b =
              if List.exists (fun o -> o < -0.001) own && not (List.exists (fun o -> o >= -0.001) own)
              then
                match Binding.attempt b op ~step with
                | [] -> fresh (List.rev done_rev)
                | fails ->
                    if List.length fails = List.length cands then
                      List.iter2
                        (fun (f : Restraint.fail) own ->
                          if not (Float.is_nan own) then
                            match f with
                            | Restraint.F_slack sl ->
                                incr compared;
                                if Int64.bits_of_float sl <> Int64.bits_of_float own then incr mismatches
                            | Restraint.F_window | Restraint.F_anchor | Restraint.F_dep
                            | Restraint.F_forbidden | Restraint.F_cycle _ ->
                                ()
                            | _ -> incr mismatches)
                        (List.rev fails) own;
                    b
              else b
            in
            replay b x;
            go b (x :: done_rev) rest
      in
      go (fresh []) [] order;
      Some (!compared, !mismatches)

let test_shared_own_slack () =
  List.iter
    (fun (ii, clock) ->
      let name = match ii with None -> "seq" | Some k -> Printf.sprintf "II=%d" k in
      match shared_own_slack_run ~seed:5 ~ops:150 ~ii ~replay_clock:clock with
      | None -> Alcotest.failf "%s: seed 5 failed to schedule" name
      | Some (compared, m) ->
          Alcotest.(check int) (name ^ ": shared own slacks that differ") 0 m;
          Alcotest.(check bool) (Printf.sprintf "%s: %d compared" name compared) true (compared > 0))
    [ (None, 1250.0); (Some 1, 1400.0); (Some 2, 1250.0) ]

(* A call with more arguments than a port set has bits: three calls of
   one 64-argument function share an instance at II=3, so the third bind
   grows the mux of every port, 62 and 63 among them.  The binder leaves
   the screen out for it and seeds the trial port by port. *)
let test_wide_call_shared () =
  let args p = String.concat ", " (List.init 64 (fun _ -> "$" ^ p)) in
  let src =
    Printf.sprintf
      {|
design wide {
  in a : 8;
  in b : 8;
  in c : 8;
  out r : 32;
  out q : 32;
  out s : 32;
  wait();
  do [name=main, latency=1..8, ii=3] {
    $r = f(%s);
    $q = f(%s);
    $s = f(%s);
    wait();
  } while (1);
}
|}
      (args "a") (args "b") (args "c")
  in
  let region =
    Hls_frontend.Elaborate.main_region ~ii:3
      (Hls_frontend.Elaborate.design (Hls_frontend.Parser.parse_string src))
  in
  let dfg = region.Region.dfg in
  let calls =
    List.filter_map
      (fun (o : Dfg.op) -> match o.Dfg.kind with Opkind.Call _ -> Some o.Dfg.id | _ -> None)
      (Dfg.ops dfg)
  in
  Alcotest.(check int) "three calls" 3 (List.length calls);
  match Scheduler.schedule ~lib ~clock_ps:1600.0 region with
  | Error e -> Alcotest.failf "wide calls failed to schedule: %s" e.Scheduler.e_message
  | Ok s ->
      let net = s.Scheduler.s_binding.Binding.net in
      let inst id =
        match Netlist.placement net id with Some pl -> pl.Netlist.pl_inst | None -> None
      in
      let shared = List.sort_uniq compare (List.map inst calls) in
      Alcotest.(check int) "the calls share one instance" 1 (List.length shared);
      (* the last call's bind, replayed: its changed ports overflow the set *)
      let order =
        Netlist.fold_placements net (fun id pl acc -> ((pl.Netlist.pl_step, id), pl) :: acc) []
        |> List.sort compare
      in
      let last = List.fold_left (fun acc ((_, id), _) -> if List.mem id calls then id else acc) (-1) order in
      let b = Binding.create ~lib ~clock_ps:1600.0 region in
      List.iter (fun (i : Netlist.inst) -> ignore (Binding.add_inst b i.Netlist.rtype)) (Netlist.insts net);
      Binding.reset_pass b;
      List.iter
        (fun ((step, id), (pl : Netlist.placement)) ->
          let op = Dfg.find dfg id in
          if id = last then begin
            let i = Binding.find_inst b (Option.get pl.Netlist.pl_inst) in
            Alcotest.(check int) "ports beyond the set" (-1) (Binding.changed_ports b op i);
            (match Binding.try_bind b op ~step ~inst_opt:pl.Netlist.pl_inst with
            | Ok () -> ()
            | Error f -> Alcotest.failf "the last call failed to rebind: %s" (Restraint.fail_to_string f));
            (* the trial re-timed every cohabitant the grown muxes moved:
               a full recomputation moves no arrival *)
            let arrivals () = List.map (fun c -> G.arrival b.Binding.graph c) calls in
            let before = arrivals () in
            G.recompute_all b.Binding.graph;
            Alcotest.(check (list (option (float 0.0)))) "arrivals at the fixpoint" (arrivals ()) before
          end
          else
            Binding.replay_bind b op ~step ~finish:pl.Netlist.pl_finish ~inst_opt:pl.Netlist.pl_inst
              ~rtype:None)
        order

(* The decision counters account for every candidate: each one checked
   either binds (one per bound attempt) or is rejected by exactly one
   stage, the slack bound included, and the trials are the binds plus the
   trial rejections.  The slack bound must decide some.  The candidates
   checked by failed attempts are those checked minus the binds and the
   checks of bound attempts before they bound, so at most the
   rejections *)
let test_decision_counters () =
  let slack_bound = ref 0 in
  List.iter
    (fun ii ->
      let name = match ii with None -> "seq" | Some k -> Printf.sprintf "II=%d" k in
      let region = synthetic_region ~seed:5 ~ops:150 ?ii () in
      match Scheduler.schedule ~lib ~clock_ps:1600.0 region with
      | Error _ -> Alcotest.failf "%s: seed 5 failed to schedule" name
      | Ok s ->
          let st = Scheduler.stats s in
          let c = st.Scheduler.st_decisions in
          let open Binding in
          let rejected =
            c.c_forbid + c.c_tier + c.c_dedicated + c.c_busy + c.c_quick_slack + c.c_slack_bound
            + c.c_empty_slack + c.c_cycle + c.c_screen_memo + c.c_screen + c.c_trial_slack
            + c.c_trial_busy
          in
          Alcotest.(check int) (name ^ ": candidates") c.c_visited (rejected + c.c_bound);
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d checked by failed attempts, of %d rejections" name c.c_failed_visited
               rejected)
            true
            (c.c_failed_visited > 0 && c.c_failed_visited <= rejected);
          slack_bound := !slack_bound + c.c_slack_bound;
          Alcotest.(check int) (name ^ ": commits") st.Scheduler.st_commits c.c_bound;
          Alcotest.(check int) (name ^ ": rollbacks") st.Scheduler.st_rollbacks
            (c.c_trial_slack + c.c_trial_busy);
          Alcotest.(check bool) (name ^ ": attempts failed") true (c.c_failed > 0))
    [ None; Some 1; Some 2 ];
  Alcotest.(check bool) (Printf.sprintf "%d decided on the slack bound" !slack_bound) true (!slack_bound > 0)

let suite =
  [
    Alcotest.test_case "Fig. 8 delay arithmetic" `Quick test_fig8_clean;
    Alcotest.test_case "quick_slack counts distinct sources" `Quick test_quick_slack_shared_source;
    Alcotest.test_case "busy within a step" `Quick test_busy_and_equivalence;
    Alcotest.test_case "equivalence-class busy (II=2)" `Quick test_pipelined_equivalence_busy;
    Alcotest.test_case "Fig. 6 comb-cycle rejection" `Quick test_comb_cycle_fig6;
    Alcotest.test_case "reset_pass clears chain detector" `Quick test_reset_pass_clears_chain;
    Alcotest.test_case "forbidden pairs" `Quick test_forbidden_pair;
    Alcotest.test_case "rollback on failure" `Quick test_rollback_on_failure;
    Alcotest.test_case "screen: violator one hop below a cohabitant" `Quick test_screen_one_hop;
    Alcotest.test_case "screen: violator two hops below a cohabitant" `Quick test_screen_two_hops;
    Alcotest.test_case "screen: consumer with slack runs the trial" `Quick
      test_screen_consumer_with_slack;
    Alcotest.test_case "screen fires on synthetic designs" `Quick test_screen_fires_on_synthetic;
    QCheck_alcotest.to_alcotest prop_screen_claims_are_busy;
    QCheck_alcotest.to_alcotest prop_floor_rules_out_only_false_screens;
    Alcotest.test_case "own slack: violating binds probed" `Quick test_own_slack_coverage;
    QCheck_alcotest.to_alcotest prop_own_slack_is_trial_slack;
    Alcotest.test_case "candidate order: trials roll back, merges widen" `Quick
      test_candidate_order_coverage;
    QCheck_alcotest.to_alcotest prop_candidate_order;
    Alcotest.test_case "attempt: failures, preludes collapsed" `Quick test_attempt_coverage;
    QCheck_alcotest.to_alcotest prop_attempt_is_per_candidate;
    Alcotest.test_case "memo decides rejections" `Quick test_memo_fires;
    QCheck_alcotest.to_alcotest prop_memo_decides_busy_trials;
    Alcotest.test_case "instance floor rules screens out" `Quick test_instance_floor_fires;
    QCheck_alcotest.to_alcotest prop_instance_floor_rules_out_passes;
    Alcotest.test_case "instance floor bounds its cone's slacks" `Quick test_instance_floor_bounds_cone;
    Alcotest.test_case "shared own slack is empty_bind_slack" `Quick test_shared_own_slack;
    Alcotest.test_case "a wide call shares an instance" `Quick test_wide_call_shared;
    Alcotest.test_case "decision counters account for every candidate" `Quick test_decision_counters;
  ]
