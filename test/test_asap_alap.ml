(** Timing-aware ASAP/ALAP: chaining packs steps, spills respect the clock,
    windows and anchors clamp, guards act as dependencies. *)

open Hls_ir
open Hls_core

let lib = Hls_techlib.Library.artisan90

(* read -> mul -> add -> gt chain (the Fig. 8 shape) *)
let chain_region ?(li = 4) ?mul_anchor () =
  let dfg = Dfg.create () in
  let r = Dfg.add_op dfg (Opkind.Read "a") ~width:32 in
  let m = Dfg.add_op dfg (Opkind.Bin Opkind.Mul) ~width:32 ~name:"m" ?anchor:mul_anchor in
  let a = Dfg.add_op dfg (Opkind.Bin Opkind.Add) ~width:32 ~name:"a" in
  let g = Dfg.add_op dfg (Opkind.Bin Opkind.Gt) ~width:1 ~name:"g" in
  Dfg.connect dfg ~src:r.Dfg.id ~dst:m.Dfg.id ~port:0;
  Dfg.connect dfg ~src:r.Dfg.id ~dst:m.Dfg.id ~port:1;
  Dfg.connect dfg ~src:m.Dfg.id ~dst:a.Dfg.id ~port:0;
  Dfg.connect dfg ~src:r.Dfg.id ~dst:a.Dfg.id ~port:1;
  Dfg.connect dfg ~src:a.Dfg.id ~dst:g.Dfg.id ~port:0;
  Dfg.connect dfg ~src:r.Dfg.id ~dst:g.Dfg.id ~port:1;
  let region = Region.create ~min_steps:li ~max_steps:li ~name:"chain" dfg in
  (region, r.Dfg.id, m.Dfg.id, a.Dfg.id, g.Dfg.id)

let test_chaining_packs () =
  (* at 1600 ps: mul+add chain fits one step (40+930+350+40 = 1360), gt
     spills to the next (1360+220 at its ALAP estimate without muxes =
     1580+40... the estimator ignores muxes so everything fits step 0) *)
  let region, r, m, a, g = chain_region () in
  let aa = Asap_alap.compute ~lib ~clock_ps:1600.0 region in
  Alcotest.(check int) "read asap 0" 0 (Asap_alap.range aa r).Asap_alap.asap;
  Alcotest.(check int) "mul asap 0" 0 (Asap_alap.range aa m).Asap_alap.asap;
  Alcotest.(check int) "add asap 0 (chains)" 0 (Asap_alap.range aa a).Asap_alap.asap;
  Alcotest.(check int) "gt asap 0 (mux-free estimate fits)" 0 (Asap_alap.range aa g).Asap_alap.asap

let test_spill_on_tight_clock () =
  (* at 1100 ps the mul+add chain no longer fits a single step *)
  let region, _, m, a, _ = chain_region () in
  let aa = Asap_alap.compute ~lib ~clock_ps:1100.0 region in
  Alcotest.(check int) "mul asap 0" 0 (Asap_alap.range aa m).Asap_alap.asap;
  Alcotest.(check bool) "add spills past the mul" true ((Asap_alap.range aa a).Asap_alap.asap >= 1)

let test_alap_bounded_by_li () =
  let region, _, _, _, g = chain_region ~li:3 () in
  let aa = Asap_alap.compute ~lib ~clock_ps:1600.0 region in
  Alcotest.(check bool) "alap <= LI-1" true ((Asap_alap.range aa g).Asap_alap.alap <= 2)

let test_mobility_order () =
  (* upstream ops have at least as much mobility as the sink chain *)
  let region, r, _, _, g = chain_region () in
  let aa = Asap_alap.compute ~lib ~clock_ps:1600.0 region in
  Alcotest.(check bool) "read mobility >= gt mobility" true
    (Asap_alap.mobility aa r >= Asap_alap.mobility aa g - 3)

let test_scc_window_clamps () =
  let region, _, m, _, _ = chain_region () in
  let window id = if id = m then Some (2, 2) else None in
  let aa = Asap_alap.compute ~lib ~clock_ps:1600.0 ~scc_window:window region in
  let rm = Asap_alap.range aa m in
  Alcotest.(check int) "asap clamped" 2 rm.Asap_alap.asap;
  Alcotest.(check int) "alap clamped" 2 rm.Asap_alap.alap

let test_anchor_clamps_and_infeasible () =
  let region, _, m, _, _ = chain_region ~mul_anchor:1 () in
  let aa = Asap_alap.compute ~lib ~clock_ps:1600.0 region in
  Alcotest.(check int) "anchored op pinned" 1 (Asap_alap.range aa m).Asap_alap.asap;
  (* contradictory anchor + window -> infeasible list *)
  let aa2 =
    Asap_alap.compute ~lib ~clock_ps:1600.0
      ~scc_window:(fun id -> if id = m then Some (3, 3) else None)
      region
  in
  Alcotest.(check bool) "conflict detected" true (List.mem m aa2.Asap_alap.infeasible)

let test_guard_is_dependency () =
  let dfg = Dfg.create () in
  let r = Dfg.add_op dfg (Opkind.Read "a") ~width:32 in
  let c = Dfg.add_op dfg (Opkind.Bin Opkind.Gt) ~width:1 ~name:"cond" in
  Dfg.connect dfg ~src:r.Dfg.id ~dst:c.Dfg.id ~port:0;
  Dfg.connect dfg ~src:r.Dfg.id ~dst:c.Dfg.id ~port:1;
  let guarded =
    Dfg.add_op dfg (Opkind.Bin Opkind.Add) ~width:32
      ~guard:(Option.get (Guard.add Guard.always ~pred:c.Dfg.id ~polarity:true))
  in
  Dfg.connect dfg ~src:r.Dfg.id ~dst:guarded.Dfg.id ~port:0;
  Dfg.connect dfg ~src:r.Dfg.id ~dst:guarded.Dfg.id ~port:1;
  let region = Region.create ~min_steps:4 ~max_steps:4 ~name:"g" dfg in
  let preds = Asap_alap.sched_preds region guarded in
  Alcotest.(check bool) "guard pred is a scheduling dependency" true (List.mem c.Dfg.id preds)

(* Plan reuse: a plan built once per schedule serves every later
   [compute] — after the latency interval moved (add_step / reset_steps)
   and under any SCC windows — exactly as a freshly built one would. *)
let prop_plan_reuse =
  QCheck.Test.make ~name:"stale plan = fresh plan across LI moves and SCC windows" ~count:40
    QCheck.(pair (int_range 1 10000) (int_range 0 2))
    (fun (seed, mode) ->
      let profile =
        {
          Hls_designs.Synthetic.default_profile with
          Hls_designs.Synthetic.p_ops = 20 + (seed mod 80);
          p_seed = seed;
          p_tightness = 0.2 +. (float_of_int (seed mod 5) /. 10.0);
        }
      in
      let ii = if mode = 0 then None else Some mode in
      let region =
        Hls_frontend.Elaborate.main_region ?ii
          (Hls_frontend.Elaborate.design (Hls_designs.Synthetic.design ~profile ()))
      in
      let clock_ps = [| 1200.0; 1600.0; 2400.0 |].(seed mod 3) in
      let plan = Asap_alap.plan ~lib ~clock_ps region in
      let rng = Random.State.make [| seed |] in
      (* windows: each SCC (or, sequential, a few random ops) pinned to a
         random stage of the current interval *)
      let windows () =
        let li = region.Region.n_steps in
        let w = Hashtbl.create 8 in
        let width = Region.ii region in
        let pin ops =
          let lo = Random.State.int rng (max 1 li) in
          List.iter (fun o -> Hashtbl.replace w o (lo, lo + width - 1)) ops
        in
        if Region.is_pipelined region then List.iter pin (Region.sccs region)
        else
          List.iter
            (fun (o : Dfg.op) -> if Random.State.int rng 8 = 0 then pin [ o.Dfg.id ])
            (Region.member_ops region);
        fun id -> Hashtbl.find_opt w id
      in
      let agree () =
        List.for_all
          (fun scc_window ->
            let stale = Asap_alap.compute ~plan ~lib ~clock_ps ~scc_window region in
            let fresh = Asap_alap.compute ~lib ~clock_ps ~scc_window region in
            stale.Asap_alap.ranges = fresh.Asap_alap.ranges
            && stale.Asap_alap.infeasible = fresh.Asap_alap.infeasible)
          [ (fun _ -> None); windows (); windows () ]
      in
      let ok0 = agree () in
      let added = ref 0 in
      while !added < 1 + Random.State.int rng 5 && Region.add_step region do
        incr added
      done;
      let ok1 = agree () in
      let lo = region.Region.min_steps and hi = region.Region.max_steps in
      Region.reset_steps region (lo + Random.State.int rng (hi - lo + 1));
      let ok2 = agree () in
      Region.reset_steps region hi;
      ok0 && ok1 && ok2 && agree ())

(* the plan carries the forward sweep of one clock: its ASAP steps are the
   ranges' (no window or anchor here), and another clock is refused *)
let test_plan_holds_forward_sweep () =
  let region, _, _, _, _ = chain_region () in
  let plan = Asap_alap.plan ~lib ~clock_ps:1100.0 region in
  let aa = Asap_alap.compute ~plan ~lib ~clock_ps:1100.0 region in
  List.iter
    (fun (o : Dfg.op) ->
      Alcotest.(check int) o.Dfg.name plan.Asap_alap.p_asap.(o.Dfg.id)
        (Asap_alap.range aa o.Dfg.id).Asap_alap.asap)
    (Region.member_ops region);
  Alcotest.check_raises "another clock"
    (Invalid_argument "Asap_alap.compute: plan built for another clock") (fun () ->
      ignore (Asap_alap.compute ~plan ~lib ~clock_ps:1600.0 region))

let suite =
  [
    Alcotest.test_case "chaining packs a step" `Quick test_chaining_packs;
    Alcotest.test_case "tight clock spills" `Quick test_spill_on_tight_clock;
    Alcotest.test_case "alap bounded by LI" `Quick test_alap_bounded_by_li;
    Alcotest.test_case "mobility ordering" `Quick test_mobility_order;
    Alcotest.test_case "SCC window clamps" `Quick test_scc_window_clamps;
    Alcotest.test_case "anchors clamp / conflicts flagged" `Quick test_anchor_clamps_and_infeasible;
    Alcotest.test_case "guards are dependencies" `Quick test_guard_is_dependency;
    QCheck_alcotest.to_alcotest prop_plan_reuse;
    Alcotest.test_case "plan holds the forward sweep" `Quick test_plan_holds_forward_sweep;
  ]
