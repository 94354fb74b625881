(** The transactional netlist layer: trial/commit/rollback semantics, the
    failed-bind isolation property (a rejected [try_bind] leaves every
    observable bit-identical), and the reference-evaluator oracle (the
    incremental arrival state never drifts from a from-scratch
    recomputation, whatever sequence of trials the scheduler ran). *)

open Hls_ir
open Hls_core
open Hls_techlib
module Netlist = Hls_netlist.Netlist
module G = Hls_timing.Graph

let lib = Library.artisan90

(** Every observable of the netlist, in canonical (sorted) form: placements,
    non-empty busy slots, per-instance structure with the mux projections,
    the committed arrivals, and the chain-graph edge count.  Derived caches
    (mux_cache and the graph's unit_mux) are observed through their
    projections, not their representation — a rolled-back trial may leave
    them rebuilt or invalidated, which must be indistinguishable. *)
let snapshot (net : Netlist.t) =
  let placements = Netlist.fold_placements net (fun k v acc -> (k, v) :: acc) [] in
  let busy = Netlist.dump_busy net in
  let insts =
    List.map
      (fun (i : Netlist.inst) ->
        let ports = List.length i.Netlist.rtype.Resource.in_widths in
        ( i.Netlist.inst_id,
          i.Netlist.rtype,
          List.sort compare i.Netlist.bound,
          List.init ports (fun p -> Netlist.mux_inputs net i ~port:p),
          List.init ports (fun p -> G.input_mux (Netlist.graph net) i.Netlist.inst_id p) ))
      (Netlist.insts net)
    |> List.sort compare
  in
  ( placements,
    busy,
    insts,
    G.committed_arrivals (Netlist.graph net),
    Hls_timing.Cycle_detector.n_edges (Netlist.chain net) )

let scheduled_example1 () =
  let e = Hls_frontend.Elaborate.design (Hls_designs.Example1.design ()) in
  let region = Hls_frontend.Elaborate.main_region e in
  match Scheduler.schedule ~lib ~clock_ps:1600.0 region with
  | Ok s -> s
  | Error e -> Alcotest.failf "example1 failed to schedule: %s" e.Scheduler.e_message

(* A rolled-back trial — including structural mutations and arrival
   recomputations — restores every observable of a scheduled netlist. *)
let test_rollback_restores () =
  let s = scheduled_example1 () in
  let net = s.Scheduler.s_binding.Hls_core.Binding.net in
  let before = snapshot net in
  let op_id, pl =
    Netlist.fold_placements net
      (fun k v acc -> match v.Netlist.pl_inst with Some _ -> (k, v) | None -> acc)
      (-1, { Netlist.pl_step = 0; pl_finish = 0; pl_inst = None })
  in
  Alcotest.(check bool) "found a bound op" true (op_id >= 0);
  Netlist.begin_trial net;
  Alcotest.(check bool) "trial open" true (Netlist.graph net).G.trial_on;
  Netlist.place net op_id ~step:(pl.Netlist.pl_step + 1) ~finish:(pl.Netlist.pl_finish + 1)
    ~inst_opt:pl.Netlist.pl_inst;
  ignore (G.recompute_arrival (Netlist.graph net) op_id);
  (match pl.Netlist.pl_inst with
  | Some i -> Netlist.set_rtype net (Netlist.find_inst net i) { (Netlist.find_inst net i).Netlist.rtype with Resource.out_width = 64 }
  | None -> ());
  Netlist.rollback net;
  Alcotest.(check bool) "trial closed" true (not (Netlist.graph net).G.trial_on);
  Alcotest.(check bool) "all observables restored" true (snapshot net = before)

(* An idempotent trial (recompute everything, change nothing) commits to
   exactly the same committed state, and the committed state matches the
   from-scratch reference evaluator. *)
let test_commit_idempotent_and_reference () =
  let s = scheduled_example1 () in
  let net = s.Scheduler.s_binding.Hls_core.Binding.net in
  let before = snapshot net in
  Netlist.begin_trial net;
  Netlist.iter_placements net (fun op _ -> ignore (G.recompute_arrival (Netlist.graph net) op));
  Netlist.commit net;
  Alcotest.(check bool) "commit of a no-op trial is a no-op" true (snapshot net = before);
  Alcotest.(check bool) "incremental state matches the reference evaluator" true
    (G.reference_deviation (Netlist.graph net) < 1e-6)

let test_nested_trial_rejected () =
  let s = scheduled_example1 () in
  let net = s.Scheduler.s_binding.Hls_core.Binding.net in
  Netlist.begin_trial net;
  Alcotest.check_raises "no nested trials" (Invalid_argument "Netlist.begin_trial: trial already active")
    (fun () -> Netlist.begin_trial net);
  Netlist.rollback net

let synthetic_region seed ~ops =
  let profile =
    {
      Hls_designs.Synthetic.default_profile with
      Hls_designs.Synthetic.p_ops = ops;
      p_seed = seed;
      p_tightness = 0.2 +. (float_of_int (seed mod 5) /. 10.0);
    }
  in
  let d = Hls_designs.Synthetic.design ~profile () in
  let e = Hls_frontend.Elaborate.design d in
  Hls_frontend.Elaborate.main_region e

(* Satellite property: a FAILED try_bind — whatever the failure (window,
   busy, slack, cycle) and wherever it aborts (pre-check or rolled-back
   trial) — leaves every netlist observable bit-identical.  One instance
   per resource class plus a tight clock maximizes contention, so slack
   and busy rejections actually occur. *)
let prop_failed_bind_is_invisible =
  QCheck.Test.make ~name:"failed try_bind leaves the netlist bit-identical" ~count:12
    QCheck.(int_range 1 10000)
    (fun seed ->
      let region = synthetic_region seed ~ops:(30 + (seed mod 40)) in
      let dfg = region.Region.dfg in
      let b = Binding.create ~lib ~clock_ps:1250.0 region in
      let class_inst = Hashtbl.create 8 in
      Dfg.iter_ops dfg (fun op ->
          match Resource.of_op dfg op with
          | Some rt when Opkind.is_resource_op op.Dfg.kind ->
              if not (Hashtbl.mem class_inst rt.Resource.rclass) then
                Hashtbl.replace class_inst rt.Resource.rclass
                  (Binding.add_inst b rt).Binding.inst_id
          | _ -> ());
      Binding.reset_pass b;
      let failures = ref 0 and violations = ref 0 in
      List.iter
        (fun op ->
          let inst_opt =
            match Resource.of_op dfg op with
            | Some rt when Opkind.is_resource_op op.Dfg.kind ->
                Hashtbl.find_opt class_inst rt.Resource.rclass
            | _ -> None
          in
          let rec go step =
            if step <= region.Region.n_steps - 1 then begin
              let before = snapshot b.Binding.net in
              match Binding.try_bind b op ~step ~inst_opt with
              | Ok () -> ()
              | Error _ ->
                  incr failures;
                  if snapshot b.Binding.net <> before then incr violations;
                  go (step + 1)
            end
          in
          go 0)
        (Dfg.ops dfg);
      if !violations > 0 then
        QCheck.Test.fail_reportf "%d of %d failed binds mutated the netlist" !violations !failures
      else true)

(* Oracle property: after a real scheduling run — an arbitrary sequence of
   trials, commits and rollbacks — the incremental arrival tables agree
   with a from-scratch reference recomputation; and extra no-op
   trial/rollback and trial/commit cycles keep it that way.  Odd seeds
   run the timing-awareness ablation, so the oracle also covers passes
   bound with unpriced muxes and the re-timing that prices them. *)
let prop_incremental_matches_reference =
  QCheck.Test.make ~name:"incremental arrivals match the reference evaluator" ~count:10
    QCheck.(int_range 1 10000)
    (fun seed ->
      let region = synthetic_region seed ~ops:(30 + (seed mod 60)) in
      let opts = { Scheduler.default_options with timing_aware = seed mod 2 = 0 } in
      match Scheduler.schedule ~opts ~lib ~clock_ps:1600.0 region with
      | Error _ -> QCheck.assume_fail ()
      | Ok s ->
          let net = s.Scheduler.s_binding.Hls_core.Binding.net in
          let dev0 = G.reference_deviation (Netlist.graph net) in
          Netlist.begin_trial net;
          Netlist.iter_placements net (fun op _ -> ignore (G.recompute_arrival (Netlist.graph net) op));
          Netlist.rollback net;
          Netlist.begin_trial net;
          Netlist.iter_placements net (fun op _ -> ignore (G.recompute_arrival (Netlist.graph net) op));
          Netlist.commit net;
          let dev1 = G.reference_deviation (Netlist.graph net) in
          if dev0 > 0.05 || dev1 > 0.05 then
            QCheck.Test.fail_reportf "deviation %.6f / %.6f ps exceeds tolerance" dev0 dev1
          else true)

(* Scale oracle property: on ≥1k-op designs the bounded-incremental
   arrival state matches the from-scratch reference after the scheduling
   run, and still does after a storm of at least 100 rolled-back trials
   with real propagation against the finished schedule.  (The scheduler
   decides its failing candidates before a trial where it can, so the
   test drives the rollbacks itself: each trial moves a bound op onto
   another instance of its class, which grows that instance's muxes, and
   re-times the op and every op bound there, downstream chains included.)
   A storm of rebinds of placed ops must fail too. *)
let prop_large_design_matches_reference =
  QCheck.Test.make ~name:"bounded propagation matches reference on 1k-op designs" ~count:2
    QCheck.(int_range 1 10000)
    (fun seed ->
      (* 520 requested ops elaborate to ~2x that; the margin keeps every
         seed above the 1000-op floor (seed 7397 lands at 995 from 500) *)
      let region = synthetic_region seed ~ops:520 in
      let n_ops = Dfg.fold_ops region.Region.dfg (fun _ n -> n + 1) 0 in
      if n_ops < 1000 then QCheck.Test.fail_reportf "generator produced only %d ops" n_ops;
      match Scheduler.schedule ~lib ~clock_ps:1600.0 region with
      | Error _ -> QCheck.assume_fail ()
      | Ok s ->
          let net = s.Scheduler.s_binding.Hls_core.Binding.net in
          let dev0 = G.reference_deviation (Netlist.graph net) in
          let st0 = Netlist.stats net in
          let seeded = ref 0 in
          Netlist.fold_placements net (fun id pl acc -> (id, pl) :: acc) []
          |> List.iter (fun (op_id, (pl : Netlist.placement)) ->
                 match pl.Netlist.pl_inst with
                 | Some i -> (
                     match
                       List.find_opt
                         (fun (j : Netlist.inst) -> j.Netlist.inst_id <> i)
                         (Netlist.class_insts net (Dfg.find region.Region.dfg op_id))
                     with
                     | Some j ->
                         Netlist.begin_trial net;
                         Netlist.place net op_id ~step:pl.Netlist.pl_step ~finish:pl.Netlist.pl_finish
                           ~inst_opt:(Some j.Netlist.inst_id);
                         Netlist.attach net j op_id;
                         seeded := !seeded + j.Netlist.n_bound;
                         ignore (G.propagate (Netlist.graph net) j.Netlist.bound);
                         Netlist.rollback net
                     | None -> ())
                 | None -> ());
          let st1 = Netlist.stats net in
          let rollbacks = st1.Netlist.s_rollbacks - st0.Netlist.s_rollbacks in
          let visits = st1.Netlist.s_visits - st0.Netlist.s_visits in
          if rollbacks < 100 then
            QCheck.Test.fail_reportf "storm not rollback-heavy (%d rollbacks)" rollbacks;
          if visits <= !seeded then
            QCheck.Test.fail_reportf "storm propagation never left its seeds (%d visits, %d seeds)"
              visits !seeded;
          (* rebind storm: rebinding a placed op fails on its own busy
             slot, before any trial *)
          let b = s.Scheduler.s_binding in
          let stormed = ref 0 in
          Netlist.iter_placements net (fun op_id pl ->
              if !stormed < 200 then
                match pl.Netlist.pl_inst with
                | Some i ->
                    incr stormed;
                    (match
                       Binding.try_bind b (Dfg.find region.Region.dfg op_id)
                         ~step:pl.Netlist.pl_step ~inst_opt:(Some i)
                     with
                    | Ok () -> QCheck.Test.fail_reportf "rebind of a placed op succeeded"
                    | Error _ -> ())
                | None -> ());
          let dev1 = G.reference_deviation (Netlist.graph net) in
          if dev0 > 0.05 || dev1 > 0.05 then
            QCheck.Test.fail_reportf "deviation %.6f / %.6f ps exceeds tolerance" dev0 dev1
          else true)

(* Bounded propagation: re-propagating from a seed whose arrival is
   already settled visits exactly the seed — strictly fewer cells than
   the seed's fanout cone — because propagation stops at unchanged
   arrivals instead of walking the cone. *)
let test_propagation_bounded_by_change () =
  let s = scheduled_example1 () in
  let net = s.Scheduler.s_binding.Hls_core.Binding.net in
  let dfg = Netlist.dfg net in
  let seed =
    Netlist.fold_placements net
      (fun op _ acc -> if Dfg.fanout_cone_size dfg op > 1 then max acc op else acc)
      (-1)
  in
  Alcotest.(check bool) "found a placed op with a fanout cone" true (seed >= 0);
  let cone = Dfg.fanout_cone_size dfg seed in
  let v0 = (Netlist.stats net).Netlist.s_visits in
  Netlist.begin_trial net;
  ignore (G.propagate (Netlist.graph net) [ seed ]);
  Netlist.rollback net;
  let visited = (Netlist.stats net).Netlist.s_visits - v0 in
  Alcotest.(check int) "unchanged arrival: only the seed is visited" 1 visited;
  Alcotest.(check bool)
    (Printf.sprintf "visited %d < fanout cone %d" visited cone)
    true (visited < cone)

(* Satellite: rebinding an op already bound to the instance is a no-op —
   the attach keeps the mux caches, and a storm of such rebinds issues no
   netlist timing queries and perturbs no observable. *)
let test_rebind_storm_is_free () =
  let s = scheduled_example1 () in
  let b = s.Scheduler.s_binding in
  let net = b.Hls_core.Binding.net in
  let before = snapshot net in
  let q0 = (Scheduler.stats s).Scheduler.st_queries in
  List.iter
    (fun (i : Netlist.inst) ->
      List.iter (fun op -> for _ = 1 to 50 do Netlist.attach net i op done) i.Netlist.bound)
    (Netlist.insts net);
  Netlist.iter_placements net (fun op_id pl ->
      match pl.Netlist.pl_inst with
      | Some i ->
          (* a full rebind attempt of a placed op fails on the busy check,
             before any trial opens *)
          (match
             Binding.try_bind b (Dfg.find (Netlist.dfg net) op_id) ~step:pl.Netlist.pl_step
               ~inst_opt:(Some i)
           with
          | Ok () -> Alcotest.fail "rebind of a placed op succeeded"
          | Error _ -> ())
      | None -> ());
  Alcotest.(check int) "no timing queries issued" q0 (Scheduler.stats s).Scheduler.st_queries;
  Alcotest.(check bool) "all observables unchanged" true (snapshot net = before)

(* Satellite: instance registration is linear-ish — 5k instances register
   well under a generous wall bound (the former [insts @ [inst]] pattern
   was quadratic), and the registration order is preserved. *)
let test_inst_registration_linear () =
  let region = synthetic_region 7 ~ops:100 in
  let net = Netlist.create ~lib ~clock_ps:1600.0 region in
  let rt =
    { Resource.rclass = Opkind.R_addsub; in_widths = [ 32; 32 ]; out_width = 32 }
  in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 5000 do
    ignore (Netlist.add_inst net rt)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "5000 instances registered" 5000 (Netlist.n_insts net);
  let ids = List.map (fun (i : Netlist.inst) -> i.Netlist.inst_id) (Netlist.insts net) in
  Alcotest.(check bool) "registration order (ascending ids)" true (ids = List.init 5000 Fun.id);
  Alcotest.(check bool)
    (Printf.sprintf "registration of 5k instances took %.3fs (< 1s)" dt)
    true (dt < 1.0)

(* The instance delay (the graph's unit delay) follows the instance's
   type: a widening [set_rtype] inside a trial re-prices the instance, and
   rolling the trial back restores the narrow delay — as does the
   compatibility tier memoized alongside it. *)
let test_delay_memo_follows_rtype () =
  let region = synthetic_region 3 ~ops:60 in
  let net = Netlist.create ~lib ~clock_ps:1600.0 region in
  let op, wide =
    Dfg.fold_ops (Netlist.dfg net)
      (fun o acc ->
        match (acc, Netlist.resource_of net o) with
        | None, Some rt
          when rt.Resource.rclass = Opkind.R_addsub && List.for_all (fun w -> w > 1) rt.Resource.in_widths
          ->
            Some (o, rt)
        | _ -> acc)
      None
    |> Option.get
  in
  (* half as wide: the op can widen it, but does not fit it *)
  let narrow =
    { wide with Resource.in_widths = List.map (fun w -> (w + 1) / 2) wide.Resource.in_widths }
  in
  let i = Netlist.add_inst net narrow in
  let d_narrow = Library.delay lib narrow and d_wide = Library.delay lib wide in
  Alcotest.(check bool) "widths price differently" true (d_narrow <> d_wide);
  Alcotest.(check (float 0.0)) "narrow delay" d_narrow (Netlist.graph net).G.unit_delay.(i.Netlist.inst_id);
  Alcotest.(check int) "mergeable before" 1 (Netlist.compat_tier net op i);
  Netlist.begin_trial net;
  Netlist.set_rtype net i wide;
  Alcotest.(check (float 0.0)) "widened in the trial" d_wide (Netlist.graph net).G.unit_delay.(i.Netlist.inst_id);
  Alcotest.(check (float 0.0)) "exec delay on the instance" d_wide
    (G.exec_delay (Netlist.graph net) op i.Netlist.inst_id);
  Alcotest.(check int) "fits in the trial" 0 (Netlist.compat_tier net op i);
  Netlist.rollback net;
  Alcotest.(check bool) "type restored" true (i.Netlist.rtype = narrow);
  Alcotest.(check (float 0.0)) "narrow again after rollback" d_narrow (Netlist.graph net).G.unit_delay.(i.Netlist.inst_id);
  Alcotest.(check (float 0.0)) "exec delay after rollback" d_narrow
    (G.exec_delay (Netlist.graph net) op i.Netlist.inst_id);
  Alcotest.(check int) "mergeable after rollback" 1 (Netlist.compat_tier net op i)

(* ---- the busy table against a naive (inst, slot) -> ops model ---- *)

type busy_cmd =
  | Occupy of int * int * int * int  (** instance, step, cycles, op *)
  | Trial of (int * int * int * int) list * bool  (** occupies, then commit? *)
  | Reset

(* a netlist over an empty DFG: occupy and the busy reads need no ops *)
let busy_net ~ii ~n_insts =
  let pipeline = Option.map (fun ii -> { Region.ii }) ii in
  let region = Region.create ?pipeline ~name:"busy" (Dfg.create ()) in
  let net = Netlist.create ~lib ~clock_ps:1600.0 region in
  let rt = { Resource.rclass = Opkind.R_addsub; in_widths = [ 8; 8 ]; out_width = 8 } in
  for _ = 1 to n_insts do
    ignore (Netlist.add_inst net rt)
  done;
  Netlist.reset_pass ~price_muxes:true net;
  net

let busy_case_gen =
  QCheck.Gen.(
    oneofl [ None; Some 1; Some 2; Some 3 ] >>= fun ii ->
    int_range 1 12 >>= fun n_insts ->
    let occ =
      quad (int_range 0 (n_insts - 1))
        (frequency [ (12, int_range 0 40); (1, int_range 0 (Region.max_steps_limit - 4)) ])
        (int_range 1 3) (int_range 0 60)
    in
    let cmd =
      frequency
        [
          (6, occ >|= fun (i, s, c, o) -> Occupy (i, s, c, o));
          (3, pair (list_size (int_range 1 4) occ) bool >|= fun (l, c) -> Trial (l, c));
          (1, return Reset);
        ]
    in
    list_size (int_range 1 80) cmd >|= fun cmds -> (ii, n_insts, cmds))

let busy_case_arb =
  let occ (i, s, c, o) = Printf.sprintf "(%d,%d,%d,%d)" i s c o in
  QCheck.make busy_case_gen ~print:(fun (ii, n, cmds) ->
      Printf.sprintf "ii=%s insts=%d [%s]"
        (match ii with None -> "seq" | Some ii -> string_of_int ii)
        n
        (String.concat "; "
           (List.map
              (function
                | Occupy (i, s, c, o) -> "occupy" ^ occ (i, s, c, o)
                | Trial (l, c) ->
                    Printf.sprintf "trial[%s]%s" (String.concat "" (List.map occ l))
                      (if c then "commit" else "rollback")
                | Reset -> "reset")
              cmds)))

(* Every command against the model: after each one (and inside each
   trial, before it ends) the occupied slots read back exactly — same
   ops, same order — and [dump_busy] lists exactly the non-empty ones. *)
let prop_busy_table_matches_model =
  QCheck.Test.make ~name:"busy table = naive (inst, slot) -> ops model" ~count:300 busy_case_arb
    (fun (ii, n_insts, cmds) ->
      let net = busy_net ~ii ~n_insts in
      let slot step = match ii with Some ii -> step mod ii | None -> step in
      let model : (int * int, int list) Hashtbl.t = Hashtbl.create 16 in
      let occupy (i, step, cycles, op) =
        Netlist.occupy net ~inst_id:i ~step ~finish:(step + cycles - 1) op;
        for s = step to step + cycles - 1 do
          let k = (i, slot s) in
          Hashtbl.replace model k (op :: Option.value (Hashtbl.find_opt model k) ~default:[])
        done
      in
      let agrees () =
        let reads =
          Hashtbl.fold (fun (i, sl) ops ok -> ok && Netlist.busy_ops net i sl = ops) model true
        in
        let dump =
          Hashtbl.fold
            (fun k ops acc -> if ops = [] then acc else (k, List.sort compare ops) :: acc)
            model []
          |> List.sort compare
        in
        (* a step no command reaches reads empty *)
        let untouched i = ii <> None || Netlist.busy_ops net i (Region.max_steps_limit - 1) = [] in
        reads && Netlist.dump_busy net = dump && List.for_all untouched (List.init n_insts Fun.id)
      in
      List.for_all
        (fun cmd ->
          (match cmd with
          | Occupy (i, s, c, o) -> occupy (i, s, c, o)
          | Reset ->
              Netlist.reset_pass ~price_muxes:true net;
              Hashtbl.reset model
          | Trial (l, commit) ->
              let saved = Hashtbl.copy model in
              Netlist.begin_trial net;
              List.iter occupy l;
              if not (agrees ()) then QCheck.Test.fail_report "trial view differs from the model";
              if commit then Netlist.commit net
              else begin
                Netlist.rollback net;
                Hashtbl.reset model;
                Hashtbl.iter (Hashtbl.replace model) saved
              end);
          agrees ())
        cmds)

(* The busy table is sized by the slots in use, not by the step number:
   occupying the last step a region accepts allocates well under 1 MiB. *)
let test_busy_far_step_is_small () =
  let net = busy_net ~ii:None ~n_insts:2 in
  let step = Region.max_steps_limit - 1 in
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  Netlist.occupy net ~inst_id:1 ~step ~finish:step 7;
  let grown = Gc.allocated_bytes () -. before in
  Alcotest.(check (list int)) "slot reads back" [ 7 ] (Netlist.busy_ops net 1 step);
  Alcotest.(check bool)
    (Printf.sprintf "occupy at step %d allocated %.0f bytes (< 1 MiB)" step grown)
    true
    (grown < 1048576.0)

let suite =
  [
    Alcotest.test_case "rollback restores all observables" `Quick test_rollback_restores;
    Alcotest.test_case "no-op trial commit is idempotent" `Quick test_commit_idempotent_and_reference;
    Alcotest.test_case "nested trials rejected" `Quick test_nested_trial_rejected;
    Alcotest.test_case "propagation bounded by change, not fanout cone" `Quick
      test_propagation_bounded_by_change;
    Alcotest.test_case "rebind storm issues no queries" `Quick test_rebind_storm_is_free;
    Alcotest.test_case "5k-instance registration stays linear" `Quick test_inst_registration_linear;
    Alcotest.test_case "delay memo follows set_rtype and rollback" `Quick
      test_delay_memo_follows_rtype;
    QCheck_alcotest.to_alcotest prop_failed_bind_is_invisible;
    QCheck_alcotest.to_alcotest prop_incremental_matches_reference;
    QCheck_alcotest.to_alcotest prop_large_design_matches_reference;
    QCheck_alcotest.to_alcotest prop_busy_table_matches_model;
    Alcotest.test_case "occupy at the last accepted step stays small" `Quick
      test_busy_far_step_is_small;
  ]
