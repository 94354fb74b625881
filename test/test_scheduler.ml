(** The scheduler on the paper's worked examples: Table 2 is reproduced
    exactly, the pipelined variants match Examples 2 and 3, and the
    relaxation engine behaves as narrated. *)

open Hls_ir
open Hls_core

let lib = Hls_techlib.Library.artisan90
let clock = 1600.0

(* follow the paper's narrative: start from the designer's latency lower
   bound, not the resource-implied floor *)
let narrative_opts = { Scheduler.default_options with seed_latency_floor = false }

let schedule_example1 ?ii ?(min_latency = 1) ?(max_latency = 3) () =
  let e = Hls_designs.Example1.elaborated ~min_latency ~max_latency ?ii () in
  let region = Hls_frontend.Elaborate.main_region e in
  match Scheduler.schedule ~opts:narrative_opts ~lib ~clock_ps:clock region with
  | Ok s -> (e, s)
  | Error err -> Alcotest.failf "schedule failed: %s" err.Scheduler.e_message

let kind_of (e : Hls_frontend.Elaborate.t) id =
  (Dfg.find e.Hls_frontend.Elaborate.cdfg.Cdfg.dfg id).Dfg.kind

let step_of_kind e s k =
  let matches =
    Hls_netlist.Netlist.fold_placements s.Scheduler.s_binding.Binding.net
      (fun id pl acc -> if kind_of e id = k then (id, pl.Binding.pl_step) :: acc else acc)
      []
  in
  List.sort compare (List.map snd matches)

let test_table2_sequential () =
  let e, s = schedule_example1 () in
  (* Table 2: three states, minimum resources *)
  Alcotest.(check int) "LI = 3" 3 s.Scheduler.s_li;
  (* one multiplier instance only *)
  let muls =
    List.filter
      (fun (i : Binding.inst) ->
        i.Binding.rtype.Hls_techlib.Resource.rclass = Opkind.R_mul && i.Binding.bound <> [])
      (Hls_netlist.Netlist.insts s.Scheduler.s_binding.Binding.net)
  in
  Alcotest.(check int) "single multiplier" 1 (List.length muls);
  Alcotest.(check int) "it executes all three multiplications" 3
    (List.length (List.hd muls).Binding.bound);
  (* placements per Table 2: muls in s1/s2/s3, add&neq in s1, gt&mux in s2 *)
  Alcotest.(check (list int)) "muls one per state" [ 0; 1; 2 ]
    (step_of_kind e s (Opkind.Bin Opkind.Mul));
  Alcotest.(check (list int)) "add in s1" [ 0 ] (step_of_kind e s (Opkind.Bin Opkind.Add));
  Alcotest.(check (list int)) "neq in s1" [ 0 ] (step_of_kind e s (Opkind.Bin Opkind.Neq));
  Alcotest.(check (list int)) "gt in s2" [ 1 ] (step_of_kind e s (Opkind.Bin Opkind.Gt));
  Alcotest.(check (list int)) "mux in s2" [ 1 ] (step_of_kind e s Opkind.Mux);
  (* the narrative: two add_state relaxations (latency 1 -> 3) *)
  Alcotest.(check int) "three passes" 3 s.Scheduler.s_passes;
  Alcotest.(check bool) "non-negative final slack" true
    (Hls_timing.Graph.worst_slack s.Scheduler.s_binding.Binding.graph >= 0.0)

let test_example2_ii2 () =
  let _, s = schedule_example1 ~ii:2 ~max_latency:4 () in
  Alcotest.(check int) "LI = 3" 3 s.Scheduler.s_li;
  let muls =
    List.filter
      (fun (i : Binding.inst) ->
        i.Binding.rtype.Hls_techlib.Resource.rclass = Opkind.R_mul && i.Binding.bound <> [])
      (Hls_netlist.Netlist.insts s.Scheduler.s_binding.Binding.net)
  in
  (* "two mul resources must be created" *)
  Alcotest.(check int) "two multipliers" 2 (List.length muls);
  (* the SCC stays in stage 0 and the schedule succeeds first pass,
     "illustrating the uniformity of the approach" *)
  Alcotest.(check int) "single pass" 1 s.Scheduler.s_passes;
  List.iter
    (fun (_, stage) -> Alcotest.(check int) "SCC in stage 0" 0 stage)
    s.Scheduler.s_scc_stages

let test_example3_ii1 () =
  let _, s = schedule_example1 ~ii:1 ~max_latency:4 () in
  Alcotest.(check int) "LI = 3" 3 s.Scheduler.s_li;
  let muls =
    List.filter
      (fun (i : Binding.inst) ->
        i.Binding.rtype.Hls_techlib.Resource.rclass = Opkind.R_mul && i.Binding.bound <> [])
      (Hls_netlist.Netlist.insts s.Scheduler.s_binding.Binding.net)
  in
  (* "no resource is shareable ... hence 3 multipliers" *)
  Alcotest.(check int) "three multipliers" 3 (List.length muls);
  List.iter
    (fun (i : Binding.inst) ->
      Alcotest.(check int) "one op each" 1 (List.length i.Binding.bound))
    muls;
  (* the novel action: the SCC was moved to the second stage *)
  Alcotest.(check bool) "a move_scc action was applied" true
    (List.exists
       (fun a -> String.length a >= 8 && String.sub a 0 8 = "move_scc")
       s.Scheduler.s_actions);
  List.iter
    (fun (_, stage) -> Alcotest.(check int) "SCC in stage 1 (state s2)" 1 stage)
    s.Scheduler.s_scc_stages

let test_overconstrained_fails_cleanly () =
  (* latency pinned to 1 state: the paper's first pass outcome, with no
     room to relax *)
  let e = Hls_designs.Example1.elaborated ~min_latency:1 ~max_latency:1 () in
  let region = Hls_frontend.Elaborate.main_region e in
  match Scheduler.schedule ~lib ~clock_ps:clock region with
  | Ok _ -> Alcotest.fail "1-state example1 at 1600 ps must be infeasible"
  | Error err ->
      Alcotest.(check bool) "error mentions constraint" true
        (err.Scheduler.e_message <> "");
      Alcotest.(check bool) "restraints recorded" true (err.Scheduler.e_restraints <> [])

let test_relaxed_clock_shares_multiplier () =
  (* a slow clock does not change the minimal-resource outcome: three
     multiplications still share one multiplier over three states, but the
     deep chains now fit each state comfortably *)
  let e = Hls_designs.Example1.elaborated ~min_latency:1 ~max_latency:3 () in
  let region = Hls_frontend.Elaborate.main_region e in
  match Scheduler.schedule ~lib ~clock_ps:6000.0 region with
  | Ok s ->
      Alcotest.(check int) "LI = 3 (one multiplier)" 3 s.Scheduler.s_li;
      Alcotest.(check bool) "ample slack" true (Hls_timing.Graph.worst_slack s.Scheduler.s_binding.Binding.graph > 1000.0)
  | Error err -> Alcotest.failf "must fit: %s" err.Scheduler.e_message

let test_anchor_respected () =
  let open Hls_frontend.Dsl in
  let d =
    design "anch" ~ins:[ in_port "a" 8 ] ~outs:[ out_port "y" 16 ] ~vars:[ var "x" 16 ]
      [
        "x" := int 0;
        wait;
        do_while ~min_latency:2 ~max_latency:4
          [ "x" := port "a" *: port "a"; wait; write "y" (v "x") ]
          (int 1);
      ]
  in
  let e = Hls_frontend.Elaborate.design ~timed:true d in
  let region = Hls_frontend.Elaborate.main_region e in
  match Scheduler.schedule ~lib ~clock_ps:1600.0 region with
  | Ok s ->
      let dfg = e.Hls_frontend.Elaborate.cdfg.Cdfg.dfg in
      Hls_netlist.Netlist.iter_placements s.Scheduler.s_binding.Binding.net (fun id pl ->
          match (Dfg.find dfg id).Dfg.anchor with
          | Some a -> Alcotest.(check int) "anchored op at its step" a pl.Binding.pl_step
          | None -> ())
  | Error err -> Alcotest.failf "timed schedule failed: %s" err.Scheduler.e_message

let test_all_members_placed () =
  let e, s = schedule_example1 ~ii:2 ~max_latency:4 () in
  let region = s.Scheduler.s_region in
  ignore e;
  List.iter
    (fun op ->
      Alcotest.(check bool)
        (Printf.sprintf "op %d placed" op.Dfg.id)
        true
        (Binding.placement s.Scheduler.s_binding op.Dfg.id <> None))
    (Region.member_ops region)

let test_busy_exclusivity () =
  (* two ops on the same instance in one step only with exclusive guards *)
  let e, s = schedule_example1 () in
  let dfg = e.Hls_frontend.Elaborate.cdfg.Cdfg.dfg in
  List.iter
    (fun (i : Binding.inst) ->
      let by_step = Hashtbl.create 4 in
      List.iter
        (fun o ->
          match Binding.placement s.Scheduler.s_binding o with
          | Some pl ->
              let prev = Option.value (Hashtbl.find_opt by_step pl.Binding.pl_step) ~default:[] in
              List.iter
                (fun o' ->
                  Alcotest.(check bool) "same-slot ops are exclusive" true
                    (Guard.mutually_exclusive (Dfg.find dfg o).Dfg.guard (Dfg.find dfg o').Dfg.guard))
                prev;
              Hashtbl.replace by_step pl.Binding.pl_step (o :: prev)
          | None -> ())
        i.Binding.bound)
    (Hls_netlist.Netlist.insts s.Scheduler.s_binding.Binding.net)

let test_table_rendering () =
  let _, s = schedule_example1 () in
  let table = Scheduler.to_table s in
  Alcotest.(check bool) "has header plus rows" true (List.length table > 3);
  Alcotest.(check int) "columns = states + 1" 4 (List.length (List.hd table))

(* with tracing off nothing is formatted: a [%a] printer never runs *)
let test_trace_off_formats_nothing () =
  let calls = ref 0 in
  let pp () x =
    incr calls;
    string_of_int x
  in
  Trace.logf None "%a and %d" pp 1 2;
  Trace.logf ~level:Trace.Debug None "%a" pp 3;
  Alcotest.(check int) "printer not called" 0 !calls;
  let t = Trace.create () in
  Trace.logf (Some t) "%a and %d" pp 1 2;
  Alcotest.(check int) "printer called once" 1 !calls;
  Alcotest.(check (list string)) "recorded text" [ "1 and 2" ] (Trace.events t)

(* Fig. 8's first pass of Example 1 at LI = 1, as the trace records it:
   per-bind arrivals and slacks, then the comparator's -200 ps failure *)
let test_example1_trace_narrative () =
  let e = Hls_designs.Example1.elaborated ~max_latency:1 ~min_latency:1 () in
  let region = Hls_frontend.Elaborate.main_region e in
  let trace = Trace.create () in
  ignore (Scheduler.schedule ~opts:narrative_opts ~trace ~lib ~clock_ps:clock region);
  Alcotest.(check (list string)) "first pass narrative"
    [
      "initial resources: 1x mux_32x32, 1x mul_32x32, 1x add_32x32, 1x cmp_32x32, 1x mux_1x32x32, 1x eqcmp_32x1";
      "pass 1: LI=1, 6 resources";
      "    bound aver_loop to mux_32x32#0 at step 0: arrival 150 ps, slack 1300 ps";
      "    bound mul_5 to mul_32x32#1 at step 0: arrival 1080 ps, slack 370 ps";
      "    bound add_7 to add_32x32#2 at step 0: arrival 1430 ps, slack 20 ps";
      "    op 10 (cmp_10) FAILED at step 0: slack(-200)";
      "    bound eqcmp_19 to eqcmp_32x1#5 at step 0: arrival 1140 ps, slack 310 ps";
      "pass 1: failed with 7 restraints";
    ]
    (List.filteri (fun i _ -> i < 8) (Trace.events trace))

(* Allocation inside [Scheduler.schedule] is a function of its input
   alone: after a warm-up, two calls on fresh elaborations of the ~1k-op
   synthetic design read the same [Gc.minor_words] delta, although
   unrelated allocation between them moves where minor collections fall.
   A per-request allocation figure that still varies run to run comes
   from its formula, not from the scheduler ([Gc.counters]' minor + major
   - promoted counts promotions, which depend on collection timing). *)
let test_schedule_minor_words_deterministic () =
  let profile =
    { Hls_designs.Synthetic.default_profile with p_ops = 500; p_tightness = 0.3; p_seed = 7 }
  in
  let words () =
    let region =
      Hls_frontend.Elaborate.main_region
        (Hls_frontend.Elaborate.design (Hls_designs.Synthetic.design ~profile ()))
    in
    let w0 = Gc.minor_words () in
    (match Scheduler.schedule ~lib ~clock_ps:1600.0 region with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "synthetic design failed: %s" e.Scheduler.e_message);
    Gc.minor_words () -. w0
  in
  ignore (words ());
  let first = words () in
  (* unrelated allocation, some of it kept live across the second call *)
  let kept = ref [] in
  for i = 1 to 250_007 do
    let cell = Array.make (1 + (i mod 7)) i in
    if i mod 5 = 0 then kept := cell :: !kept
  done;
  let second = words () in
  ignore (Sys.opaque_identity !kept);
  Alcotest.(check (float 0.0)) "same minor words" first second

(* A failed pass ends its restraint list with one [F_blocked] marker per
   op it never reached, and the expert breaks ties by list order, so the
   markers keep the order they have always had: the iteration order of a
   [Hashtbl] created for the members and filled in ascending id order. *)
let test_blocked_restraint_order () =
  let e = Hls_designs.Example1.elaborated ~ii:2 () in
  let region = Hls_frontend.Elaborate.main_region e in
  match Scheduler.schedule ~lib ~clock_ps:1200.0 region with
  | Ok _ -> Alcotest.fail "example1 at II=2, 1200 ps is expected to be refused"
  | Error err ->
      let blocked =
        List.filter_map
          (fun (r : Restraint.t) ->
            if r.Restraint.r_fail = Restraint.F_blocked then Some r.Restraint.r_op else None)
          err.Scheduler.e_restraints
      in
      Alcotest.(check bool) "several blocked ops" true (List.length blocked >= 2);
      let members = Region.member_ops region in
      let h = Hashtbl.create (List.length members) in
      List.iter (fun (o : Dfg.op) -> Hashtbl.replace h o.Dfg.id ()) members;
      let order = ref [] in
      Hashtbl.iter (fun id () -> if List.mem id blocked then order := id :: !order) h;
      Alcotest.(check (list int)) "blocked markers in table order" (List.rev !order) blocked

(* What a schedule decided, as one comparable string: the LI, passes and
   timing queries, then each placed op's step, instance and endpoint
   slack *)
let outcome (r : (Scheduler.t, Scheduler.error) result) =
  match r with
  | Error e -> Printf.sprintf "error %s after %d passes" e.Scheduler.e_code e.Scheduler.e_passes
  | Ok s ->
      let st = Scheduler.stats s in
      let net = s.Scheduler.s_binding.Binding.net in
      Hls_netlist.Netlist.fold_placements net
        (fun id pl acc -> (id, pl.Binding.pl_step, pl.Binding.pl_inst) :: acc)
        []
      |> List.sort compare
      |> List.map (fun (id, step, inst) ->
             Printf.sprintf "%d@%d/%d:%.3f" id step (Option.value inst ~default:(-1))
               (Hls_timing.Graph.endpoint_slack (Hls_netlist.Netlist.graph net) id))
      |> String.concat " "
      |> Printf.sprintf "LI=%d passes=%d queries=%d %s" s.Scheduler.s_li st.Scheduler.st_passes
           st.Scheduler.st_queries

(* A schedule depends on its region, options and hints alone: scheduling
   one region a second time repeats the first schedule exactly, whatever
   LI the first left behind *)
let test_reschedule_same_region () =
  let differing =
    List.concat_map
      (fun (name, mk) ->
        let e = Hls_frontend.Elaborate.design (mk ()) in
        List.concat_map
          (fun ii ->
            List.filter_map
              (fun clock_ps ->
                let region = Hls_frontend.Elaborate.main_region ?ii e in
                let first = outcome (Scheduler.schedule ~lib ~clock_ps region) in
                let second = outcome (Scheduler.schedule ~lib ~clock_ps region) in
                if first = second then None
                else
                  Some
                    (Printf.sprintf "%s II=%s %.0f ps" name
                       (Option.fold ~none:"seq" ~some:string_of_int ii)
                       clock_ps))
              [ 1200.0; 1600.0; 2400.0 ])
          [ None; Some 1; Some 2 ])
      Hls_server.Design_db.builtins
  in
  Alcotest.(check (list string)) "configurations whose second schedule differs" [] differing

let suite =
  [
    Alcotest.test_case "Table 2: sequential schedule" `Quick test_table2_sequential;
    Alcotest.test_case "Example 2: II=2" `Quick test_example2_ii2;
    Alcotest.test_case "Example 3: II=1 moves the SCC" `Quick test_example3_ii1;
    Alcotest.test_case "overconstrained fails cleanly" `Quick test_overconstrained_fails_cleanly;
    Alcotest.test_case "slow clock shares the multiplier" `Quick test_relaxed_clock_shares_multiplier;
    Alcotest.test_case "anchors respected" `Quick test_anchor_respected;
    Alcotest.test_case "all members placed" `Quick test_all_members_placed;
    Alcotest.test_case "busy slots honour exclusivity" `Quick test_busy_exclusivity;
    Alcotest.test_case "table rendering" `Quick test_table_rendering;
    Alcotest.test_case "tracing off formats nothing" `Quick test_trace_off_formats_nothing;
    Alcotest.test_case "Example 1 trace narrative" `Quick test_example1_trace_narrative;
    Alcotest.test_case "schedule allocation is run-independent" `Quick
      test_schedule_minor_words_deterministic;
    Alcotest.test_case "blocked restraints keep their order" `Quick test_blocked_restraint_order;
    Alcotest.test_case "rescheduling a region repeats its schedule" `Slow
      test_reschedule_same_region;
  ]
