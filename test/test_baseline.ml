(** Baseline comparators: iterative modulo scheduling and schedule-then-fold
    produce valid pipelines, and their timing-naive nature shows up as
    negative slack under the accurate model. *)

open Hls_ir
open Hls_core
open Hls_frontend

let lib = Hls_techlib.Library.artisan90

let region_of ?ii design =
  let e = Elaborate.design design in
  (e, Elaborate.main_region ?ii e)

(** Structural validity shared by both baselines: MRT discipline (no two
    ops on one instance in equivalent slots) and the modulo dependency
    constraint. *)
let check_valid (region : Region.t) (binding : Binding.t) ~ii =
  let dfg = region.Region.dfg in
  let seen = Hashtbl.create 64 in
  Hls_netlist.Netlist.iter_placements binding.Binding.net (fun op pl ->
      match pl.Binding.pl_inst with
      | Some i ->
          let key = (i, pl.Binding.pl_step mod ii) in
          Alcotest.(check bool)
            (Printf.sprintf "op %d sole owner of inst %d slot" op i)
            false (Hashtbl.mem seen key);
          Hashtbl.replace seen key op
      | None -> ());
  Dfg.iter_ops dfg (fun op ->
      List.iter
        (fun e ->
          if Region.mem region e.Dfg.src && Region.mem region e.Dfg.dst then
            match (Binding.placement binding e.Dfg.src, Binding.placement binding e.Dfg.dst) with
            | Some sp, Some dp ->
                if e.Dfg.distance = 0 then
                  Alcotest.(check bool) "intra-iteration order" true
                    (dp.Binding.pl_step >= sp.Binding.pl_step)
                else
                  Alcotest.(check bool) "modulo constraint" true
                    (dp.Binding.pl_step >= sp.Binding.pl_finish - (e.Dfg.distance * ii) + 1)
            | _ -> ())
        (Dfg.in_edges dfg op.Dfg.id))

let test_modulo_example1 () =
  (* the cycle-grained baseline cannot chain the aver recurrence, so its
     RecMII on Example 1 is 4 (one cycle per resource op of the SCC) where
     the unified chaining-aware engine achieves II=2 — Section III's
     point.  Unpinned, the search lands at its own minimum. *)
  let _, region = region_of ~ii:2 (Hls_designs.Example1.design ()) in
  match Hls_baseline.Modulo.schedule ~lib ~clock_ps:1600.0 region with
  | Error e -> Alcotest.fail e.Hls_baseline.Modulo.m_message
  | Ok m ->
      Alcotest.(check int) "cycle-grained RecMII is 4" 4 m.Hls_baseline.Modulo.m_ii;
      check_valid region m.Hls_baseline.Modulo.m_binding ~ii:m.Hls_baseline.Modulo.m_ii;
      (* every member op scheduled *)
      List.iter
        (fun op ->
          Alcotest.(check bool) "placed" true
            (Binding.placement m.Hls_baseline.Modulo.m_binding op.Dfg.id <> None))
        (Region.member_ops region)

let test_modulo_pinned_ii_too_small () =
  let _, region = region_of ~ii:2 (Hls_designs.Example1.design ()) in
  match Hls_baseline.Modulo.schedule ~ii:2 ~lib ~clock_ps:1600.0 region with
  | Error _ -> () (* II below the cycle-grained RecMII must fail cleanly *)
  | Ok m ->
      Alcotest.failf "pinned II=2 should be infeasible for the cycle-grained engine, got LI=%d"
        m.Hls_baseline.Modulo.m_li

let test_modulo_mii_search () =
  let _, region = region_of ~ii:1 (Hls_designs.Example1.design ()) in
  (* without a pinned II the search starts at max(ResMII, RecMII) *)
  match Hls_baseline.Modulo.schedule ~lib ~clock_ps:1600.0 region with
  | Error e -> Alcotest.fail e.Hls_baseline.Modulo.m_message
  | Ok m -> Alcotest.(check bool) "found an II >= 1" true (m.Hls_baseline.Modulo.m_ii >= 1)

let test_modulo_naive_timing_shows () =
  (* the baseline is cycle-grained: under the accurate model some path
     typically carries less slack than our engine leaves (which is always
     >= 0) *)
  let _, region = region_of ~ii:1 (Hls_designs.Example1.design ()) in
  match Hls_baseline.Modulo.schedule ~lib ~clock_ps:1600.0 region with
  | Error e -> Alcotest.fail e.Hls_baseline.Modulo.m_message
  | Ok m ->
      let b = m.Hls_baseline.Modulo.m_binding in
      let rep =
        Hls_timing.Graph.worst_paths b.Binding.graph
          ~endpoints:(Hls_netlist.Netlist.registered_ops b.Binding.net)
          ~rtype:(fun i -> (Binding.find_inst b i).Binding.rtype)
      in
      let syn = Hls_timing.Synthesize.run lib rep in
      (* just assert the report machinery runs end to end on imported
         schedules; sign of slack depends on the MRT outcome *)
      Alcotest.(check bool) "sized area positive" true (syn.Hls_timing.Synthesize.s_area > 0.0)

let test_sehwa_example1 () =
  (* schedule-then-fold on the recurrence-bearing Example 1 at II=2 keeps
     relaxing latency without ever satisfying the fold check — the
     "separation of scheduling and constraint checking" inefficiency the
     paper describes.  On a recurrence-free II it succeeds. *)
  let _, region = region_of ~ii:2 (Hls_designs.Example1.design ()) in
  (match Hls_baseline.Sehwa.schedule ~ii:2 ~lib ~clock_ps:1600.0 region with
  | Error _ -> ()
  | Ok m -> check_valid region m.Hls_baseline.Sehwa.s_binding ~ii:2);
  (* pure-ASAP placement stretches the recurrence further than modulo
     scheduling does, so an even larger II is needed before folding works *)
  let rec first_ok ii =
    if ii > 10 then Alcotest.fail "sehwa never succeeded up to II=10"
    else
      let _, region' = region_of ~ii (Hls_designs.Example1.design ()) in
      match Hls_baseline.Sehwa.schedule ~ii ~lib ~clock_ps:1600.0 region' with
      | Ok m ->
          check_valid region' m.Hls_baseline.Sehwa.s_binding ~ii;
          Alcotest.(check bool) "needed at least one attempt" true
            (m.Hls_baseline.Sehwa.s_attempts >= 1)
      | Error _ -> first_ok (ii + 1)
  in
  first_ok 4

let test_sehwa_relaxes_on_fold_conflict () =
  (* II=1 forbids any sharing: the decoupled scheduler needs several
     schedule+fold attempts (or more resources) before folding succeeds *)
  let _, region = region_of ~ii:1 (Hls_designs.Fir.design ~taps:4 ()) in
  match Hls_baseline.Sehwa.schedule ~ii:1 ~lib ~clock_ps:1600.0 region with
  | Error _ -> () (* acceptable: folding may never succeed with the fixed resource set *)
  | Ok m -> check_valid region m.Hls_baseline.Sehwa.s_binding ~ii:1

let test_rec_mii () =
  let _, region = region_of ~ii:1 (Hls_designs.Dotprod.design ()) in
  (* the accumulator SCC implies a recurrence bound of at least 1 *)
  Alcotest.(check bool) "rec_mii >= 1" true (Hls_baseline.Modulo.rec_mii region >= 1)

let suite =
  [
    Alcotest.test_case "modulo: example1 search" `Quick test_modulo_example1;
    Alcotest.test_case "modulo: pinned II below RecMII" `Quick test_modulo_pinned_ii_too_small;
    Alcotest.test_case "modulo: MII search" `Quick test_modulo_mii_search;
    Alcotest.test_case "modulo: naive timing analyzable" `Quick test_modulo_naive_timing_shows;
    Alcotest.test_case "sehwa: example1" `Quick test_sehwa_example1;
    Alcotest.test_case "sehwa: fold conflicts relax" `Quick test_sehwa_relaxes_on_fold_conflict;
    Alcotest.test_case "RecMII" `Quick test_rec_mii;
  ]
