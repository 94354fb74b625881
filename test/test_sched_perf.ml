(** Warm-start machinery: the lazy-deletion ready heap must reproduce the
    historic fold's extraction order exactly, the per-step reverse index
    must match a fold over all placements, and — the load-bearing property
    — a warm-started schedule must be indistinguishable from a cold one on
    every observable (latency, passes, placements, instance bindings). *)

open Hls_core

let lib = Hls_techlib.Library.artisan90

(* ------------------------------------------------------------------ *)
(* heap pick order                                                     *)

(** Reference extraction order of the pre-heap fold: descending score,
    ascending id on ties. *)
let fold_order entries =
  List.sort
    (fun (s, id) (s', id') -> compare (s', -id') (s, -id))
    entries

let heap_matches_fold entries =
  let h = Ready_heap.create ~capacity:4 () in
  List.iter (fun (s, id) -> Ready_heap.push h ~score:s id) entries;
  let rec drain acc =
    match Ready_heap.pop h with None -> List.rev acc | Some (s, id) -> drain ((s, id) :: acc)
  in
  drain [] = fold_order entries

let prop_heap_order =
  QCheck.Test.make ~name:"heap pops in the fold's (score desc, id asc) order" ~count:300
    (* few distinct scores force tie-breaking through the id *)
    QCheck.(list_of_size Gen.(int_range 0 40) (pair (int_range 0 5) (int_range 0 10_000)))
    (fun raw ->
      (* unique ids; quantized scores *)
      let seen = Hashtbl.create 16 in
      let entries =
        List.filter_map
          (fun (s, id) ->
            if Hashtbl.mem seen id then None
            else begin
              Hashtbl.replace seen id ();
              Some (float_of_int s /. 2.0, id)
            end)
          raw
      in
      heap_matches_fold entries)

let test_heap_interleaved () =
  (* pushes interleaved with pops — the scheduler's actual usage: ops
     enter the ready pool as predecessors place *)
  let h = Ready_heap.create () in
  Ready_heap.push h ~score:1.0 7;
  Ready_heap.push h ~score:2.0 3;
  Alcotest.(check (option (pair (float 0.0) int))) "max first" (Some (2.0, 3)) (Ready_heap.pop h);
  Ready_heap.push h ~score:1.0 2;
  Ready_heap.push h ~score:1.0 9;
  Alcotest.(check (option (pair (float 0.0) int))) "tie: low id" (Some (1.0, 2)) (Ready_heap.pop h);
  Alcotest.(check (option (pair (float 0.0) int))) "then 7" (Some (1.0, 7)) (Ready_heap.pop h);
  Alcotest.(check (option (pair (float 0.0) int))) "then 9" (Some (1.0, 9)) (Ready_heap.pop h);
  Alcotest.(check (option (pair (float 0.0) int))) "empty" None (Ready_heap.pop h);
  Alcotest.(check bool) "is_empty" true (Ready_heap.is_empty h)

(* ------------------------------------------------------------------ *)
(* warm == cold                                                        *)

let schedule_design ?opts ?ii d =
  let e = Hls_frontend.Elaborate.design d in
  let region = Hls_frontend.Elaborate.main_region ?ii e in
  (region, Scheduler.schedule ?opts ~lib ~clock_ps:1600.0 region)

(** Everything downstream consumes: latency, pass count, every placement
    triple, and every instance's (rtype, bound set). *)
let observables (s : Scheduler.t) =
  let b = s.Scheduler.s_binding in
  let placements =
    List.sort compare
      (Hls_netlist.Netlist.fold_placements b.Binding.net
         (fun op (pl : Binding.placement) acc ->
           (op, pl.Binding.pl_step, pl.Binding.pl_finish, pl.Binding.pl_inst) :: acc)
         [])
  in
  let insts =
    List.sort compare
      (List.map
         (fun (i : Binding.inst) ->
           (i.Binding.inst_id, Hls_techlib.Resource.to_string i.Binding.rtype,
            List.sort compare i.Binding.bound))
         (Hls_netlist.Netlist.insts b.Binding.net))
  in
  (s.Scheduler.s_li, s.Scheduler.s_passes, s.Scheduler.s_actions, placements, insts)

(* [Ok ()] when warm- and cold-started schedules of the synthetic design
   of [seed] agree on every observable (or fail with the same code) *)
let warm_cold_agree seed =
  let profile =
    {
      Hls_designs.Synthetic.default_profile with
      Hls_designs.Synthetic.p_ops = 20 + (seed mod 50);
      p_seed = seed;
      p_tightness = 0.2 +. (float_of_int (seed mod 5) /. 10.0);
      p_accumulators = 1 + (seed mod 2);
    }
  in
  let d = Hls_designs.Synthetic.design ~profile () in
  (* a third of the cases pipeline, at II 1, 2 or 3, so SCC moves and
     forbids — the actions that actually exercise prefix replay — occur *)
  let ii = if seed mod 3 = 0 then Some (1 + (seed / 3 mod 3)) else None in
  let run warm_start =
    schedule_design ~opts:{ Scheduler.default_options with warm_start } ?ii d |> snd
  in
  match (run true, run false) with
  | Ok w, Ok c ->
      if observables w = observables c then Ok ()
      else Error (Printf.sprintf "warm and cold schedules diverge (seed %d)" seed)
  | Error w, Error c ->
      if w.Scheduler.e_code = c.Scheduler.e_code then Ok ()
      else
        Error
          (Printf.sprintf "warm error %s vs cold error %s (seed %d)" w.Scheduler.e_code
             c.Scheduler.e_code seed)
  | Ok _, Error e | Error e, Ok _ ->
      Error
        (Printf.sprintf "warm/cold disagree on feasibility: %s (seed %d)" e.Scheduler.e_code seed)

let prop_warm_equals_cold =
  QCheck.Test.make ~name:"warm-started schedule == cold schedule (all observables)" ~count:220
    QCheck.(int_range 1 100_000)
    (fun seed ->
      match warm_cold_agree seed with Ok () -> true | Error m -> QCheck.Test.fail_report m)

(* Seed 27573 widens an instance by a merge in one pass, and the next pass
   must not replay binds made before the wider type existed: a cold pass
   binds an op of that class on the widened instance instead *)
let test_widening_forces_cold () =
  match warm_cold_agree 27573 with Ok () -> () | Error m -> Alcotest.fail m

(** Warm passes are counted — and on a design whose relaxation uses only
    global actions, every pass is cold. *)
let test_pass_counters () =
  let _, r = schedule_design (Hls_designs.Idct.design ()) in
  match r with
  | Error e -> Alcotest.failf "idct failed: %s" e.Scheduler.e_message
  | Ok s ->
      let st = Scheduler.stats s in
      Alcotest.(check int) "warm + cold = passes" st.Scheduler.st_passes
        (st.Scheduler.st_warm_passes + st.Scheduler.st_cold_passes);
      let _, r' =
        schedule_design
          ~opts:{ Scheduler.default_options with warm_start = false }
          (Hls_designs.Idct.design ())
      in
      (match r' with
      | Error e -> Alcotest.failf "idct (cold) failed: %s" e.Scheduler.e_message
      | Ok c ->
          let stc = Scheduler.stats c in
          Alcotest.(check int) "legacy mode never warm-starts" 0 stc.Scheduler.st_warm_passes;
          Alcotest.(check int) "legacy cold count = passes" stc.Scheduler.st_passes
            stc.Scheduler.st_cold_passes)

(** Region-parallel analysis is deterministic: the same design scheduled
    with 1 and 4 analysis workers yields bit-identical observables (SCC
    results are merged in index order, so the worker count can only change
    wall time, never the outcome).  Every case has at least 8 SCCs, the
    fan-out threshold, so the 4-worker run really maps over domains. *)
let jobs_agree ?ii d =
  let region = Hls_frontend.Elaborate.main_region ?ii (Hls_frontend.Elaborate.design d) in
  let n_sccs = List.length (Hls_ir.Region.sccs region) in
  let run jobs =
    Scheduler.set_jobs jobs;
    Fun.protect ~finally:(fun () -> Scheduler.set_jobs 1) (fun () -> schedule_design ?ii d |> snd)
  in
  if n_sccs < 8 then Error (Printf.sprintf "%d SCCs, below the fan-out threshold" n_sccs)
  else
    match (run 1, run 4) with
    | Ok a, Ok b ->
        if observables a = observables b then Ok () else Error "1-job and 4-job schedules diverge"
    | Error a, Error b ->
        if a.Scheduler.e_code = b.Scheduler.e_code then Ok ()
        else
          Error
            (Printf.sprintf "jobs=1 error %s vs jobs=4 error %s" a.Scheduler.e_code
               b.Scheduler.e_code)
    | Ok _, Error e | Error e, Ok _ ->
        Error ("jobs disagree on feasibility: " ^ e.Scheduler.e_code)

let prop_jobs_deterministic =
  QCheck.Test.make ~name:"schedule observables identical across --jobs" ~count:20
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let profile =
        {
          Hls_designs.Synthetic.default_profile with
          Hls_designs.Synthetic.p_ops = 40 + (seed mod 120);
          p_seed = seed;
          p_tightness = 0.2 +. (float_of_int (seed mod 5) /. 10.0);
          p_accumulators = 8 + (seed mod 5);
        }
      in
      match jobs_agree ~ii:(1 + (seed mod 2)) (Hls_designs.Synthetic.design ~profile ()) with
      | Ok () -> true
      | Error m -> QCheck.Test.fail_reportf "%s (seed %d)" m seed)

let test_idct8x8_jobs () =
  match jobs_agree ~ii:1 (Hls_designs.Idct2d.design ()) with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("idct8x8 II=1: " ^ m)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_heap_order;
    Alcotest.test_case "heap interleaved push/pop" `Quick test_heap_interleaved;
    QCheck_alcotest.to_alcotest prop_warm_equals_cold;
    Alcotest.test_case "a widening merge forces a cold pass (seed 27573)" `Quick
      test_widening_forces_cold;
    Alcotest.test_case "warm/cold pass counters" `Quick test_pass_counters;
    QCheck_alcotest.to_alcotest prop_jobs_deterministic;
    Alcotest.test_case "idct8x8 II=1 schedule identical across --jobs" `Quick test_idct8x8_jobs;
  ]
