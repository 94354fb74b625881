open E2e_kit

let floats = Alcotest.(list (float 1e-9))
let opt_float = Alcotest.(option (float 1e-9))
let range n = List.init n (fun i -> float_of_int (i + 1))

let percentile_rule () =
  (* p90 needs ten samples beyond it: 100 samples, not 99 *)
  Alcotest.check opt_float "p90 of 99" None (Stats.percentile 0.9 (range 99));
  Alcotest.check opt_float "p90 of 100" (Some 90.0) (Stats.percentile 0.9 (range 100));
  Alcotest.check opt_float "p50 of 19" None (Stats.percentile 0.5 (range 19));
  Alcotest.check opt_float "p50 of 20" (Some 10.0) (Stats.percentile 0.5 (range 20));
  Alcotest.check opt_float "order does not matter" (Some 90.0)
    (Stats.percentile 0.9 (List.rev (range 100)));
  Alcotest.(check int) "p90 minimum" 100 (Stats.min_samples 0.9);
  Alcotest.(check int) "p50 minimum" 20 (Stats.min_samples 0.5);
  Alcotest.check opt_float "empty" None (Stats.percentile 0.5 [])

let quartiles_match_python () =
  (* reference values from Python's statistics.quantiles(xs, n=4) *)
  let q xs =
    let a, b, c = Stats.quartiles xs in
    [ a; b; c ]
  in
  Alcotest.check floats "1..10" [ 2.75; 5.5; 8.25 ] (q (range 10));
  Alcotest.check floats "two samples" [ 0.5; 2.0; 3.5 ] (q [ 3.0; 1.0 ]);
  Alcotest.check floats "odd count" [ 1.5; 3.0; 4.5 ] (q [ 5.0; 1.0; 4.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "median of one" 7.0 (Stats.median [ 7.0 ])

let geomean () =
  Alcotest.(check (float 1e-9)) "1,4,16" 4.0 (Stats.geomean [ 1.0; 4.0; 16.0 ]);
  Alcotest.(check (float 1e-9)) "non-positive values skipped" 4.0
    (Stats.geomean [ 0.0; 2.0; 8.0; -3.0 ]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Stats.geomean []);
  Alcotest.(check (float 1e-9)) "ratio with empty base" 0.0 (Stats.ratio 3.0 0.0)

let span ?parent id name t0 t1 = { Span.id; name; parent; req = 0; t0; t1 }

let self_time () =
  let root = span 0 "request" 0.0 10.0 in
  (* overlapping children count once; a child running past its parent is
     clipped to the parent *)
  let kids =
    [
      span ~parent:0 1 "core.schedule" 1.0 3.0;
      span ~parent:0 2 "core.schedule" 2.0 5.0;
      span ~parent:0 3 "rtl" 7.0 8.0;
      span ~parent:0 4 "sim" 9.5 12.0;
    ]
  in
  let grandchild = span ~parent:1 5 "netlist" 1.5 2.0 in
  let selfs = Span.self_times ((root :: kids) @ [ grandchild ]) in
  let self_of id = List.assoc id (List.map (fun (s, v) -> (s.Span.id, v)) selfs) in
  Alcotest.(check (float 1e-9)) "root" 4.5 (self_of 0);
  Alcotest.(check (float 1e-9)) "child with a child" 1.5 (self_of 1);
  Alcotest.(check (float 1e-9)) "leaf" 1.0 (self_of 3);
  Alcotest.(check (list (pair string (float 1e-9))))
    "by name"
    [ ("core.schedule", 4.5); ("netlist", 0.5); ("request", 4.5); ("rtl", 1.0); ("sim", 2.5) ]
    (Span.self_by_name ((root :: kids) @ [ grandchild ]))

let recorder_parents () =
  let t = Span.create () in
  Span.with_span t ~req:7 "request" (fun () ->
      Span.with_span t "frontend" ignore;
      Span.with_span t "core.schedule" ignore);
  match Span.spans t with
  | [ a; b; root ] ->
      Alcotest.(check (list string)) "end order" [ "frontend"; "core.schedule"; "request" ]
        [ a.Span.name; b.Span.name; root.Span.name ];
      Alcotest.(check (option int)) "parent" (Some root.Span.id) a.Span.parent;
      Alcotest.(check (list int)) "request ids" [ 7; 7; 7 ] [ a.Span.req; b.Span.req; root.Span.req ];
      Alcotest.(check (option int)) "root has none" None root.Span.parent
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l)

let lateness () =
  (* requests due at 0, 1 and 2 s; sending the first stalls for 5 s *)
  let clock = ref 0.0 in
  let stall = [| 5.0; 0.0; 0.0 |] in
  let due = [| 0.0; 1.0; 2.0 |] in
  let sent =
    Openloop.send_on_schedule
      ~now:(fun () -> !clock)
      ~sleep:(fun d -> clock := !clock +. d)
      ~due
      ~send:(fun i -> clock := !clock +. stall.(i))
  in
  Alcotest.check floats "later sends wait for the stalled one" [ 0.0; 5.0; 5.0 ] (Array.to_list sent);
  (* each answered 0.5 s after it was sent *)
  let samples =
    List.init 3 (fun i -> { Openloop.due = due.(i); sent = sent.(i); done_ = sent.(i) +. 0.5 })
  in
  Alcotest.check floats "latency counts from the due time" [ 0.5; 4.5; 3.5 ]
    (List.map Openloop.latency samples);
  Alcotest.check floats "lateness" [ 0.0; 4.0; 3.0 ] (List.map Openloop.lateness samples);
  (* an idle generator waits for the due time and is never late *)
  clock := 0.0;
  let sent =
    Openloop.send_on_schedule
      ~now:(fun () -> !clock)
      ~sleep:(fun d -> clock := !clock +. d)
      ~due:[| 3.0; 3.5 |]
      ~send:(fun _ -> ())
  in
  Alcotest.check floats "sent when due" [ 3.0; 3.5 ] (Array.to_list sent)

let arrivals () =
  let a = Openloop.arrivals ~rng:(Random.State.make [| 1 |]) ~rate:200.0 ~duration:10.0 () in
  let b = Openloop.arrivals ~rng:(Random.State.make [| 1 |]) ~rate:200.0 ~duration:10.0 () in
  Alcotest.(check bool) "seeded" true (a = b);
  let n = float_of_int (Array.length a) in
  Alcotest.(check bool) "about rate x duration" true (n > 1800.0 && n < 2200.0);
  Alcotest.(check bool) "sorted, inside the phase" true
    (Array.for_all (fun t -> t >= 0.0 && t < 10.0) a
    && Array.to_list a = List.sort compare (Array.to_list a));
  let c = Openloop.arrivals ~min_count:50 ~rng:(Random.State.make [| 1 |]) ~rate:200.0 ~duration:0.01 () in
  Alcotest.(check int) "extended to min_count" 50 (Array.length c)

let speed () =
  let t = Speed.create () in
  Alcotest.(check (float 1e-9)) "no samples: uncorrected" 1.0 (Speed.factor t);
  t.Speed.times <- [ Speed.nominal_s; 2.0 *. Speed.nominal_s; 2.0 *. Speed.nominal_s ];
  Alcotest.(check (float 1e-9)) "half speed halves times" 0.5 (Speed.factor t);
  Alcotest.(check (list int)) "one sample per 50 ms, at least one" [ 1; 1; 2; 21 ]
    (List.map Speed.samples_for [ 0.0; 0.049; 0.05; 1.0 ])

let reference_never_collects () =
  (* the reference must fit in the minor heap that [Speed.sample] empties,
     or its time would depend on the program's heap *)
  Gc.minor ();
  let before = Gc.quick_stat () in
  ignore (Sys.opaque_identity (Speed.reference ()));
  let after = Gc.quick_stat () in
  Alcotest.(check int) "no minor collection" before.Gc.minor_collections after.Gc.minor_collections;
  Alcotest.(check bool) "under half the minor heap" true
    (after.Gc.minor_words -. before.Gc.minor_words < float_of_int (Gc.get ()).Gc.minor_heap_size /. 2.0)

let () =
  Alcotest.run "e2e"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "quartiles match python" `Quick quartiles_match_python;
          Alcotest.test_case "geomean" `Quick geomean;
        ] );
      ( "span",
        [
          Alcotest.test_case "self time" `Quick self_time;
          Alcotest.test_case "recorder parents" `Quick recorder_parents;
        ] );
      ( "speed",
        [
          Alcotest.test_case "correction factor" `Quick speed;
          Alcotest.test_case "reference never collects" `Quick reference_never_collects;
        ] );
      ( "openloop",
        [
          Alcotest.test_case "lateness accounting" `Quick lateness;
          Alcotest.test_case "arrivals" `Quick arrivals;
        ] );
    ]
