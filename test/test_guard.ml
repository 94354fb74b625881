(** Guards: conjunction algebra, mutual exclusivity, implication. *)

open Hls_ir

let g atoms = List.fold_left (fun acc (p, pol) ->
    match Option.bind acc (fun g -> Guard.add g ~pred:p ~polarity:pol) with
    | Some _ as r -> r
    | None -> None)
    (Some Guard.always) atoms

let get = function Some x -> x | None -> Alcotest.fail "unexpected contradiction"

let test_always () =
  Alcotest.(check bool) "always is always" true (Guard.is_always Guard.always);
  Alcotest.(check bool) "atom is not always" false (Guard.is_always (get (g [ (1, true) ])))

let test_conj () =
  let g1 = get (g [ (1, true) ]) and g2 = get (g [ (2, false) ]) in
  let both = get (Guard.conj g1 g2) in
  Alcotest.(check int) "two atoms" 2 (List.length both);
  (* contradiction *)
  let g1' = get (g [ (1, false) ]) in
  Alcotest.(check bool) "contradiction detected" true (Guard.conj g1 g1' = None);
  (* idempotence *)
  Alcotest.(check bool) "conj with self is self" true (Guard.equal g1 (get (Guard.conj g1 g1)))

let test_mutual_exclusion () =
  let t = get (g [ (5, true) ]) and f = get (g [ (5, false) ]) in
  Alcotest.(check bool) "opposite polarities exclude" true (Guard.mutually_exclusive t f);
  let other = get (g [ (6, true) ]) in
  Alcotest.(check bool) "different preds do not exclude" false (Guard.mutually_exclusive t other);
  Alcotest.(check bool) "always never excludes" false (Guard.mutually_exclusive Guard.always t);
  (* nested: (5,T)&(6,T) vs (5,F)&(7,T) still exclusive through pred 5 *)
  let a = get (g [ (5, true); (6, true) ]) and b = get (g [ (5, false); (7, true) ]) in
  Alcotest.(check bool) "nested exclusion" true (Guard.mutually_exclusive a b)

let test_implies () =
  let a = get (g [ (1, true); (2, false) ]) and b = get (g [ (1, true) ]) in
  Alcotest.(check bool) "stronger implies weaker" true (Guard.implies a b);
  Alcotest.(check bool) "weaker does not imply stronger" false (Guard.implies b a);
  Alcotest.(check bool) "everything implies always" true (Guard.implies a Guard.always)

let atom_gen = QCheck.Gen.(map2 (fun p pol -> (p, pol)) (int_range 0 6) bool)

let guard_gen =
  QCheck.Gen.(
    map
      (fun atoms ->
        List.fold_left
          (fun acc (p, pol) ->
            match Guard.add acc ~pred:p ~polarity:pol with Some x -> x | None -> acc)
          Guard.always atoms)
      (list_size (int_range 0 4) atom_gen))

let guard_arb = QCheck.make guard_gen ~print:Guard.to_string

let prop_mutex_symmetric =
  QCheck.Test.make ~name:"mutual exclusivity is symmetric" ~count:300
    QCheck.(pair guard_arb guard_arb)
    (fun (a, b) -> Guard.mutually_exclusive a b = Guard.mutually_exclusive b a)

let prop_conj_implies =
  QCheck.Test.make ~name:"conjunction implies both conjuncts" ~count:300
    QCheck.(pair guard_arb guard_arb)
    (fun (a, b) ->
      match Guard.conj a b with
      | None -> true
      | Some c -> Guard.implies c a && Guard.implies c b)

let prop_exclusive_conj_contradicts =
  QCheck.Test.make ~name:"mutually exclusive guards have no conjunction" ~count:300
    QCheck.(pair guard_arb guard_arb)
    (fun (a, b) -> (not (Guard.mutually_exclusive a b)) || Guard.conj a b = None)

let suite =
  [
    Alcotest.test_case "always" `Quick test_always;
    Alcotest.test_case "conj" `Quick test_conj;
    Alcotest.test_case "mutual exclusion" `Quick test_mutual_exclusion;
    Alcotest.test_case "implies" `Quick test_implies;
    QCheck_alcotest.to_alcotest prop_mutex_symmetric;
    QCheck_alcotest.to_alcotest prop_conj_implies;
    QCheck_alcotest.to_alcotest prop_exclusive_conj_contradicts;
  ]
