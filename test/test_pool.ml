(** The process-wide parallel map: index order for any [jobs], nested
    calls, exception propagation — and, in the fork-first group, that
    [jobs = 1] never spawns a domain, so [Unix.fork] stays usable. *)

module Pool = Hls_pool.Pool
module Dse = Hls_dse.Dse

(* run before the forking suites: with one job neither [Pool.map] nor a
   DSE sweep may start a domain *)
let test_jobs1_keeps_fork () =
  Alcotest.(check (array int)) "jobs=1 maps" [| 2; 3; 4 |] (Pool.map ~jobs:1 succ [| 1; 2; 3 |]);
  Alcotest.(check (array int)) "one item maps inline" [| 2 |] (Pool.map ~jobs:4 succ [| 1 |]);
  let pt = Dse.point ~ii:2 ~clock_ps:1600.0 () in
  let sw =
    Dse.sweep ~jobs:1 (Dse.create ())
      ~options:{ Hls_flow.Flow.default_options with verify = false }
      (Hls_designs.Example1.design ()) [ pt ]
  in
  Alcotest.(check int) "sweep ran on one worker" 1 sw.Dse.sw_jobs;
  match Unix.fork () with
  | 0 -> Unix._exit 0
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "forked child did not exit cleanly")

let fork_suite =
  [ Alcotest.test_case "jobs=1 map and sweep leave fork usable" `Quick test_jobs1_keeps_fork ]

(* enough work per item that the domains genuinely interleave *)
let slow x =
  let r = ref x in
  for _ = 1 to 200 do
    r := (!r * 31) mod 1_000_003
  done;
  (x, !r)

let prop_index_order =
  QCheck.Test.make ~name:"map returns results in index order for jobs 1, 2, 4" ~count:60
    QCheck.(pair (oneofl [ 1; 2; 4 ]) (array_of_size Gen.(int_range 0 300) small_int))
    (fun (jobs, items) -> Pool.map ~jobs slow items = Array.map slow items)

let test_nested () =
  let inner i =
    Array.fold_left ( + ) 0 (Pool.map ~jobs:4 (fun j -> i * j) (Array.init 10 Fun.id))
  in
  Alcotest.(check (array int)) "nested map from inside a pool task"
    (Array.init 16 (fun i -> 45 * i))
    (Pool.map ~jobs:4 inner (Array.init 16 Fun.id))

let test_exception () =
  (match Pool.map ~jobs:4 (fun i -> if i = 17 then raise Exit else i) (Array.init 64 Fun.id) with
  | _ -> Alcotest.fail "the exception was lost"
  | exception Exit -> ());
  Alcotest.(check (array int)) "the next map still works" (Array.init 64 succ)
    (Pool.map ~jobs:4 succ (Array.init 64 Fun.id))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_index_order;
    Alcotest.test_case "nested map" `Quick test_nested;
    Alcotest.test_case "exception reaches the caller" `Quick test_exception;
  ]
