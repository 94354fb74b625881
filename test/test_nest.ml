(** Loop-nest pipelining: the frontend flattening rewrite at depths 2-4,
    per-dimension IIs, and the end-to-end property that a flattened nest
    simulates byte-identically through the behavioural model, the
    schedule simulator and the folded kernel simulator. *)

open Hls_frontend
module Region = Hls_ir.Region
module Opkind = Hls_ir.Opkind
module Scheduler = Hls_core.Scheduler
module Pipeline = Hls_core.Pipeline
module Flow = Hls_flow.Flow

let lib = Hls_techlib.Library.artisan90
let clock = 1600.0

(* ---- a parameterized counted nest of any depth ---- *)

(** [mk ~trips ~perfect ~c] builds a nest with one level per entry of
    [trips] (outermost first; loops [row], [col], [mac], [lane] over
    [i], [j], [k], [l]) whose innermost body multiply-accumulates port
    [x] by constant [c].  When [perfect] the nest is bare and the
    innermost body also writes the output; otherwise the accumulator is
    zeroed before the innermost loop and written after it (the GEMM
    shape), and with [rows] every level further out also sets the
    accumulator to its own counter before its inner loop and writes
    [acc + 1] after it, so each row boundary is observable.  All
    variables carry explicit widths, so the flattened and unrolled
    lowerings agree on every bit. *)
let mk ?(rows = false) ~trips ~perfect ~c () =
  let n = List.length trips in
  let attrs name ii =
    { Ast.default_attrs with Ast.l_name = name; l_ii = ii; l_min_latency = 1; l_max_latency = 8 }
  in
  let names = [ "row"; "col"; "mac"; "lane" ] and vars = [ "i"; "j"; "k"; "l" ] in
  let acc_update =
    Ast.Assign
      ( "acc",
        Ast.Bin
          (Opkind.Add, Ast.Var "acc", Ast.Bin (Opkind.Mul, Ast.Port "x", Ast.Int_w (c, 4))) )
  in
  let rec level d =
    let trip = List.nth trips d and name = List.nth names d and var = List.nth vars d in
    if d = n - 1 then
      let body =
        if perfect then [ acc_update; Ast.Write ("y", Ast.Var "acc"); Ast.Wait ]
        else [ acc_update; Ast.Wait ]
      in
      Ast.For (var, 0, trip, body, attrs name (Some 1))
    else
      let inner = level (d + 1) in
      let body =
        if perfect then [ inner ]
        else if d = n - 2 then
          [ Ast.Assign ("acc", Ast.Int_w (0, 24)); inner; Ast.Write ("y", Ast.Var "acc") ]
        else if rows then
          [
            Ast.Assign ("acc", Ast.Var var);
            inner;
            Ast.Write ("y", Ast.Bin (Opkind.Add, Ast.Var "acc", Ast.Int_w (1, 24)));
          ]
        else [ inner ]
      in
      Ast.For (var, 0, trip, body, attrs name None)
  in
  {
    Ast.d_name = "nest_t";
    d_ins = [ ("x", 8) ];
    d_outs = [ ("y", 24) ];
    d_vars = ("acc", 24) :: List.filteri (fun d _ -> d < n) (List.map (fun v -> (v, 8)) vars);
    d_body = [ level 0 ];
  }

(** Names of every loop left in the statements, outermost first. *)
let rec loops acc = function
  | [] -> acc
  | Ast.Do_while (b, _, a) :: rest -> loops (loops (a.Ast.l_name :: acc) b) rest
  | Ast.(For (_, _, _, b, _) | While (_, b, _)) :: rest -> loops (loops ("?" :: acc) b) rest
  | Ast.If (_, t, f) :: rest -> loops (loops (loops acc t) f) rest
  | Ast.(Assign _ | Write _ | Wait | Stall_until _) :: rest -> loops acc rest

(** Lower [d] with flattening on and check it left one combined loop
    named after the outermost, returning the nest annotation. *)
let flattened d =
  let lowered, nest = Desugar.design_ex ~nest:`Flatten d in
  match nest with
  | None -> Alcotest.fail "nest not recognized"
  | Some nest ->
      Alcotest.(check (list string)) "single combined loop named after the outer" [ "row" ]
        (loops [] lowered.Ast.d_body);
      nest

let names nest = List.map (fun d -> d.Region.nd_name) nest.Region.n_dims
let trips nest = List.map (fun d -> d.Region.nd_trip) nest.Region.n_dims

(* ---- flattening rewrite shape ---- *)

let test_flatten_shape () =
  let nest = flattened (mk ~trips:[ 8; 8 ] ~perfect:false ~c:3 ()) in
  Alcotest.(check bool) "imperfect" false nest.Region.n_perfect;
  Alcotest.(check (list string)) "dimension names, outermost first" [ "row"; "col" ] (names nest);
  Alcotest.(check (list int)) "trip counts" [ 8; 8 ] (trips nest)

let test_perfect_nest_recognized () =
  let nest = flattened (mk ~trips:[ 4; 4 ] ~perfect:true ~c:1 ()) in
  Alcotest.(check bool) "perfect" true nest.Region.n_perfect

let test_flatten_depth3_shape () =
  let nest = flattened (mk ~trips:[ 4; 3; 5 ] ~perfect:false ~c:2 ()) in
  Alcotest.(check bool) "imperfect" false nest.Region.n_perfect;
  Alcotest.(check (list string))
    "dimension names, outermost first" [ "row"; "col"; "mac" ] (names nest);
  Alcotest.(check (list int)) "trip counts" [ 4; 3; 5 ] (trips nest)

let test_perfect_nest3_recognized () =
  let nest = flattened (mk ~trips:[ 2; 2; 3 ] ~perfect:true ~c:1 ()) in
  Alcotest.(check bool) "perfect" true nest.Region.n_perfect;
  Alcotest.(check int) "three dimensions" 3 (List.length nest.Region.n_dims)

(** The exact depth-3 rewrite: flags, guarded pres (outermost first) and
    posts (innermost first), ripple counter steps and exit values. *)
let test_flatten_depth3_text () =
  let d = mk ~rows:true ~trips:[ 2; 3; 4 ] ~perfect:false ~c:2 () in
  let lowered, _ = Desugar.design_ex ~nest:`Flatten d in
  Alcotest.(check string) "lowered program" {|design nest_t {
  in x : 8;
  out y : 24;
  var acc : 24;
  var i : 8;
  var j : 8;
  var k : 8;
  acc = 24'0;
  i = 3'0;
  j = 3'0;
  k = 4'0;
  do { /* row */
    _nf = (k == 4'0);
    _nff = (_nf & (j == 3'0));
    if (_nff) {
      acc = i;
    }
    if (_nf) {
      acc = 24'0;
    }
    acc = (acc + ($x * 4'2));
    wait();
    _nl = (k == 4'3);
    _nll = (_nl & (j == 3'2));
    if (_nl) {
      $y = acc;
    }
    if (_nll) {
      $y = (acc + 24'1);
    }
    _nd = (_nll & (i == 3'1));
    k = (_nl ? 4'0 : (k + 4'1));
    j = (_nl ? (_nll ? 3'0 : (j + 3'1)) : j);
    i = (_nll ? (i + 3'1) : i);
  } while ((_nd == 1'0));
  j = 3'3;
  k = 4'4;
}|}
    (Format.asprintf "%a" Ast.pp_design lowered)

(** Depth 4 flattens like any other depth: four dimensions, one loop. *)
let test_flatten4_shape () =
  let nest = flattened (mk ~trips:[ 2; 3; 2; 4 ] ~perfect:false ~c:5 ()) in
  Alcotest.(check (list string))
    "dimension names, outermost first" [ "row"; "col"; "mac"; "lane" ] (names nest);
  Alcotest.(check (list int)) "trip counts" [ 2; 3; 2; 4 ] (trips nest)

let test_region_nest3_math () =
  let d = mk ~trips:[ 4; 3; 5 ] ~perfect:false ~c:2 () in
  let elab = Elaborate.design ~nest:`Flatten d in
  let region = Elaborate.main_region elab in
  Alcotest.(check int) "flat iterations" 60 (Region.flat_iters region);
  Alcotest.(check (list int)) "per-dim IIs at kernel II=2" [ 30; 10; 2 ]
    (Region.per_dim_iis region ~kernel_ii:2)

(** An ineligible 3-deep nest whose middle trip overflows the unroll
    bound must raise the typed [nest_shape] fault instead of silently
    attempting a giant unroll, and the reason must name the real cause:
    the outer prologue reads the innermost counter [k]. *)
let test_nest3_shape_fault () =
  let d = mk ~trips:[ 2; 5000; 2 ] ~perfect:false ~c:1 () in
  let poison = Ast.Assign ("acc", Ast.Var "k") in
  let d =
    match d.Ast.d_body with
    | [ Ast.For (v, lo, hi, [ mid ], a) ] ->
        { d with Ast.d_body = [ Ast.For (v, lo, hi, [ poison; mid ], a) ] }
    | _ -> Alcotest.fail "unexpected shape"
  in
  match Desugar.design_ex ~nest:`Flatten d with
  | exception Hls_frontend.Fault.Error f ->
      Alcotest.(check string) "typed code" "nest_shape" f.Hls_frontend.Fault.fe_code;
      Alcotest.(check (option string)) "anchored at the outer loop" (Some "row")
        f.Hls_frontend.Fault.fe_loop;
      let msg = Hls_frontend.Fault.message f and cause = "references its counter 'k'" in
      let n = String.length cause in
      let rec has i = i + n <= String.length msg && (String.sub msg i n = cause || has (i + 1)) in
      if not (has 0) then Alcotest.failf "reason does not name counter k: %s" msg
  | _ -> Alcotest.fail "expected a nest_shape fault"

(* ---- region nest annotations and per-dimension IIs ---- *)

let test_region_nest_math () =
  let d = mk ~trips:[ 6; 5 ] ~perfect:false ~c:2 () in
  let elab = Elaborate.design ~nest:`Flatten d in
  let region = Elaborate.main_region elab in
  (match Region.nest region with
  | None -> Alcotest.fail "region not nest-annotated"
  | Some n ->
      Alcotest.(check (list int)) "trips" [ 6; 5 ] (trips n);
      Alcotest.(check (list int)) "strides, outermost first" [ 5; 1 ] (Region.strides n));
  Alcotest.(check int) "flat iterations" 30 (Region.flat_iters region);
  Alcotest.(check (list int)) "per-dim IIs at kernel II=2" [ 10; 2 ]
    (Region.per_dim_iis region ~kernel_ii:2)

let test_fold_validates_nest () =
  (* a real flattened nest schedules, folds, and passes validate's
     modulo check *)
  let d = mk ~trips:[ 4; 4 ] ~perfect:false ~c:3 () in
  let elab = Elaborate.design ~nest:`Flatten d in
  let region = Elaborate.main_region elab in
  match Scheduler.schedule ~lib ~clock_ps:clock region with
  | Error e -> Alcotest.failf "schedule failed: %s" e.Scheduler.e_message
  | Ok s ->
      let fold = Pipeline.fold s in
      Alcotest.(check (list string)) "validate clean" [] (Pipeline.validate s fold)

(* ---- end-to-end property: flattened nests simulate byte-identically ---- *)

(** Random nests of depth 2-4 (perfect and imperfect): the full flow
    with verification on must succeed and report equivalence — for nest
    regions that verdict merges the schedule-simulator gate AND the
    folded-kernel-simulator gate against the behavioural golden model
    (see [Flow.finish] / [Equiv.check_kernel]). *)
let arb_nest =
  QCheck.make ~print:QCheck.Print.(triple (list int) bool int)
    QCheck.Gen.(
      int_range 2 4 >>= fun depth ->
      list_repeat depth (int_range 1 (if depth = 2 then 5 else 3)) >>= fun trips ->
      pair bool (int_range 1 7) >>= fun (perfect, c) -> return (trips, perfect, c))

let flow_equivalent (trips, perfect, c) =
  let d = mk ~trips ~perfect ~c () in
  let options =
    {
      Flow.default_options with
      Flow.nest_mode = `Flatten;
      verify = true;
      sim_iters = (2 * List.fold_left ( * ) 1 trips) + 3;
      degrade = true;
    }
  in
  match Flow.run ~options d with
  | Error diag -> QCheck.Test.fail_reportf "flow failed: %s" (Hls_diag.Diag.to_string diag)
  | Ok r -> (
      match r.Flow.f_equiv with
      | Some v when v.Hls_sim.Equiv.equivalent -> true
      | Some v -> QCheck.Test.fail_reportf "mismatch: %s" (Hls_sim.Equiv.verdict_to_string v)
      | None -> QCheck.Test.fail_reportf "no equivalence verdict")

let prop_flattened_nest_equivalent =
  QCheck.Test.make ~name:"flattened nest: behavioural == schedule sim == folded kernel sim"
    ~count:40 arb_nest flow_equivalent

(** The same gate pinned to depth 3, where the flattened counters carry
    two wrap conditions. *)
let prop_flattened_nest3_equivalent =
  QCheck.Test.make ~name:"flattened 3-nest: behavioural == schedule sim == folded kernel sim"
    ~count:15
    QCheck.(
      make ~print:Print.(triple (list int) bool int)
        Gen.(
          triple (list_repeat 3 (int_range 1 3)) bool (int_range 1 7)))
    flow_equivalent

(** The behavioural gate above runs the flattened program on both sides,
    so this one checks the rewrite itself: on a constant input stream the
    flattened nest writes exactly what the legacy unroll lowering writes,
    at every depth. *)
let prop_flatten_matches_unroll =
  QCheck.Test.make ~name:"flattened nest writes what the unrolled nest writes" ~count:40 arb_nest
    (fun (trips, perfect, c) ->
      let d = mk ~rows:true ~trips ~perfect ~c () in
      (* the unrolled program reads [acc] before any assignment otherwise *)
      let d = { d with Ast.d_body = Ast.Assign ("acc", Ast.Int_w (0, 24)) :: d.Ast.d_body } in
      let n_iters = List.fold_left ( * ) 1 trips + 1 in
      let stim = Hls_sim.Stimulus.create ~n_iters [ ("x", Array.make n_iters 3) ] in
      let ys nest = Hls_sim.Behav.(port_values (run ~nest d stim) "y") in
      ys `Flatten = ys `Unroll)

(** The per-dimension II surface is consistent: outermost = kernel x
    inner trip, innermost = kernel. *)
let prop_per_dim_iis_consistent =
  QCheck.Test.make ~name:"per-dimension IIs derive from the kernel II by stride" ~count:25
    QCheck.(pair (int_range 1 4) (int_range 1 5))
    (fun (ti, tj) ->
      let d = mk ~trips:[ ti; tj ] ~perfect:false ~c:1 () in
      let elab = Elaborate.design ~nest:`Flatten d in
      let region = Elaborate.main_region elab in
      Region.per_dim_iis region ~kernel_ii:3 = [ 3 * tj; 3 ])

let suite =
  [
    Alcotest.test_case "flatten rewrite shape" `Quick test_flatten_shape;
    Alcotest.test_case "perfect nest recognized" `Quick test_perfect_nest_recognized;
    Alcotest.test_case "depth-3 flatten rewrite shape" `Quick test_flatten_depth3_shape;
    Alcotest.test_case "perfect depth-3 nest recognized" `Quick test_perfect_nest3_recognized;
    Alcotest.test_case "depth-3 rewrite statements" `Quick test_flatten_depth3_text;
    Alcotest.test_case "depth-4 flatten rewrite shape" `Quick test_flatten4_shape;
    Alcotest.test_case "depth-3 region nest math" `Quick test_region_nest3_math;
    Alcotest.test_case "ineligible deep nest raises nest_shape" `Quick test_nest3_shape_fault;
    Alcotest.test_case "region nest math" `Quick test_region_nest_math;
    Alcotest.test_case "fold validates a flattened nest" `Quick test_fold_validates_nest;
    QCheck_alcotest.to_alcotest prop_flattened_nest_equivalent;
    QCheck_alcotest.to_alcotest prop_flattened_nest3_equivalent;
    QCheck_alcotest.to_alcotest prop_flatten_matches_unroll;
    QCheck_alcotest.to_alcotest prop_per_dim_iis_consistent;
  ]
