(** Reporting utilities: tables, plots, CSV, Pareto fronts. *)

let test_table_render () =
  let s = Hls_report.Table.render ~title:"t" [ [ "a"; "b" ]; [ "1"; "22" ]; [ "333"; "4" ] ] in
  Alcotest.(check bool) "contains title" true (String.length s > 0 && s.[0] = 't');
  (* all data rows present *)
  List.iter
    (fun needle ->
      let contains =
        let nl = String.length needle and sl = String.length s in
        let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("contains " ^ needle) true contains)
    [ "333"; "22" ]

let test_table_ragged_rows () =
  (* missing cells render as blanks, not exceptions *)
  let s = Hls_report.Table.render [ [ "a"; "b"; "c" ]; [ "1" ] ] in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_plot_render () =
  let s =
    Hls_report.Plot.render ~title:"p" ~x_label:"x" ~y_label:"y"
      [ Hls_report.Plot.series "s" [ (1.0, 1.0); (2.0, 4.0); (3.0, 9.0) ] ]
  in
  Alcotest.(check bool) "has legend" true
    (let needle = "* = s" in
     let nl = String.length needle and sl = String.length s in
     let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
     go 0)

let test_plot_empty () =
  let s = Hls_report.Plot.render ~title:"e" ~x_label:"x" ~y_label:"y" [] in
  Alcotest.(check bool) "no data message" true (String.length s > 0)

let test_pareto_front () =
  let open Hls_report.Pareto in
  let pts =
    [ point ~x:1.0 ~y:10.0 "a"; point ~x:2.0 ~y:5.0 "b"; point ~x:3.0 ~y:6.0 "c";
      point ~x:4.0 ~y:1.0 "d" ]
  in
  let f = List.map (fun p -> p.p_tag) (front pts) in
  Alcotest.(check (list string)) "dominated c removed" [ "a"; "b"; "d" ] f

let prop_front_not_dominated =
  QCheck.Test.make ~name:"no front point is dominated" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (pair (float_bound_inclusive 100.0) (float_bound_inclusive 100.0)))
    (fun raw ->
      let pts = List.mapi (fun i (x, y) -> Hls_report.Pareto.point ~x ~y i) raw in
      let f = Hls_report.Pareto.front pts in
      List.for_all
        (fun p -> not (List.exists (fun q -> Hls_report.Pareto.dominates q p) pts))
        f)

let prop_front_covers =
  QCheck.Test.make ~name:"every point is dominated by some front point or on it" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (pair (float_bound_inclusive 100.0) (float_bound_inclusive 100.0)))
    (fun raw ->
      let pts = List.mapi (fun i (x, y) -> Hls_report.Pareto.point ~x ~y i) raw in
      let f = Hls_report.Pareto.front pts in
      List.for_all
        (fun p ->
          List.exists
            (fun q ->
              q.Hls_report.Pareto.p_tag = p.Hls_report.Pareto.p_tag
              || Hls_report.Pareto.dominates q p)
            f)
        pts)

let contains s needle =
  let nl = String.length needle and sl = String.length s in
  let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
  go 0

let prop_front_invariant_dup_reorder =
  (* regression: front kept structural duplicates, so duplicating the
     input changed the output *)
  QCheck.Test.make ~name:"front invariant under duplication and reordering" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (pair (float_bound_inclusive 100.0) (float_bound_inclusive 100.0)))
    (fun raw ->
      let pts = List.mapi (fun i (x, y) -> Hls_report.Pareto.point ~x ~y i) raw in
      let mangled = List.rev (pts @ List.rev pts) in
      Hls_report.Pareto.front mangled = Hls_report.Pareto.front pts)

let test_plot_log_drops_nonpositive () =
  (* regression: values <= 0 on a log axis were silently collapsed onto
     the cell of 1.0 instead of being dropped with a warning *)
  let s =
    Hls_report.Plot.render ~x_scale:Hls_report.Plot.Log10 ~title:"p" ~x_label:"x" ~y_label:"y"
      [ Hls_report.Plot.series "s" [ (0.0, 1.0); (10.0, 2.0); (100.0, 3.0) ] ]
  in
  Alcotest.(check bool) "warning emitted" true (contains s "1 non-positive point(s) dropped");
  let glyphs = String.fold_left (fun n c -> if c = '*' then n + 1 else n) 0 s in
  (* two surviving grid points plus the one in the "* = s" legend *)
  Alcotest.(check int) "non-positive point not plotted" 3 glyphs;
  (* an all-dropped series still warns *)
  let e =
    Hls_report.Plot.render ~y_scale:Hls_report.Plot.Log10 ~title:"e" ~x_label:"x" ~y_label:"y"
      [ Hls_report.Plot.series "s" [ (1.0, 0.0); (2.0, -1.0) ] ]
  in
  Alcotest.(check bool) "no-data render warns too" true
    (contains e "(no data)" && contains e "2 non-positive point(s) dropped")

let test_plot_grid_rounding () =
  (* regression: grid coordinates were truncated, not rounded, biasing
     every glyph toward the origin by up to one full cell *)
  let s =
    Hls_report.Plot.render ~width:11 ~height:1 ~title:"r" ~x_label:"x" ~y_label:"y"
      [ Hls_report.Plot.series "s" [ (0.0, 0.0); (0.56, 0.0); (1.0, 0.0) ] ]
  in
  (* grid rows render as "%10s |%s|": column c sits at index 12 + c.
     0.56 over [0,1] on an 11-wide grid is cell 5.6 -> rounds to 6. *)
  let row =
    match List.filter (fun l -> contains l "|") (String.split_on_char '\n' s) with
    | r :: _ -> r
    | [] -> Alcotest.fail "no grid row"
  in
  Alcotest.(check char) "0.56 rounds to cell 6" '*' row.[12 + 6];
  Alcotest.(check char) "cell 5 stays empty" ' ' row.[12 + 5];
  Alcotest.(check char) "x=0 at cell 0" '*' row.[12 + 0];
  Alcotest.(check char) "x=1 at cell 10" '*' row.[12 + 10]

let suite =
  [
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table ragged rows" `Quick test_table_ragged_rows;
    Alcotest.test_case "plot render" `Quick test_plot_render;
    Alcotest.test_case "plot empty" `Quick test_plot_empty;
    Alcotest.test_case "plot log drops non-positive" `Quick test_plot_log_drops_nonpositive;
    Alcotest.test_case "plot grid rounding" `Quick test_plot_grid_rounding;
    Alcotest.test_case "pareto front" `Quick test_pareto_front;
    QCheck_alcotest.to_alcotest prop_front_not_dominated;
    QCheck_alcotest.to_alcotest prop_front_covers;
    QCheck_alcotest.to_alcotest prop_front_invariant_dup_reorder;
  ]
