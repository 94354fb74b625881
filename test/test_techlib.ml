(** Technology library: Table 1 delays are reproduced exactly; scaling,
    sizing curve and mux models behave. *)

open Hls_techlib

let lib = Library.artisan90

let rt32 rclass = { Resource.rclass; in_widths = [ 32; 32 ]; out_width = 32 }

let test_table1_exact () =
  (* the paper's Table 1, artisan_90nm_typical, 32-bit operands *)
  Alcotest.(check (float 0.01)) "mul 930" 930.0 (Library.delay lib (rt32 Hls_ir.Opkind.R_mul));
  Alcotest.(check (float 0.01)) "add 350" 350.0 (Library.delay lib (rt32 Hls_ir.Opkind.R_addsub));
  Alcotest.(check (float 0.01)) "gt 220" 220.0 (Library.delay lib (rt32 Hls_ir.Opkind.R_cmp_rel));
  Alcotest.(check (float 0.01)) "neq 60" 60.0 (Library.delay lib (rt32 Hls_ir.Opkind.R_cmp_eq));
  Alcotest.(check (float 0.01)) "ff 40" 40.0 lib.Library.ff_clk_q;
  Alcotest.(check (float 0.01)) "ff_en 70" 70.0 lib.Library.ff_clk_q_en;
  Alcotest.(check (float 0.01)) "mux2 110" 110.0 (Library.mux_delay lib ~inputs:2);
  Alcotest.(check (float 0.01)) "mux3 115" 115.0 (Library.mux_delay lib ~inputs:3)

let test_fig8_arithmetic () =
  (* Fig. 8(a): FF launch + mux + mul + mux + setup = 1230 ps *)
  let path =
    lib.Library.ff_clk_q
    +. Library.mux_delay lib ~inputs:2
    +. Library.delay lib (rt32 Hls_ir.Opkind.R_mul)
    +. Library.mux_delay lib ~inputs:2
    +. lib.Library.ff_setup
  in
  Alcotest.(check (float 0.01)) "1230 ps" 1230.0 path;
  (* Fig. 8(b): FF + mul-input mux + mul + chained add (no input mux) +
     register mux + setup = 1580 ps *)
  Alcotest.(check (float 0.01)) "1580 ps" 1580.0
    (path +. Library.delay lib (rt32 Hls_ir.Opkind.R_addsub));
  (* Fig. 8(c): adding gt overflows a 1600 ps clock by 200 ps *)
  let gt_path =
    lib.Library.ff_clk_q
    +. Library.mux_delay lib ~inputs:2
    +. Library.delay lib (rt32 Hls_ir.Opkind.R_mul)
    +. Library.delay lib (rt32 Hls_ir.Opkind.R_addsub)
    +. Library.delay lib (rt32 Hls_ir.Opkind.R_cmp_rel)
    +. Library.mux_delay lib ~inputs:2
    +. lib.Library.ff_setup
  in
  Alcotest.(check (float 0.01)) "1800 ps" 1800.0 gt_path

let test_delay_scales_with_width () =
  let d8 = Library.delay lib { (rt32 Hls_ir.Opkind.R_addsub) with Resource.in_widths = [ 8; 8 ] } in
  let d32 = Library.delay lib (rt32 Hls_ir.Opkind.R_addsub) in
  let d62 = Library.delay lib { (rt32 Hls_ir.Opkind.R_addsub) with Resource.in_widths = [ 62; 62 ] } in
  Alcotest.(check bool) "8 < 32" true (d8 < d32);
  Alcotest.(check bool) "32 < 62" true (d32 < d62)

let test_mux_delay_monotone () =
  let rec go k =
    if k > 16 then ()
    else begin
      Alcotest.(check bool)
        (Printf.sprintf "mux%d <= mux%d" k (k + 1))
        true
        (Library.mux_delay lib ~inputs:k <= Library.mux_delay lib ~inputs:(k + 1));
      go (k + 1)
    end
  in
  go 1;
  Alcotest.(check (float 0.01)) "single input needs no mux" 0.0 (Library.mux_delay lib ~inputs:1)

let test_sizing_curve () =
  let rt = rt32 Hls_ir.Opkind.R_mul in
  let nominal = Library.area lib rt in
  (match Library.area_for_delay lib rt ~required:1000.0 with
  | Some a -> Alcotest.(check (float 0.01)) "relaxed timing keeps nominal area" nominal a
  | None -> Alcotest.fail "relaxed must be feasible");
  (match Library.area_for_delay lib rt ~required:700.0 with
  | Some a -> Alcotest.(check bool) "tight timing costs area" true (a > nominal)
  | None -> Alcotest.fail "700 ps is within the curve");
  Alcotest.(check bool) "impossible target is rejected" true
    (Library.area_for_delay lib rt ~required:100.0 = None)

let test_sizing_monotone () =
  let rt = rt32 Hls_ir.Opkind.R_mul in
  let a1 = Option.get (Library.area_for_delay lib rt ~required:800.0) in
  let a2 = Option.get (Library.area_for_delay lib rt ~required:700.0) in
  let a3 = Option.get (Library.area_for_delay lib rt ~required:600.0) in
  Alcotest.(check bool) "tighter is bigger" true (a1 < a2 && a2 < a3)

let test_mul_area_quadratic () =
  let a16 = Library.area lib { (rt32 Hls_ir.Opkind.R_mul) with Resource.in_widths = [ 16; 16 ] } in
  let a32 = Library.area lib (rt32 Hls_ir.Opkind.R_mul) in
  Alcotest.(check bool) "quarter area at half width" true (abs_float ((a32 /. a16) -. 4.0) < 0.2)

let test_blackbox () =
  let lib' = Library.with_blackbox lib ~name:"sqrt" ~latency:4 ~stage_delay:800.0 ~area:5000.0 ~energy:9.0 in
  Alcotest.(check int) "latency" 4
    (Library.op_latency lib' (Hls_ir.Opkind.Call { Hls_ir.Opkind.callee = "sqrt"; call_latency = 1 }));
  Alcotest.(check (float 0.01)) "stage delay" 800.0
    (Library.delay lib' { Resource.rclass = Hls_ir.Opkind.R_blackbox "sqrt"; in_widths = [ 32 ]; out_width = 32 })

let test_resource_merge () =
  (* the paper's example: A1[7:0]+B1[4:0] and A2[5:0]+B2[6:0] share an 8x6 adder *)
  let r1 = { Resource.rclass = Hls_ir.Opkind.R_addsub; in_widths = [ 8; 5 ]; out_width = 9 } in
  let r2 = { Resource.rclass = Hls_ir.Opkind.R_addsub; in_widths = [ 6; 7 ]; out_width = 8 } in
  Alcotest.(check bool) "mergeable" true (Resource.can_merge r1 r2);
  let m = Resource.merge r1 r2 in
  Alcotest.(check (list int)) "8x7 adder" [ 8; 7 ] m.Resource.in_widths;
  (* very different widths must not merge *)
  let r3 = { Resource.rclass = Hls_ir.Opkind.R_addsub; in_widths = [ 32; 32 ]; out_width = 33 } in
  Alcotest.(check bool) "8-bit and 32-bit do not merge" false (Resource.can_merge r1 r3);
  (* a narrow op still fits an already-wide instance *)
  Alcotest.(check bool) "narrow op fits wide instance" true (Resource.fits ~need:r1 ~have:r3)

let prop_sizing_never_below_nominal =
  QCheck.Test.make ~name:"sizing never returns less than nominal area" ~count:200
    QCheck.(pair (int_range 4 62) (int_range 100 3000))
    (fun (w, req) ->
      let rt = { Resource.rclass = Hls_ir.Opkind.R_mul; in_widths = [ w; w ]; out_width = w } in
      match Library.area_for_delay lib rt ~required:(float_of_int req) with
      | Some a -> a >= Library.area lib rt -. 0.001
      | None -> true)

(* Resource.compare is the typed stand-in for the polymorphic compare in
   the scheduler's resource-floor sort: same sign on every pair, black
   boxes (a constructor with an argument, after every constant class)
   and their callee names included *)
let prop_resource_compare_is_polymorphic_order =
  let open Hls_ir.Opkind in
  let classes =
    [| R_addsub; R_mul; R_divmod; R_shift; R_logic; R_cmp_rel; R_cmp_eq; R_mux; R_port_in;
       R_port_out; R_wire |]
  in
  let gen_rt =
    QCheck.Gen.(
      map3
        (fun k widths out ->
          let rclass =
            if k < Array.length classes then classes.(k)
            else R_blackbox ([| ""; "a"; "ab"; "b"; "sqrt"; "sqr" |].(k - Array.length classes))
          in
          { Resource.rclass; in_widths = widths; out_width = out })
        (int_bound (Array.length classes + 5))
        (list_size (int_bound 3) (int_range 1 4))
        (int_range 1 4))
  in
  let sign c = Int.compare c 0 in
  QCheck.Test.make ~name:"Resource.compare orders like the polymorphic compare" ~count:2000
    (QCheck.make QCheck.Gen.(pair gen_rt gen_rt))
    (fun (a, b) ->
      sign (Resource.compare a b) = sign (Stdlib.compare a b)
      && sign (Resource.compare a a) = 0
      && Resource.equal a b = (Resource.compare a b = 0))

let suite =
  [
    Alcotest.test_case "Table 1 delays exact" `Quick test_table1_exact;
    Alcotest.test_case "Fig. 8 arithmetic" `Quick test_fig8_arithmetic;
    Alcotest.test_case "delay scales with width" `Quick test_delay_scales_with_width;
    Alcotest.test_case "mux delay monotone" `Quick test_mux_delay_monotone;
    Alcotest.test_case "sizing curve" `Quick test_sizing_curve;
    Alcotest.test_case "sizing monotone" `Quick test_sizing_monotone;
    Alcotest.test_case "mul area quadratic" `Quick test_mul_area_quadratic;
    Alcotest.test_case "blackbox registration" `Quick test_blackbox;
    Alcotest.test_case "resource merge rule" `Quick test_resource_merge;
    QCheck_alcotest.to_alcotest prop_sizing_never_below_nominal;
    QCheck_alcotest.to_alcotest prop_resource_compare_is_polymorphic_order;
  ]
