(** RTL back end: register allocation, area statistics, Verilog emission. *)

open Hls_core
open Hls_frontend

let lib = Hls_techlib.Library.artisan90

let schedule ?ii ?(clock = 1600.0) design =
  let e = Elaborate.design design in
  let region = Elaborate.main_region ?ii e in
  match Scheduler.schedule ~lib ~clock_ps:clock region with
  | Ok s -> (e, s)
  | Error err -> Alcotest.failf "schedule failed: %s" err.Scheduler.e_message

let test_regalloc_example1 () =
  let _, s = schedule (Hls_designs.Example1.design ~max_latency:3 ()) in
  let ra = Hls_rtl.Regalloc.analyze s in
  Alcotest.(check bool) "some registers" true (Hls_rtl.Regalloc.n_registers ra > 0);
  (* every value crossing a step boundary is covered *)
  let covered = List.map (fun v -> v.Hls_rtl.Regalloc.v_op) ra.Hls_rtl.Regalloc.values in
  List.iter
    (fun id -> Alcotest.(check bool) "registered op covered" true (List.mem id covered))
    (Hls_netlist.Netlist.registered_ops s.Scheduler.s_binding.Binding.net)

let test_regalloc_pipeline_copies () =
  (* a value produced in stage 1 and consumed in stage 2 of an II=1
     pipeline needs as many copies as the stage distance *)
  let _, s = schedule ~ii:1 (Hls_designs.Example1.design ()) in
  let ra = Hls_rtl.Regalloc.analyze s in
  let multi = List.filter (fun v -> v.Hls_rtl.Regalloc.v_copies > 1) ra.Hls_rtl.Regalloc.values in
  (* mask is read in stage 0 but consumed by mul3 in the last stage *)
  Alcotest.(check bool) "shift-chain copies exist" true (multi <> [])

let test_regalloc_sharing_disjoint () =
  let _, s = schedule (Hls_designs.Idct.design ~max_latency:24 ()) in
  let ra = Hls_rtl.Regalloc.analyze s in
  (* sharing must never exceed the number of values *)
  Alcotest.(check bool) "fewer registers than values (sharing happened)" true
    (Hls_rtl.Regalloc.n_registers ra <= List.length ra.Hls_rtl.Regalloc.values);
  (* shared registers host values with disjoint life spans *)
  List.iter
    (fun r ->
      let vs = r.Hls_rtl.Regalloc.r_values in
      List.iteri
        (fun i a ->
          List.iteri
            (fun j b ->
              if i < j then
                Alcotest.(check bool) "disjoint spans" true
                  (a.Hls_rtl.Regalloc.v_last_use < b.Hls_rtl.Regalloc.v_def
                  || b.Hls_rtl.Regalloc.v_last_use < a.Hls_rtl.Regalloc.v_def))
            vs)
        vs)
    (Hls_rtl.Regalloc.shared_regs ra)

let test_stats_breakdown () =
  let _, s = schedule (Hls_designs.Example1.design ~max_latency:3 ()) in
  let bd = Hls_rtl.Stats.area ~io_widths:[ 32; 32; 32; 32; 32 ] s in
  Alcotest.(check bool) "total = sum of parts" true
    (abs_float
       (bd.Hls_rtl.Stats.a_total
       -. (bd.Hls_rtl.Stats.a_resources +. bd.Hls_rtl.Stats.a_input_muxes
          +. bd.Hls_rtl.Stats.a_registers +. bd.Hls_rtl.Stats.a_reg_muxes +. bd.Hls_rtl.Stats.a_control))
    < 0.01);
  Alcotest.(check bool) "timing met -> wns 0" true (bd.Hls_rtl.Stats.wns >= -0.01);
  Alcotest.(check bool) "resources dominated by the multiplier" true
    (bd.Hls_rtl.Stats.a_resources > 7000.0)

let test_power_positive_and_scaling () =
  let _, s3 = schedule (Hls_designs.Example1.design ~max_latency:3 ()) in
  let bd3 = Hls_rtl.Stats.area s3 in
  let p3 = Hls_rtl.Stats.power s3 bd3 ~clock_ps:1600.0 in
  let _, s1 = schedule ~ii:1 (Hls_designs.Example1.design ()) in
  let bd1 = Hls_rtl.Stats.area s1 in
  let p1 = Hls_rtl.Stats.power s1 bd1 ~clock_ps:1600.0 in
  Alcotest.(check bool) "positive power" true (p3 > 0.0);
  (* II=1 runs an iteration every cycle: more activity, more power *)
  Alcotest.(check bool) "higher throughput costs power" true (p1 > p3)

let test_verilog_emission () =
  let e, s = schedule ~ii:2 (Hls_designs.Example1.design ()) in
  let f = Pipeline.fold s in
  let src = Hls_rtl.Verilog.emit e s f in
  Alcotest.(check bool) "module present" true
    (String.length src > 200
    && String.sub src 0 2 = "//");
  List.iter
    (fun needle ->
      let contains =
        let nl = String.length needle and sl = String.length src in
        let rec go i = i + nl <= sl && (String.sub src i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("contains " ^ needle) true contains)
    [ "module example1"; "endmodule"; "stage_valid"; "first_iter"; "pixel_valid"; "always @(posedge clk)" ];
  Alcotest.(check (list string)) "lint clean" [] (Hls_rtl.Verilog.lint src)

let test_verilog_sequential () =
  let e, s = schedule (Hls_designs.Dotprod.design ()) in
  let f = Pipeline.fold s in
  let src = Hls_rtl.Verilog.emit e s f in
  Alcotest.(check (list string)) "lint clean" [] (Hls_rtl.Verilog.lint src)

(* idct8x8 has predicates that finish in an early step and are read only
   by the guards of ops committing later: their registers must be
   declared and committed for the enables to refer to them *)
let test_verilog_guard_registers () =
  List.iter
    (fun ii ->
      let r =
        Hls_flow.Flow.run_exn
          ~options:{ Hls_flow.Flow.default_options with ii; clock_ps = 1600.0; verify = false }
          (Hls_designs.Idct2d.design ())
      in
      let src = Hls_rtl.Verilog.emit r.Hls_flow.Flow.f_elab r.Hls_flow.Flow.f_sched r.Hls_flow.Flow.f_fold in
      Alcotest.(check (list string)) "lint clean" [] (Hls_rtl.Verilog.lint src))
    [ None; Some 1 ]

let test_verilog_lint_catches () =
  Alcotest.(check bool) "undeclared id reported" true
    (Hls_rtl.Verilog.lint "module m; assign v1_x = v2_ghost; endmodule" <> [])

(* The printer before it wrote into its buffer in one pass (names built per
   reference, Printf per line, List.nth per operand), kept verbatim as the
   reference the one-pass printer must match byte for byte. *)
module Reference = struct
  open Hls_ir
  module Netlist = Hls_netlist.Netlist

  let vname (op : Dfg.op) = Printf.sprintf "v%d_%s" op.Dfg.id (String.map (fun c -> if c = '[' || c = ']' || c = ':' || c = '(' || c = ')' || c = '*' || c = '+' || c = '-' || c = '/' || c = '%' || c = '!' || c = '=' || c = '<' || c = '>' || c = '&' || c = '|' || c = '^' || c = '~' || c = ' ' || c = ',' then '_' else c) op.Dfg.name)

  let rname op = vname op ^ "_r"

  let binop_v : Opkind.binop -> string = function
    | Opkind.Add -> "+"
    | Opkind.Sub -> "-"
    | Opkind.Mul -> "*"
    | Opkind.Div -> "/"
    | Opkind.Mod -> "%"
    | Opkind.Shl -> "<<<"
    | Opkind.Shr -> ">>>"
    | Opkind.Band -> "&"
    | Opkind.Bor -> "|"
    | Opkind.Bxor -> "^"
    | Opkind.Land -> "&&"
    | Opkind.Lor -> "||"
    | Opkind.Eq -> "=="
    | Opkind.Neq -> "!="
    | Opkind.Lt -> "<"
    | Opkind.Le -> "<="
    | Opkind.Gt -> ">"
    | Opkind.Ge -> ">="

  type ctx = {
    buf : Buffer.t;
    dfg : Dfg.t;
    sched : Scheduler.t;
    fold : Pipeline.t;
    elab : Hls_frontend.Elaborate.t;
  }

  let add ctx fmt = Printf.ksprintf (fun s -> Buffer.add_string ctx.buf s) fmt

  let net ctx = ctx.sched.Scheduler.s_binding.Binding.net

  let src_ref ctx (consumer_pl : Netlist.placement option) (e : Dfg.edge) =
    let p = Dfg.find ctx.dfg e.Dfg.src in
    if e.Dfg.distance > 0 then rname p
    else
      match (Netlist.placement (net ctx) e.Dfg.src, consumer_pl) with
      | Some ppl, Some cpl when ppl.Netlist.pl_finish = cpl.Netlist.pl_step -> vname p
      | Some _, _ -> rname p
      | None, _ -> rname p (* pre-region value: held in a register *)

  let op_expr ctx (op : Dfg.op) =
    let pl = Netlist.placement (net ctx) op.Dfg.id in
    let ins = Dfg.in_edges ctx.dfg op.Dfg.id in
    let arg i = src_ref ctx pl (List.nth ins i) in
    match op.Dfg.kind with
    | Opkind.Bin b -> Printf.sprintf "%s %s %s" (arg 0) (binop_v b) (arg 1)
    | Opkind.Un Opkind.Neg -> Printf.sprintf "-%s" (arg 0)
    | Opkind.Un Opkind.Bnot -> Printf.sprintf "~%s" (arg 0)
    | Opkind.Un Opkind.Lnot -> Printf.sprintf "!%s" (arg 0)
    | Opkind.Const n -> Printf.sprintf "%d'sd%d" op.Dfg.width (abs n) |> fun s -> if n < 0 then "-" ^ s else s
    | Opkind.Read p -> p
    | Opkind.Write _ -> arg 0
    | Opkind.Mux -> Printf.sprintf "%s ? %s : %s" (arg 0) (arg 1) (arg 2)
    | Opkind.Loop_mux -> Printf.sprintf "first_iter ? %s : %s" (arg 0) (arg 1)
    | Opkind.Slice (hi, lo) -> Printf.sprintf "%s[%d:%d]" (arg 0) hi lo
    | Opkind.Zext n -> Printf.sprintf "{{%d{1'b0}}, %s}" n (arg 0)
    | Opkind.Sext n -> Printf.sprintf "{{%d{%s[%d]}}, %s}" n (arg 0) (op.Dfg.width - 1) (arg 0)
    | Opkind.Concat -> Printf.sprintf "{%s, %s}" (arg 0) (arg 1)
    | Opkind.Call c -> Printf.sprintf "%s(%s)" c.Opkind.callee (String.concat ", " (List.mapi (fun i _ -> arg i) ins))

  let guard_expr ctx (op : Dfg.op) =
    if Guard.is_always op.Dfg.guard then "1'b1"
    else
      String.concat " && "
        (List.map
           (fun (a : Guard.atom) ->
             let p = Dfg.find ctx.dfg a.Guard.pred in
             let r =
               match Netlist.placement (net ctx) a.Guard.pred with
               | Some ppl -> (
                   match Netlist.placement (net ctx) op.Dfg.id with
                   | Some opl when ppl.Netlist.pl_finish = opl.Netlist.pl_step -> vname p
                   | _ -> rname p)
               | None -> rname p
             in
             if a.Guard.polarity then r else "!" ^ r)
           op.Dfg.guard)

  let emit (elab : Hls_frontend.Elaborate.t) (sched : Scheduler.t) (fold : Pipeline.t) : string =
    let cd = elab.Hls_frontend.Elaborate.cdfg in
    let dfg = cd.Cdfg.dfg in
    let ctx = { buf = Buffer.create 4096; dfg; sched; fold; elab } in
    let region = sched.Scheduler.s_region in
    let nl = sched.Scheduler.s_binding.Binding.net in
    let ii = fold.Pipeline.f_ii in
    let stages = fold.Pipeline.f_stages in
    let pipelined = Region.is_pipelined region in
    let design_name = cd.Cdfg.name in
    (* ---- header ---- *)
    add ctx "// Generated by hlspipe from design '%s'\n" design_name;
    add ctx "// LI=%d II=%d stages=%d clock=%.0f ps\n" fold.Pipeline.f_li ii stages
      (Netlist.clock_ps nl);
    add ctx "module %s (\n  input  wire clk,\n  input  wire rst,\n" design_name;
    List.iter (fun (p, w) -> add ctx "  input  wire signed [%d:0] %s,\n" (w - 1) p) cd.Cdfg.in_ports;
    let outs = cd.Cdfg.out_ports in
    List.iteri
      (fun i (p, w) ->
        add ctx "  output reg  signed [%d:0] %s,\n  output reg  %s_valid%s\n" (w - 1) p p
          (if i = List.length outs - 1 then "" else ","))
      outs;
    add ctx ");\n\n";
    (* ---- controller ---- *)
    let state_bits = max 1 (int_of_float (ceil (log (float_of_int (max 2 ii)) /. log 2.0))) in
    add ctx "  // controller: %d kernel state(s), %d stage(s)\n" ii stages;
    add ctx "  reg [%d:0] state;\n" (state_bits - 1);
    add ctx "  reg [%d:0] stage_valid;\n" (stages - 1);
    add ctx "  reg first_iter;\n";
    add ctx "  wire advance = 1'b1%s;\n"
      (match region.Region.stall_cond with
      | Some c -> Printf.sprintf " && %s" (rname (Dfg.find dfg c))
      | None -> "");
    add ctx "  always @(posedge clk) begin\n";
    add ctx "    if (rst) begin\n      state <= 0;\n      stage_valid <= %d'b%s;\n      first_iter <= 1'b1;\n    end\n"
      stages
      (String.make (max 0 (stages - 1)) '0' ^ "1");
    add ctx "    else if (advance) begin\n";
    add ctx "      if (state == %d) begin\n        state <= 0;\n" (ii - 1);
    if pipelined && stages > 1 then
      add ctx "        stage_valid <= {stage_valid[%d:0], 1'b1};\n" (stages - 2)
    else add ctx "        stage_valid <= 1'b1;\n";
    add ctx "        first_iter <= 1'b0;\n      end\n";
    add ctx "      else state <= state + 1;\n";
    add ctx "    end\n  end\n\n";
    (* ---- value wires ---- *)
    add ctx "  // datapath wires (one per scheduled operation)\n";
    let members = Region.member_ops region in
    let placed op = Netlist.placement nl op.Dfg.id <> None in
    List.iter
      (fun op ->
        if placed op then add ctx "  wire signed [%d:0] %s;\n" (op.Dfg.width - 1) (vname op))
      members;
    add ctx "\n  // registered values\n";
    let registered = Netlist.registered_ops nl in
    List.iter
      (fun id ->
        let op = Dfg.find dfg id in
        add ctx "  reg signed [%d:0] %s;\n" (op.Dfg.width - 1) (rname op))
      registered;
    (* pre-region values live in registers loaded before the loop; emitted as
       localparam-initialized registers for brevity *)
    let pre = elab.Hls_frontend.Elaborate.pre_members in
    if pre <> [] then begin
      add ctx "\n  // pre-loop values (loaded during the init state in the full FSM)\n";
      List.iter
        (fun id ->
          let op = Dfg.find dfg id in
          if not (List.mem id registered) then
            add ctx "  reg signed [%d:0] %s;\n" (op.Dfg.width - 1) (rname op))
        pre
    end;
    (* ---- combinational datapath ---- *)
    add ctx "\n  // combinational datapath\n";
    List.iter
      (fun op -> if placed op then add ctx "  assign %s = %s;\n" (vname op) (op_expr ctx op))
      members;
    (* ---- sequential commits ---- *)
    add ctx "\n  // registered commits, decoded by (kernel state, stage validity, guard)\n";
    add ctx "  always @(posedge clk) begin\n    if (advance) begin\n";
    List.iter
      (fun id ->
        let op = Dfg.find dfg id in
        if Region.mem region id then begin
          match Pipeline.kernel_state fold id with
          | Some (st, sg) ->
              let cond =
                Printf.sprintf "state == %d && stage_valid[%d] && (%s)" st sg (guard_expr ctx op)
              in
              add ctx "      if (%s) %s <= %s;\n" cond (rname op) (vname op)
          | None -> ()
        end)
      registered;
    add ctx "    end\n  end\n\n";
    (* ---- output ports ---- *)
    add ctx "  // output port commits\n";
    add ctx "  always @(posedge clk) begin\n";
    List.iter (fun (p, _) -> add ctx "    %s_valid <= 1'b0;\n" p) outs;
    add ctx "    if (advance) begin\n";
    List.iter
      (fun op ->
        match op.Dfg.kind with
        | Opkind.Write p when placed op -> (
            match Pipeline.kernel_state fold op.Dfg.id with
            | Some (st, sg) ->
                add ctx "      if (state == %d && stage_valid[%d] && (%s)) begin %s <= %s; %s_valid <= 1'b1; end\n"
                  st sg (guard_expr ctx op) p (vname op) p
            | None -> ())
        | _ -> ())
      members;
    add ctx "    end\n  end\n\nendmodule\n";
    Buffer.contents ctx.buf
end

let same_text what e s f =
  Alcotest.(check string) what (Reference.emit e s f) (Hls_rtl.Verilog.emit e s f)

(* every built-in design and examples/*.bhv, sequential, at II=1 and at
   II=2, at 1600 ps: the designs the golden md5s cover, plus idct8x8 at
   II=2 (which degrades to a relaxed II) *)
let test_verilog_matches_reference () =
  (* [dune runtest] runs in the build's test directory; [dune exec] from
     the repository root *)
  let examples = if Sys.file_exists "examples" then "examples" else "../examples" in
  let sources =
    Sys.readdir examples |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".bhv")
    |> List.sort String.compare
    |> List.map (fun f ->
           ( f,
             Parser.parse_string
               (In_channel.with_open_bin (Filename.concat examples f) In_channel.input_all) ))
  in
  Alcotest.(check bool) "examples found" true (sources <> []);
  let designs = List.map (fun (n, make) -> (n, make ())) Hls_server.Design_db.builtins @ sources in
  List.iter
    (fun (name, d) ->
      List.iter
        (fun ii ->
          let options =
            { Hls_flow.Flow.default_options with ii; clock_ps = 1600.0; verify = false }
          in
          match Hls_flow.Flow.run ~options d with
          | Error _ -> ()
          | Ok r ->
              same_text
                (Printf.sprintf "%s ii=%s" name
                   (match ii with None -> "seq" | Some i -> string_of_int i))
                r.Hls_flow.Flow.f_elab r.Hls_flow.Flow.f_sched r.Hls_flow.Flow.f_fold)
        [ None; Some 1; Some 2 ])
    designs

let prop_verilog_matches_reference_fuzz =
  QCheck.Test.make ~name:"verilog = the reference printer on fuzzed designs" ~count:40
    QCheck.(pair (int_range 0 0xFFFFFF) (int_range 0 3))
    (fun (seed, ii) ->
      let ii = if ii = 0 then None else Some ii in
      let e = Elaborate.design (Hls_sim.Equiv.gen_design ~seed) in
      match Scheduler.schedule ~lib ~clock_ps:1600.0 (Elaborate.main_region ?ii e) with
      | Error _ -> QCheck.assume_fail ()
      | Ok s ->
          let f = Pipeline.fold s in
          String.equal (Reference.emit e s f) (Hls_rtl.Verilog.emit e s f))

(* op names carrying each of the 20 characters the printer maps to '_':
   a port's read and write ops, a loop-carried variable's merge and a
   black-box call are named after the port, the variable and the callee *)
let test_verilog_sanitized_names () =
  let odd = "x[]:()*+-/%!=<>&|^~ ," in
  let open Dsl in
  let d =
    design "odd" ~ins:[ in_port ("a" ^ odd) 8 ] ~outs:[ out_port ("y" ^ odd) 16 ]
      ~vars:[ var ("s" ^ odd) 16 ]
      [
        ("s" ^ odd) := int 0;
        wait;
        do_while
          [
            ("s" ^ odd) := v ("s" ^ odd) +: call ("f" ^ odd) [ port ("a" ^ odd) ] ~width:8;
            wait;
            write ("y" ^ odd) (v ("s" ^ odd));
          ]
          (int 1);
      ]
  in
  List.iter
    (fun ii ->
      let e, s = schedule ?ii d in
      let f = Pipeline.fold s in
      let src = Hls_rtl.Verilog.emit e s f in
      same_text "odd names" e s f;
      let contains needle =
        let nl = String.length needle and sl = String.length src in
        let rec go i = i + nl <= sl && (String.sub src i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "sanitized read name" true (contains "_ax_____________________read"))
    [ None; Some 1 ]

let suite =
  [
    Alcotest.test_case "regalloc covers registered values" `Quick test_regalloc_example1;
    Alcotest.test_case "regalloc pipeline copies" `Quick test_regalloc_pipeline_copies;
    Alcotest.test_case "regalloc sharing disjoint" `Quick test_regalloc_sharing_disjoint;
    Alcotest.test_case "stats breakdown" `Quick test_stats_breakdown;
    Alcotest.test_case "power scaling" `Quick test_power_positive_and_scaling;
    Alcotest.test_case "verilog pipelined emission" `Quick test_verilog_emission;
    Alcotest.test_case "verilog sequential emission" `Quick test_verilog_sequential;
    Alcotest.test_case "verilog guard registers (idct8x8)" `Quick test_verilog_guard_registers;
    Alcotest.test_case "verilog lint" `Quick test_verilog_lint_catches;
    Alcotest.test_case "verilog = the reference printer (designs, examples)" `Quick
      test_verilog_matches_reference;
    QCheck_alcotest.to_alcotest prop_verilog_matches_reference_fuzz;
    Alcotest.test_case "verilog = the reference printer (sanitized names)" `Quick
      test_verilog_sanitized_names;
  ]
