(** Semantic checks on lowered designs (run after {!Desugar}).

    Errors are collected, not raised, so a frontend user sees all problems
    at once. *)

open Ast

type error = string

let check_expr ~design ~defined errs e =
  let errs = ref errs in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  List.iter
    (fun p ->
      if not (List.mem_assoc p design.d_ins) then err "read of undeclared input port '%s'" p)
    (expr_ports [] e);
  List.iter
    (fun v ->
      if not (Hashtbl.mem defined v) then err "variable '%s' read before any assignment" v)
    (expr_vars [] e);
  let rec widths = function
    | Int_w (n, w) ->
        if w < 1 || w > Hls_ir.Width.max_width then err "literal width %d out of range" w
        else if not (Hls_ir.Width.fits ~width:w n) then err "literal %d does not fit in %d bits" n w
    | Int _ | Var _ | Port _ -> ()
    | Bin (_, a, b) -> widths a; widths b
    | Un (_, a) -> widths a
    | Cond (a, b, c) -> widths a; widths b; widths c
    | Slice (a, hi, lo) ->
        if lo < 0 || hi < lo then err "bad slice [%d:%d]" hi lo;
        widths a
    | Call (_, args, w) ->
        if w < 1 then err "call result width %d" w;
        List.iter widths args
  in
  widths e;
  !errs

(* [defined] holds the variables assigned on every path so far; [added]
   collects the ones this statement list adds to it, so that a branch's
   additions can be taken back out *)
let rec check_stmts ~design ~defined ~added ~top errs stmts =
  List.fold_left
    (fun errs s ->
      match s with
      | Assign (v, e) ->
          let errs = check_expr ~design ~defined errs e in
          if not (Hashtbl.mem defined v) then begin
            Hashtbl.replace defined v ();
            added := v :: !added
          end;
          if List.mem_assoc v design.d_ins || List.mem_assoc v design.d_outs then
            Printf.sprintf "variable '%s' shadows a port" v :: errs
          else errs
      | Write (p, e) ->
          let errs = check_expr ~design ~defined errs e in
          if not (List.mem_assoc p design.d_outs) then
            Printf.sprintf "write to undeclared output port '%s'" p :: errs
          else errs
      | Wait -> errs
      | Stall_until e -> check_expr ~design ~defined errs e
      | If (c, t, f) ->
          let errs = check_expr ~design ~defined errs c in
          if count_waits t > 0 || count_waits f > 0 then
            "internal: wait-bearing conditional survived desugaring" :: errs
          else begin
            (* each branch sees only its own definitions; after the [if]
               a variable counts as defined when both branches define it,
               so one defined on one branch only is reported when read
               later without an unconditional definition *)
            let dt = ref [] and df = ref [] in
            let errs = check_stmts ~design ~defined ~added:dt ~top:false errs t in
            List.iter (Hashtbl.remove defined) !dt;
            let errs = check_stmts ~design ~defined ~added:df ~top:false errs f in
            let both = List.filter (Hashtbl.mem defined) !dt in
            List.iter (Hashtbl.remove defined) !df;
            List.iter
              (fun v ->
                Hashtbl.replace defined v ();
                added := v :: !added)
              both;
            errs
          end
      | Do_while (body, cond, attrs) ->
          let errs =
            if not top then
              Printf.sprintf "loop '%s' is not at the top level of the thread body" attrs.l_name
              :: errs
            else errs
          in
          let errs =
            if attrs.l_min_latency < 1 || attrs.l_max_latency < attrs.l_min_latency then
              Printf.sprintf "loop '%s': bad latency bounds [%d, %d]" attrs.l_name
                attrs.l_min_latency attrs.l_max_latency
              :: errs
            else errs
          in
          let errs =
            match attrs.l_ii with
            | Some ii when ii < 1 -> Printf.sprintf "loop '%s': II must be >= 1" attrs.l_name :: errs
            | Some ii when ii > attrs.l_max_latency ->
                Printf.sprintf "loop '%s': II %d exceeds the latency bound %d" attrs.l_name ii
                  attrs.l_max_latency
                :: errs
            | _ -> errs
          in
          let errs = check_stmts ~design ~defined ~added ~top:false errs body in
          check_expr ~design ~defined errs cond
      | While _ | For _ -> "internal: while/for survived desugaring" :: errs)
    errs stmts

(** [run design] returns all semantic errors of a lowered design (empty
    list = valid).  Checks: port/variable declarations and shadowing,
    read-before-write, loop placement and attributes, slice/width sanity,
    and that at most one top-level loop exists (the schedulable main loop). *)
let run (design : design) : error list =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (p, w) ->
      if Hashtbl.mem seen p then err "duplicate port '%s'" p;
      Hashtbl.replace seen p ();
      if w < 1 || w > Hls_ir.Width.max_width then err "port '%s': width %d out of range" p w)
    (design.d_ins @ design.d_outs);
  List.iter
    (fun (v, w) ->
      if Hashtbl.mem seen v then err "variable '%s' duplicates a port or variable" v;
      Hashtbl.replace seen v ();
      if w < 1 || w > Hls_ir.Width.max_width then err "variable '%s': width %d out of range" v w)
    design.d_vars;
  let n_loops =
    List.length
      (List.filter (function Do_while _ | While _ | For _ -> true | _ -> false) design.d_body)
  in
  if n_loops > 1 then
    err "design '%s' has %d top-level loops; the flow schedules one main loop (merge or split \
         the design)"
      design.d_name n_loops;
  let defined = Hashtbl.create 16 in
  List.iter (fun (v, _) -> Hashtbl.replace defined v ()) design.d_vars;
  let errs' = check_stmts ~design ~defined ~added:(ref []) ~top:true !errs design.d_body in
  List.rev errs'

(** Raise {!Fault.Error} (code ["check"]) with a readable message when
    [run] finds problems. *)
let run_exn design =
  match run design with
  | [] -> ()
  | errs ->
      Fault.fail ~code:"check" "design '%s': %s" design.d_name (String.concat "; " errs)
