(** AST lowering ahead of elaboration.

    Four rewrites:

    - Counted loop {e nests} at the top level: when {!Nest} recognizes an
      eligible nest of any depth (and the mode is [`Flatten], the
      default), it is collapsed into a single loop over the combined
      induction counter instead of unrolling the inner dimensions.
      Ineligible nests fall back to the legacy unroll lowering; if that
      would overflow the unroll bound, a typed [nest_shape] fault names
      the loop.
    - [For] loops: fully unrolled when requested (or when nested inside
      another loop — the paper requires inner loops to be unrolled), else
      lowered to counter initialization plus [Do_while].
    - [While] loops: [while (k)] with a nonzero constant condition becomes
      an (infinite) [Do_while]; data-dependent [while] is rejected with a
      pointer at [do/while] (test-before-first-iteration FSMs are outside
      the reproduction's scope, as in the paper all examples are do/while).
    - Conditionals containing [wait()]: the latency-balancing half of
      predicate conversion (Fig. 4).  The condition is hoisted into a fresh
      temporary, both branches are split at their waits, the shorter branch
      is padded, and the statement becomes a sequence of wait-free
      conditionals separated by single waits — [s1]/[s2] merging into
      [s1_2] exactly as in the paper.  Wait-free conditionals are predicated
      directly by the elaborator.

    All rejections raise the typed {!Fault.Error} with a stable machine
    code and the offending loop's name. *)

open Ast

exception Error = Fault.Error

type nest_mode = [ `Flatten | `Unroll ]

let max_unroll = 4096

(** Split a wait-free-segment decomposition: [a; Wait; b; Wait; c] becomes
    [[a]; [b]; [c]]. *)
let split_at_waits stmts =
  let segs, last =
    List.fold_left
      (fun (segs, cur) s -> match s with Wait -> (List.rev cur :: segs, []) | s -> (segs, s :: cur))
      ([], []) stmts
  in
  List.rev (List.rev last :: segs)

let fresh_tmp =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "_pc%d" !n

(** Interleave balanced branch segments with waits, guarding each segment
    pair with the hoisted condition. *)
let balance_if c t f =
  let tmp = fresh_tmp () in
  let segs_t = split_at_waits t and segs_f = split_at_waits f in
  let n = max (List.length segs_t) (List.length segs_f) in
  let pad segs = segs @ List.init (n - List.length segs) (fun _ -> []) in
  let segs_t = pad segs_t and segs_f = pad segs_f in
  let pieces =
    List.map2
      (fun st sf -> match (st, sf) with [], [] -> [] | _ -> [ If (Var tmp, st, sf) ])
      segs_t segs_f
  in
  let rec join = function
    | [] -> []
    | [ last ] -> last
    | seg :: rest -> seg @ (Wait :: join rest)
  in
  Assign (tmp, c) :: join pieces

(** Name of the first loop in the statements (for fault anchoring). *)
let rec first_loop_name stmts =
  List.find_map
    (function
      | Do_while (_, _, a) | While (_, _, a) | For (_, _, _, _, a) -> Some a.l_name
      | If (_, t, f) -> (
          match first_loop_name t with Some n -> Some n | None -> first_loop_name f)
      | Assign _ | Write _ | Wait | Stall_until _ -> None)
    stmts

let rec lower_stmt ~in_loop s =
  match s with
  | Assign _ | Write _ | Wait | Stall_until _ -> [ s ]
  | If (c, t, f) ->
      let t = lower_stmts ~in_loop t and f = lower_stmts ~in_loop f in
      if contains_loop t || contains_loop f then begin
        let loop = match first_loop_name (t @ f) with Some n -> n | None -> "loop" in
        Fault.fail ~loop ~code:"loop_under_conditional"
          "loop '%s' nested under a conditional: unroll it or restructure the code" loop
      end;
      if count_waits t > 0 || count_waits f > 0 then
        (* the balancing rewrite can expose nothing new to lower *)
        balance_if c t f
      else [ If (c, t, f) ]
  | Do_while (body, cond, attrs) ->
      let body = lower_stmts ~in_loop:true body in
      [ Do_while (body, cond, attrs) ]
  | While (cond, body, attrs) -> (
      let body = lower_stmts ~in_loop:true body in
      match cond with
      | Int k | Int_w (k, _) ->
          if k <> 0 then [ Do_while (body, cond, attrs) ]
          else
            Fault.fail ~loop:attrs.l_name ~code:"while_never"
              "while (0) loop '%s' never executes: delete it" attrs.l_name
      | _ ->
          Fault.fail ~loop:attrs.l_name ~code:"while_dynamic"
            "data-dependent 'while' loop '%s' is not supported: use do/while (the loop body must \
             execute at least once)"
            attrs.l_name)
  | For (v, lo, hi, body, attrs) ->
      let body = lower_stmts ~in_loop:true body in
      let trip = hi - lo in
      if trip <= 0 then
        Fault.fail ~loop:attrs.l_name ~code:"nonpositive_trip"
          "for loop '%s' has non-positive trip count %d" attrs.l_name trip;
      if attrs.l_unroll || in_loop then begin
        (* inner loops must be unrolled (Section V, Step I.1) *)
        if trip > max_unroll then
          Fault.fail ~loop:attrs.l_name ~code:"unroll_overflow"
            "refusing to unroll loop '%s' with trip count %d (max %d)" attrs.l_name trip
            max_unroll;
        List.concat (List.init trip (fun i -> Assign (v, Int (lo + i)) :: body))
        @ [ Assign (v, Int hi) ]
      end
      else
        [
          Assign (v, Int lo);
          Do_while
            ( body @ [ Assign (v, Bin (Hls_ir.Opkind.Add, Var v, Int 1)) ],
              Bin (Hls_ir.Opkind.Lt, Var v, Int hi),
              attrs );
        ]

and lower_stmts ~in_loop stmts = List.concat_map (lower_stmt ~in_loop) stmts

(** Variables assigned by the top-level statements (conservatively
    including conditional assignments), for {!Nest.flatten}'s live-in
    set. *)
let top_assigned stmts = Ast.assigned_vars stmts

(** Lower a whole design.  In [`Flatten] mode (the default) the first
    eligible counted nest at top level, of any depth, is collapsed via
    {!Nest.flatten} and its {!Hls_ir.Region.nest} annotation returned;
    everything else (and everything in [`Unroll] mode) goes through the
    per-statement lowering, where nested counted loops are fully
    unrolled.  The result contains only [Assign], [Write], [Wait],
    wait-free [If], [Stall_until] and top-level [Do_while]. *)
let design_ex ?(nest = `Flatten) (d : design) =
  let lower stmts = lower_stmts ~in_loop:false stmts in
  let unrolled () = ({ d with d_body = lower d.d_body }, None) in
  match (nest, Nest.find d.d_body) with
  | `Unroll, _ | `Flatten, None -> unrolled ()
  | `Flatten, Some (before, n, after) -> (
      match Nest.eligible n with
      | Ok () ->
          let stmts, region_nest = Nest.flatten ~design:d ~already:(top_assigned before) n in
          ({ d with d_body = lower before @ lower stmts @ lower after }, Some region_nest)
      | Error reason -> (
          let outer = (List.hd n.Nest.levels).Nest.attrs.l_name in
          match List.find_opt (fun l -> Nest.trip l > max_unroll) (List.tl n.Nest.levels) with
          | Some l ->
              Fault.fail ~loop:outer ~code:"nest_shape"
                "loop nest '%s' cannot be flattened (%s) and its inner trip count %d exceeds the \
                 unroll bound (%d)"
                outer reason (Nest.trip l) max_unroll
          | None -> unrolled ()))

let design ?nest (d : design) = fst (design_ex ?nest d)
