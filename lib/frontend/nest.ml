(** Counted loop-nest recognition and flattening.

    The paper's pipeline machinery handles one loop: before this pass, a
    counted loop nested inside the main loop was fully unrolled, which
    caps the feasible trip count at {!Desugar.max_unroll} and forces the
    outer dimensions' IIs to cover the whole unrolled body.  This module
    recognizes a counted nest of any depth N >= 2

    {[
      for (i = lo1; i < hi1; i++) {   // level 1 (outermost)
        pre1;                         // per-row prologue of level 1
        for (j = lo2; j < hi2; j++) { // level 2
          ...
            for (k = loN; k < hiN; k++) { body; }   // level N (innermost)
          ...
        }
        post1;                        // per-row epilogue of level 1
      }
    ]}

    and {!flatten}s it into a single loop over the combined induction
    counter, with first/last-of-row flags predicating each level's
    [pre]/[post].  The result is an ordinary single-loop design, so the
    existing scheduler, fold, simulators and RTL generator apply
    unchanged; per-dimension IIs derive from the kernel II
    ({!Region.per_dim_iis}). *)

open Ast
module Width = Hls_ir.Width
module Opkind = Hls_ir.Opkind
module Region = Hls_ir.Region

type level = {
  var : string;  (** induction variable *)
  lo : int;
  hi : int;
  attrs : loop_attrs;
  pre : stmt list;  (** statements before the next level's loop ([[]] innermost) *)
  post : stmt list;  (** statements after the next level's loop ([[]] innermost) *)
}

type t = {
  levels : level list;  (** outermost first; at least two *)
  body : stmt list;  (** the innermost loop's body *)
}

let trip l = l.hi - l.lo

(** Structural recognition only: a [For] whose body contains a [For] at
    top level, followed down through each level's first top-level [For].
    Eligibility (variable discipline, trip counts…) is checked separately
    by {!eligible}. *)
let recognize s =
  let rec chain var lo hi attrs body =
    let rec go pre = function
      | [] -> ([ { var; lo; hi; attrs; pre = []; post = [] } ], body)
      | For (v, l, h, b, a) :: post ->
          let levels, inner = chain v l h a b in
          ({ var; lo; hi; attrs; pre = List.rev pre; post } :: levels, inner)
      | s :: rest -> go (s :: pre) rest
    in
    go [] body
  in
  match s with
  | For (v, lo, hi, body, attrs) -> (
      match chain v lo hi attrs body with
      | [ _ ], _ -> None
      | levels, body -> Some { levels; body })
  | _ -> None

(** First structurally recognizable nest among top-level statements;
    returns (statements before, nest, statements after). *)
let find stmts =
  let rec go before = function
    | [] -> None
    | s :: rest -> (
        match recognize s with
        | Some n -> Some (List.rev before, n, rest)
        | None -> go (s :: before) rest)
  in
  go [] stmts

(** Variables read anywhere in the statements (conditions included). *)
let rec read_vars acc stmts =
  List.fold_left
    (fun acc s ->
      match s with
      | Assign (_, e) | Write (_, e) | Stall_until e -> expr_vars acc e
      | Wait -> acc
      | If (c, t, f) -> read_vars (read_vars (expr_vars acc c) t) f
      | Do_while (b, c, _) | While (c, b, _) -> read_vars (expr_vars acc c) b
      | For (_, _, _, b, _) -> read_vars acc b)
    acc stmts

let mentions v stmts = List.mem v (read_vars [] stmts) || List.mem v (assigned_vars stmts)

let around l = l.pre @ l.post

(** Flattening eligibility: positive trips, distinct induction variables
    never assigned by the nest, pre/post segments loop-free, each counter
    read only inside its own loop, no [unroll] request.  [Error reason]
    means the nest falls back to the legacy unroll lowering (and, if that
    would overflow the unroll bound, the caller raises a typed
    [nest_shape] fault). *)
let eligible t =
  let reject fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let counters = List.map (fun l -> l.var) t.levels in
  let all_around = List.concat_map around t.levels in
  let assigned = assigned_vars (all_around @ t.body) in
  let shared = List.find_opt (fun v -> List.length (List.filter (( = ) v) counters) > 1) counters in
  (* the innermost level whose counter a statement of an enclosing level mentions *)
  let escaped =
    let rec go outside found = function
      | [] -> found
      | l :: rest -> go (outside @ around l) (if mentions l.var outside then Some l else found) rest
    in
    go [] None t.levels
  in
  if List.exists (fun l -> l.attrs.l_unroll) t.levels then reject "a dimension is marked unroll"
  else if List.exists (fun l -> trip l <= 0) t.levels then reject "non-positive trip count"
  else
    match (shared, escaped) with
    | Some v, _ -> reject "two dimensions share induction variable '%s'" v
    | None, _ when contains_loop all_around ->
        reject "statements around a nested loop contain a further loop"
    | None, _ when contains_loop t.body -> reject "the innermost loop body contains a further loop"
    | None, Some l ->
        reject "a statement outside loop '%s' references its counter '%s'" l.attrs.l_name l.var
    | None, None when List.exists (fun v -> List.mem v counters) assigned ->
        reject "the nest body assigns an induction counter"
    | None, None -> Ok ()

(** {2 Flattening} *)

(** Static width of an expression, mirroring the elaborator's propagation
    rules, so the hoisted initializations below pin each variable to the
    width its first real assignment would have given it. *)
let rec infer_expr design env e =
  match e with
  | Int n -> Width.bits_for_signed n
  | Int_w (n, w) -> Width.clamp (max w (Width.bits_for_signed n))
  | Var v -> ( match Hashtbl.find_opt env v with Some w -> w | None -> 32)
  | Port p -> ( match List.assoc_opt p design.d_ins with Some w -> w | None -> 32)
  | Bin (op, a, b) ->
      Opkind.result_width (Opkind.Bin op) [ infer_expr design env a; infer_expr design env b ]
  | Un (op, a) -> Opkind.result_width (Opkind.Un op) [ infer_expr design env a ]
  | Cond (_, a, b) -> max (infer_expr design env a) (infer_expr design env b)
  | Slice (_, hi, lo) -> Width.clamp (hi - lo + 1)
  | Call (_, _, w) -> w

(** Record each variable's first-assignment width, in program order. *)
let rec infer_stmts design env stmts =
  List.iter
    (fun s ->
      match s with
      | Assign (v, e) ->
          if not (Hashtbl.mem env v) then Hashtbl.replace env v (infer_expr design env e)
      | Write _ | Wait | Stall_until _ -> ()
      | If (_, t, f) ->
          infer_stmts design env t;
          infer_stmts design env f
      | Do_while (b, _, _) | While (_, b, _) | For (_, _, _, b, _) -> infer_stmts design env b)
    stmts

let counter_width l = Width.clamp (max (Width.bits_for_signed l.lo) (Width.bits_for_signed l.hi))

let dedup xs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.replace seen x ();
        true
      end)
    xs

(** A name generator avoiding everything the design mentions: [base]
    itself when free, else [base2], [base3], … *)
let fresh_name design =
  let used = Hashtbl.create 32 in
  List.iter (fun (v, _) -> Hashtbl.replace used v ()) design.d_vars;
  List.iter (fun v -> Hashtbl.replace used v ()) (assigned_vars design.d_body);
  List.iter (fun v -> Hashtbl.replace used v ()) (read_vars [] design.d_body);
  fun base ->
    if not (Hashtbl.mem used base) then base
    else
      let rec go k =
        let cand = Printf.sprintf "%s%d" base k in
        if Hashtbl.mem used cand then go (k + 1) else cand
      in
      go 2

let region_nest t =
  {
    Region.n_dims =
      List.map
        (fun l -> { Region.nd_name = l.attrs.l_name; nd_trip = trip l; nd_ii = l.attrs.l_ii })
        t.levels;
    n_perfect = List.for_all (fun l -> around l = []) t.levels;
  }

(** Collapse an eligible nest of depth N into one loop over the combined
    induction counter.  [already] lists variables assigned at top level
    before the nest (those are live-in and must not be re-initialized).

    The rewrite introduces 1-bit flags: [_nf], [_nff], … (m letters: the
    m innermost counters are all at their first value) and [_nl], [_nll],
    … (all at their last value), for m = 1..N-1, plus [_nd] (last
    iteration of the whole nest — exits the loop).  Level d's [pre] runs
    under the first-flag with N-d letters and its [post] under the
    last-flag with N-d letters; pres run outermost first, posts innermost
    first.  Counters step innermost first: each resets on its own row's
    last iteration and advances on the last iteration of the rows inside
    it.  Variables assigned inside the nest but not before it are hoisted
    to zero-initializations so the elaborator treats them as loop-carried
    (their value must survive the inner iterations between a row's [pre]
    and [post]); each init is given the width the variable's first real
    assignment would produce, so widths match the legacy unroll lowering.
    The loop takes the outermost loop's name and the {e innermost} loop's
    pipeline attributes (II, latency bounds): the flattened kernel is the
    innermost body, and each enclosing dimension's II derives by stride
    ({!Region.per_dim_iis}). *)
let flatten ~design ~already t =
  let n = List.length t.levels in
  let outermost = List.hd t.levels and innermost = List.nth t.levels (n - 1) in
  let fresh = fresh_name design in
  let flags c = List.init (n - 1) (fun m -> fresh ("_n" ^ String.make (m + 1) c)) in
  let firsts = flags 'f' and lasts = flags 'l' and nd = fresh "_nd" in
  let value l x = Int_w (x, counter_width l) in
  (* [names.(m-1)] := [names.(m-2)] & (counter of the m-th innermost
     level == bound), innermost first *)
  let flag_chain names bound =
    let rec go prev names levels =
      match (names, levels) with
      | f :: fs, l :: ls ->
          let test = Bin (Opkind.Eq, Var l.var, value l (bound l)) in
          let e = match prev with None -> test | Some p -> Bin (Opkind.Band, Var p, test) in
          Assign (f, e) :: go (Some f) fs ls
      | _ -> []
    in
    go None names (List.rev t.levels)
  in
  (* [_nd] extends the last-flag chain by the outermost counter *)
  let last_defs, nd_def =
    match List.rev (flag_chain (lasts @ [ nd ]) (fun l -> l.hi - 1)) with
    | nd_def :: rev_defs -> (List.rev rev_defs, nd_def)
    | [] -> assert false
  in
  let enclosing = List.filteri (fun i _ -> i < n - 1) t.levels in
  let guarded segment flags =
    List.map2
      (fun l f -> match segment l with [] -> [] | stmts -> [ If (Var f, stmts, []) ])
      enclosing (List.rev flags)
  in
  let steps =
    List.mapi
      (fun k l ->
        let inc = Bin (Opkind.Add, Var l.var, value l 1) in
        let stepped =
          match List.nth_opt lasts k with None -> inc | Some r -> Cond (Var r, value l l.lo, inc)
        in
        if k = 0 then Assign (l.var, stepped)
        else Assign (l.var, Cond (Var (List.nth lasts (k - 1)), stepped, Var l.var)))
      (List.rev t.levels)
  in
  let body =
    flag_chain firsts (fun l -> l.lo)
    @ List.concat (guarded (fun l -> l.pre) firsts)
    @ t.body @ last_defs
    @ List.concat (List.rev (guarded (fun l -> l.post) lasts))
    @ (nd_def :: steps)
  in
  let counters = List.map (fun l -> l.var) t.levels in
  let env = Hashtbl.create 16 in
  List.iter (fun (v, w) -> Hashtbl.replace env v w) design.d_vars;
  List.iter
    (fun l -> if not (Hashtbl.mem env l.var) then Hashtbl.replace env l.var (counter_width l))
    t.levels;
  let nest_stmts =
    List.concat_map (fun l -> l.pre) t.levels
    @ t.body
    @ List.concat_map (fun l -> l.post) (List.rev t.levels)
  in
  infer_stmts design env nest_stmts;
  let hoists =
    assigned_vars nest_stmts |> dedup
    |> List.filter (fun v -> not (List.mem v already || List.mem v counters))
    |> List.map (fun v ->
           let w = match Hashtbl.find_opt env v with Some w -> w | None -> 32 in
           Assign (v, Int_w (0, w)))
  in
  let attrs =
    {
      l_name = outermost.attrs.l_name;
      l_ii = innermost.attrs.l_ii;
      l_min_latency = innermost.attrs.l_min_latency;
      l_max_latency = innermost.attrs.l_max_latency;
      l_unroll = false;
    }
  in
  let stmts =
    hoists
    @ List.map (fun l -> Assign (l.var, value l l.lo)) t.levels
    @ [ Do_while (body, Bin (Opkind.Eq, Var nd, Int_w (0, 1)), attrs) ]
    (* match the unroll lowering's counter exit values *)
    @ List.map (fun l -> Assign (l.var, value l l.hi)) (List.tl t.levels)
  in
  (stmts, region_nest t)
