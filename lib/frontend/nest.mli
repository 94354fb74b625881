(** Counted loop-nest recognition and flattening.

    Recognizes a counted nest of any depth N >= 2 ([for (i) { pre1; for
    (j) { pre2; … for (k) { body } …; post2 }; post1 }]) at the top level
    of a design and flattens it into one loop over the combined induction
    counter, with first/last-of-row flags predicating each level's
    [pre]/[post].  Nests that fail {!eligible} fall back to the legacy
    full-unroll lowering in {!Desugar}. *)

(** One loop of the nest, outermost first. *)
type level = {
  var : string;  (** induction variable *)
  lo : int;
  hi : int;
  attrs : Ast.loop_attrs;
  pre : Ast.stmt list;  (** statements before the next level's loop ([[]] innermost) *)
  post : Ast.stmt list;  (** statements after the next level's loop ([[]] innermost) *)
}

type t = {
  levels : level list;  (** outermost first; at least two *)
  body : Ast.stmt list;  (** the innermost loop's body *)
}

val trip : level -> int

val find : Ast.stmt list -> (Ast.stmt list * t * Ast.stmt list) option
(** First top-level [For] whose body contains a [For] at top level,
    followed down through each level's first top-level [For]; returns
    (statements before, nest, statements after).  Structural recognition
    only: use {!eligible} before flattening. *)

val eligible : t -> (unit, string) result
(** Flattening eligibility: positive trips, distinct induction variables
    never assigned by the nest, pre/post segments loop-free, each counter
    read only inside its own loop, no [unroll] request.  [Error reason]
    means the nest falls back to the legacy unroll lowering. *)

val flatten : design:Ast.design -> already:string list -> t -> Ast.stmt list * Hls_ir.Region.nest
(** Collapse an eligible nest into one loop over the combined induction
    counter, returning the statements and the nest annotation for the
    flattened region.  [already] lists variables assigned at top level
    before the nest (live-in; not re-initialized).  Flags [_nf], [_nff],
    … (first) and [_nl], [_nll], … (last) predicate the levels' [pre] and
    [post] — level d of N under the flag with N-d letters — and [_nd]
    exits the loop.  Variables first assigned inside the nest are hoisted
    to width-pinned zero-initializations so the elaborator treats them as
    loop-carried.  The flattened loop takes the outermost loop's name and
    the {e innermost} loop's pipeline attributes; enclosing dimensions'
    IIs derive by stride ({!Hls_ir.Region.per_dim_iis}). *)
