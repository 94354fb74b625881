(** Execution guards (predicates) attached to DFG operations.

    Predicate conversion (Fig. 4 of the paper) replaces fork/join control
    with straight-line code in which every operation from a conditional
    branch carries a guard: a conjunction of (condition-op, polarity) atoms.
    Guards matter to the scheduler in two ways:

    - two operations with {e mutually exclusive} guards may share a resource
      on the same control step ("unless they depend on orthogonal
      predicates", Section V), and may be counted once by the initial
      resource estimator (Section IV.A);
    - a guarded operation whose result is committed with a register enable
      has the guard's arrival time on its timing path. *)

type atom = { pred : int  (** DFG op id computing the condition *); polarity : bool }

type t = atom list
(** Conjunction of atoms, kept sorted by [pred] id with no duplicate
    [pred].  The empty list is the always-true guard. *)

let always : t = []
let is_always (g : t) = g = []

let atom pred polarity = { pred; polarity }

let rec insert a = function
  | [] -> Some [ a ]
  | b :: rest ->
      if a.pred < b.pred then Some (a :: b :: rest)
      else if a.pred = b.pred then
        if a.polarity = b.polarity then Some (b :: rest) else None (* contradiction *)
      else Option.map (fun r -> b :: r) (insert a rest)

(** [conj g1 g2] is the conjunction, or [None] if contradictory (an op that
    can never execute). *)
let conj (g1 : t) (g2 : t) : t option =
  List.fold_left (fun acc a -> Option.bind acc (insert a)) (Some g1) g2

(** [add g ~pred ~polarity] conjoins one atom. *)
let add g ~pred ~polarity = conj g [ atom pred polarity ]

(** Two guards are mutually exclusive when they contain the same predicate
    with opposite polarities: the guarded ops can never both execute in the
    same iteration, so they may share a resource in the same state. *)
let mutually_exclusive (g1 : t) (g2 : t) =
  List.exists (fun a -> List.exists (fun b -> a.pred = b.pred && a.polarity <> b.polarity) g2) g1

(** [implies g1 g2]: every execution satisfying [g1] satisfies [g2]
    (i.e. [g2]'s atoms are a subset of [g1]'s). *)
let implies (g1 : t) (g2 : t) =
  List.for_all (fun b -> List.exists (fun a -> a.pred = b.pred && a.polarity = b.polarity) g1) g2

(** Predicate op ids mentioned by the guard. *)
let preds (g : t) = List.map (fun a -> a.pred) g

let equal (g1 : t) (g2 : t) = g1 = g2

let to_string (g : t) =
  if is_always g then "1"
  else
    String.concat " & "
      (List.map (fun a -> (if a.polarity then "p" else "!p") ^ string_of_int a.pred) g)
