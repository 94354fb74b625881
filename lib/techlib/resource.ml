(** Resource types.

    A resource type is "a combination of the operation type with operand and
    result widths" (Section IV.A).  Two operations may be implemented by the
    same resource instance when their types are compatible: same resource
    class and widths that are not "very different" (the paper avoids merging
    widely differing widths to protect power); we use a factor-of-two rule
    per operand.  The merged type takes the element-wise maximum widths,
    e.g. [A1\[7:0\] + B1\[4:0\]] and [A2\[5:0\] + B2\[6:0\]] share an 8x6
    adder. *)

open Hls_ir

type t = {
  rclass : Opkind.rclass;
  in_widths : int list;  (** operand widths, by port *)
  out_width : int;
}

(** [of_op dfg op] is the resource type needed by [op] given its operand
    widths in [dfg].  Wire-class ops have no resource type. *)
let of_op (dfg : Dfg.t) (op : Dfg.op) : t option =
  let rc = Opkind.rclass op.Dfg.kind in
  match rc with
  | Opkind.R_wire -> None
  | _ ->
      let in_widths =
        List.map (fun e -> (Dfg.find dfg e.Dfg.src).Dfg.width) (Dfg.in_edges dfg op.Dfg.id)
      in
      Some { rclass = rc; in_widths; out_width = op.Dfg.width }

let same_class a b = Opkind.equal_rclass a.rclass b.rclass

(** Width-compatibility: per-operand ratio bounded by 2 (and same arity). *)
let widths_compatible a b =
  List.compare_lengths a.in_widths b.in_widths = 0
  && List.for_all2
       (fun wa wb ->
         let lo = Int.min wa wb and hi = Int.max wa wb in
         hi <= 2 * lo)
       a.in_widths b.in_widths

let can_merge a b = same_class a b && widths_compatible a b

(** Element-wise maximum of widths; requires [can_merge]. *)
let merge a b =
  if not (can_merge a b) then invalid_arg "Resource.merge: incompatible types";
  {
    rclass = a.rclass;
    in_widths = List.map2 Int.max a.in_widths b.in_widths;
    out_width = Int.max a.out_width b.out_width;
  }

(** Whether an op of type [need] can run on an instance of type [have]
    (instance at least as wide on every operand, same class). *)
let fits ~need ~have =
  same_class need have
  && List.compare_lengths need.in_widths have.in_widths = 0
  && List.for_all2 (fun (wn : int) wh -> wn <= wh) need.in_widths have.in_widths
  && need.out_width <= have.out_width

let to_string t =
  Printf.sprintf "%s_%s" (Opkind.rclass_to_string t.rclass)
    (String.concat "x" (List.map string_of_int t.in_widths))

(* field by field, as the polymorphic compare walks the record *)
let compare a b =
  match Opkind.compare_rclass a.rclass b.rclass with
  | 0 -> (
      match List.compare Int.compare a.in_widths b.in_widths with
      | 0 -> Int.compare a.out_width b.out_width
      | c -> c)
  | c -> c

let equal a b =
  Opkind.equal_rclass a.rclass b.rclass
  && List.equal Int.equal a.in_widths b.in_widths
  && a.out_width = b.out_width
