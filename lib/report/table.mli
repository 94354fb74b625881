(** ASCII tables for the experiment harness. *)

val render : ?title:string -> string list list -> string
(** First row is the header; ragged rows pad with blanks. *)

val print : ?title:string -> string list list -> unit
