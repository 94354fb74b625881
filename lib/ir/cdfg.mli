(** The combined control/data flow graph: a {!Cfg.t}, a {!Dfg.t}, and the
    association of every DFG operation to the CFG edge (control step) on
    which the source specified it — the structure elaboration produces
    (Fig. 3 of the paper). *)

type t = {
  name : string;
  cfg : Cfg.t;
  dfg : Dfg.t;
  attach : (int, int) Hashtbl.t;  (** DFG op id -> CFG edge id *)
  in_ports : (string * int) list;  (** (name, width) *)
  out_ports : (string * int) list;
}

val create : name:string -> in_ports:(string * int) list -> out_ports:(string * int) list -> t

val attach : t -> op:int -> edge:int -> unit
val attachment : t -> int -> int option

val ops_on_edge : t -> edge:int -> int list
(** Ops attached to a control step, sorted by id. *)

val port_width : t -> string -> int option

val validate : t -> string list
(** {!Dfg.validate} + {!Cfg.validate} + cross-structure checks
    (attachments live, ports declared).  Empty = clean. *)

val pp : Format.formatter -> t -> unit
