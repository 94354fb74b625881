(** An elaborated design: its {!Dfg.t} and its declared ports — the
    structure elaboration produces (Fig. 3 of the paper).  The source's
    control steps are not a separate graph: they survive as wait-state
    anchors on the DFG ops (the [anchor] field of {!Dfg.op}) and as the
    scheduling {!Region}'s source latency. *)

type t = {
  name : string;
  dfg : Dfg.t;
  in_ports : (string * int) list;  (** (name, width) *)
  out_ports : (string * int) list;
}

val create : name:string -> in_ports:(string * int) list -> out_ports:(string * int) list -> t

val port_width : t -> string -> int option

val validate : t -> string list
(** {!Dfg.validate} plus the port checks ([Read]/[Write] of declared
    ports only).  Empty = clean. *)
