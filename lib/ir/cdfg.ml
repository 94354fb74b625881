(** An elaborated design: its {!Dfg.t} and its declared ports.

    Elaboration lowers the thread body straight to the data-flow graph; the
    control steps of the source survive as wait-state anchors on the DFG
    ops (the [anchor] field of {!Dfg.op}) and as the region's source
    latency, so no separate control-flow graph is kept. *)

type t = {
  name : string;
  dfg : Dfg.t;
  in_ports : (string * int) list;  (** (name, width) *)
  out_ports : (string * int) list;
}

let create ~name ~in_ports ~out_ports = { name; dfg = Dfg.create (); in_ports; out_ports }

let port_width t name =
  match List.assoc_opt name t.in_ports with
  | Some w -> Some w
  | None -> List.assoc_opt name t.out_ports

(** {!Dfg.validate} plus the port checks: every [Read] names a declared
    input port and every [Write] a declared output port. *)
let validate t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  Dfg.iter_ops t.dfg (fun op ->
      match op.Dfg.kind with
      | Opkind.Read p ->
          if not (List.mem_assoc p t.in_ports) then err "op %d reads undeclared port %s" op.Dfg.id p
      | Opkind.Write p ->
          if not (List.mem_assoc p t.out_ports) then
            err "op %d writes undeclared port %s" op.Dfg.id p
      | _ -> ());
  Dfg.validate t.dfg @ List.rev !errs
