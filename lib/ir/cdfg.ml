(** The combined control/data flow graph: a {!Cfg.t}, a {!Dfg.t}, and the
    association of every DFG operation to the CFG edge (control step) on
    which the source code specified it.

    The attachment is what elaboration produces (Fig. 3 of the paper); the
    optimizer updates it when predicate conversion merges control steps, and
    the micro-architecture transformer consumes it when slicing pipelined
    loops into linear scheduling regions. *)

type t = {
  name : string;
  cfg : Cfg.t;
  dfg : Dfg.t;
  attach : (int, int) Hashtbl.t;  (** DFG op id -> CFG edge id *)
  in_ports : (string * int) list;  (** (name, width) *)
  out_ports : (string * int) list;
}

let create ~name ~in_ports ~out_ports =
  { name; cfg = Cfg.create (); dfg = Dfg.create (); attach = Hashtbl.create 64; in_ports; out_ports }

(** [attach t ~op ~edge] records that [op] belongs to control step [edge]. *)
let attach t ~op ~edge = Hashtbl.replace t.attach op edge

let attachment t op = Hashtbl.find_opt t.attach op

(** Ops attached to CFG edge [edge], sorted by op id. *)
let ops_on_edge t ~edge =
  Hashtbl.fold (fun op e acc -> if e = edge then op :: acc else acc) t.attach []
  |> List.sort compare

let port_width t name =
  match List.assoc_opt name t.in_ports with
  | Some w -> Some w
  | None -> List.assoc_opt name t.out_ports

(** Cross-structure validation on top of {!Dfg.validate} and
    {!Cfg.validate}: every resource-consuming op is attached to a live CFG
    edge, and port ops reference declared ports. *)
let validate t =
  let errs = ref (Dfg.validate t.dfg @ Cfg.validate t.cfg) in
  let err fmt = Printf.ksprintf (fun s -> errs := !errs @ [ s ]) fmt in
  Dfg.iter_ops t.dfg (fun op ->
      (match Hashtbl.find_opt t.attach op.Dfg.id with
      | Some e ->
          if not (Hashtbl.mem t.cfg.Cfg.edges e) then
            err "op %d attached to dead CFG edge %d" op.Dfg.id e
      | None -> err "op %d (%s) has no CFG attachment" op.Dfg.id op.Dfg.name);
      match op.Dfg.kind with
      | Opkind.Read p ->
          if not (List.mem_assoc p t.in_ports) then err "op %d reads undeclared port %s" op.Dfg.id p
      | Opkind.Write p ->
          if not (List.mem_assoc p t.out_ports) then
            err "op %d writes undeclared port %s" op.Dfg.id p
      | _ -> ());
  !errs

let pp fmt t =
  Format.fprintf fmt "design %s@." t.name;
  Format.fprintf fmt "-- CFG --@.%a" Cfg.pp t.cfg;
  Format.fprintf fmt "-- DFG --@.%a" Dfg.pp t.dfg;
  List.iter
    (fun e ->
      let ops = ops_on_edge t ~edge:e.Cfg.eid in
      if ops <> [] then
        Format.fprintf fmt "edge e%d: ops [%s]@." e.Cfg.eid
          (String.concat "; " (List.map string_of_int ops)))
    (Cfg.edges t.cfg)
