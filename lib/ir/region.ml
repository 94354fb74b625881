(** Linear scheduling regions.

    After predicate conversion and loop linearization, each schedulable unit
    of the design — typically the body of the (pipelined) main loop — is a
    straight-line sequence of control steps [0 .. n_steps-1].  This is
    exactly the structure the paper's pass scheduler consumes: "Converting
    the loop into a straight-line sequence of nodes in the CFG" (Section V,
    Step I.1).

    A region does not own a private DFG: it references the design-wide
    {!Dfg.t} together with a membership set, so that data edges crossing the
    region boundary (values computed before the loop, used inside it) stay
    visible.  A producer outside the region is treated by the scheduler as
    registered and available from step 0.

    For a pipelined region, [pipeline = Some { ii }] and two steps are
    {e equivalent} when they are congruent modulo [ii] (Section V, Step
    I.2); the scheduler folds them after a successful pass. *)

type pipeline_spec = { ii : int  (** initiation interval, designer-given *) }

type dim = {
  nd_name : string;  (** source loop name of this dimension *)
  nd_trip : int;  (** static trip count *)
  nd_ii : int option;  (** designer-requested II along this dimension *)
}

type nest = {
  n_dims : dim list;  (** outermost first; the last entry is the innermost *)
  n_perfect : bool;  (** no statements between the nest's loop headers *)
}

type t = {
  rname : string;
  dfg : Dfg.t;  (** the design-wide DFG (shared, not owned) *)
  members : (int, unit) Hashtbl.t;  (** op ids scheduled within this region *)
  mutable n_steps : int;  (** current latency interval LI (number of states) *)
  min_steps : int;  (** designer lower latency bound *)
  max_steps : int;  (** designer upper latency bound; relaxation stops here *)
  pipeline : pipeline_spec option;
  continue_cond : int option;
      (** for a loop region: DFG op whose nonzero value means "iterate
          again" (the do_while condition) *)
  stall_cond : int option;
      (** "stalling loop" support (Section V, Step I.1): op whose zero value
          freezes the pipeline; ignored during scheduling, honoured by the
          generated controller *)
  is_loop : bool;
  source_waits : int;  (** number of wait() states the source specified *)
  nest : nest option;  (** loop-nest metadata; [None] for ordinary regions *)
}

let create ?(min_steps = 1) ?(max_steps = 64) ?pipeline ?continue_cond ?stall_cond
    ?(is_loop = false) ?(source_waits = 1) ?members ?nest ~name dfg =
  if min_steps < 1 then invalid_arg "Region.create: min_steps < 1";
  if max_steps < min_steps then invalid_arg "Region.create: max_steps < min_steps";
  (match pipeline with
  | Some { ii } when ii < 1 -> invalid_arg "Region.create: ii < 1"
  | _ -> ());
  let member_tbl = Hashtbl.create 64 in
  (match members with
  | Some ids -> List.iter (fun id -> Hashtbl.replace member_tbl id ()) ids
  | None -> Dfg.iter_ops dfg (fun op -> Hashtbl.replace member_tbl op.Dfg.id ()));
  let initial =
    match pipeline with
    | None -> min_steps
    | Some { ii } ->
        (* pipelined execution needs LI > II; exploration starts at II+1
           (Section V, condition 2) *)
        max min_steps (ii + 1)
  in
  {
    rname = name;
    dfg;
    members = member_tbl;
    n_steps = initial;
    min_steps;
    max_steps;
    pipeline;
    continue_cond;
    stall_cond;
    is_loop;
    source_waits;
    nest;
  }

let mem t id = Hashtbl.mem t.members id

(** {2 Loop-nest accessors} *)

let nest t = t.nest

(** Stride of each nest dimension in innermost (kernel) iterations,
    outermost first: the product of the trip counts of the dimensions
    strictly inside it, so the innermost dimension has stride 1. *)
let strides n =
  List.fold_right
    (fun d (inner, acc) -> (inner * max 1 d.nd_trip, inner :: acc))
    n.n_dims (1, [])
  |> snd

(** Total iterations of the flattened nest (product of all trip counts);
    1 for ordinary regions. *)
let flat_iters t =
  match t.nest with
  | None -> 1
  | Some n -> List.fold_left (fun acc d -> acc * max 1 d.nd_trip) 1 n.n_dims

(** Achieved per-dimension initiation intervals, outermost first, given
    the kernel II actually scheduled: the innermost dimension initiates
    every [kernel_ii] cycles and each enclosing dimension every
    [kernel_ii * stride] cycles.  Empty for ordinary regions. *)
let per_dim_iis t ~kernel_ii =
  match t.nest with None -> [] | Some n -> List.map (fun s -> kernel_ii * s) (strides n)

(** Member ops, sorted by id. *)
let member_ops t =
  Dfg.fold_ops t.dfg (fun op acc -> if mem t op.Dfg.id then op :: acc else acc) []
  |> List.sort (fun a b -> compare a.Dfg.id b.Dfg.id)

let n_members t = Hashtbl.length t.members

let ii t = match t.pipeline with Some { ii } -> ii | None -> t.n_steps

let is_pipelined t = t.pipeline <> None

(** Number of pipeline stages PS = ceil(LI / II) (the paper assumes II
    divides LI for the folded kernel; we take the ceiling so intermediate
    LIs during relaxation are well-defined). *)
let n_stages t =
  match t.pipeline with Some { ii } -> (t.n_steps + ii - 1) / ii | None -> 1

(** Stage containing step [s]. *)
let stage_of_step t s = match t.pipeline with Some { ii } -> s / ii | None -> 0

(** Steps [a] and [b] are equivalent (will fold onto the same kernel state)
    iff congruent modulo II.  In a non-pipelined region no two distinct
    steps are equivalent. *)
let steps_equivalent t a b =
  match t.pipeline with Some { ii } -> a mod ii = b mod ii | None -> a = b

(** All steps equivalent to [s] within the current latency interval. *)
let equivalent_steps t s =
  match t.pipeline with
  | None -> [ s ]
  | Some { ii } ->
      let r = s mod ii in
      let rec go k acc = if k >= t.n_steps then List.rev acc else go (k + ii) (k :: acc) in
      go r []

(** Strongly connected components of the member subgraph (over all edges,
    including loop-carried ones): the op groups that must fit within one
    pipeline stage.

    Mux {e select} inputs (port 0) are treated as control, not data, when
    forming components — matching the paper's Fig. 3, where the [aver] SCC
    is [{loopMux, add_op, mul2_op, MUX}] without the comparator feeding the
    MUX select.  The selector still schedules inside the stage in practice,
    pulled in by its ordinary data dependencies. *)
let sccs t =
  let nodes = List.map (fun op -> op.Dfg.id) (member_ops t) in
  let succs id =
    List.filter_map
      (fun e ->
        let is_select =
          e.Dfg.port = 0 && (Dfg.find t.dfg e.Dfg.dst).Dfg.kind = Opkind.Mux
        in
        if mem t e.Dfg.dst && not is_select then Some e.Dfg.dst else None)
      (Dfg.out_edges t.dfg id)
  in
  let comps = Graph_algo.scc ~nodes ~succs in
  List.filter
    (fun comp ->
      match comp with
      | [ x ] -> List.exists (fun e -> e.Dfg.dst = x) (Dfg.out_edges t.dfg x)
      | _ :: _ :: _ -> true
      | [] -> false)
    comps

(** Grow the latency interval by one state (the "add state" relaxation).
    Returns [false] when the designer bound forbids it. *)
let add_step t =
  if t.n_steps >= t.max_steps then false
  else begin
    t.n_steps <- t.n_steps + 1;
    true
  end

let reset_steps t n =
  if n < t.min_steps || n > t.max_steps then invalid_arg "Region.reset_steps: out of bounds";
  t.n_steps <- n

let pp fmt t =
  Format.fprintf fmt "region %s: LI=%d (bounds %d..%d)%s, %d ops@." t.rname t.n_steps t.min_steps
    t.max_steps
    (match t.pipeline with Some { ii } -> Printf.sprintf ", II=%d" ii | None -> "")
    (n_members t)
