(** In-memory spans recorded around calls into each layer.

    A span has a name, a start and end on the monotonic clock, the span
    that was open when it started (its parent) and the request it belongs
    to.  Spans stay in memory until the run writes them out. *)

type span = { id : int; name : string; parent : int option; req : int; t0 : float; t1 : float }

type t = { mutable spans : span list; mutable next_id : int; mutable stack : (int * int) list }
(** [stack]: (span id, request id) of the spans currently open, innermost
    first. *)

(** A recorder numbering its spans from [first_id] (default 0); give
    recorders used side by side, one per thread, disjoint ranges. *)
let create ?(first_id = 0) () = { spans = []; next_id = first_id; stack = [] }

(** Run [f] inside a span named [name].  [req] defaults to the enclosing
    span's request. *)
let with_span t ?req name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent, req =
    match (t.stack, req) with
    | (p, preq) :: _, None -> (Some p, preq)
    | (p, _) :: _, Some r -> (Some p, r)
    | [], r -> (None, Option.value r ~default:(-1))
  in
  t.stack <- (id, req) :: t.stack;
  let t0 = Clock.now () in
  let finish () =
    let t1 = Clock.now () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; name; parent; req; t0; t1 } :: t.spans
  in
  Fun.protect ~finally:finish f

(** Record a span timed elsewhere, e.g. from when frames arrived; returns
    its id, for children to name as their parent. *)
let add t ?parent ~req name t0 t1 =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.spans <- { id; name; parent; req; t0; t1 } :: t.spans;
  id

(** Spans in the order they ended. *)
let spans t = List.rev t.spans

let duration s = s.t1 -. s.t0

(* total length of the union of [ivs] clipped to [lo, hi] *)
let covered ~lo ~hi ivs =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) ivs
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(** Self time of every span: its duration minus the part of it that its
    child spans cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> Option.iter (fun p -> Hashtbl.add children p (s.t0, s.t1)) s.parent)
    spans;
  List.map
    (fun s -> (s, duration s -. covered ~lo:s.t0 ~hi:s.t1 (Hashtbl.find_all children s.id)))
    spans

(** Summed self time per span name, sorted by name. *)
let self_by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace tbl s.name (self +. Option.value (Hashtbl.find_opt tbl s.name) ~default:0.0))
    (self_times spans);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
