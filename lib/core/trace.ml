(** Event trace of a scheduling run.

    Collects human-readable events (pass starts, binding failures,
    relaxation decisions) so that the worked examples of the paper
    (Examples 1–3) can be replayed as narratives by the bench harness.

    Events carry a severity level so long relaxation narratives can be
    filtered: [Debug] for per-op binding detail, [Info] for the pass and
    relaxation narrative, [Warn] for failures and give-ups.  The original
    [log]/[logf] entry points are level-[Info] and keep working
    unchanged. *)

type level = Debug | Info | Warn

type t = {
  mutable events : (level * string) list;
  echo : bool;
  sink : (level -> string -> unit) option;
      (** live consumer — the compile daemon streams events to the
          submitting client through this while the job runs *)
}

let create ?(echo = false) ?sink () = { events = []; echo; sink }

let level_to_string = function Debug -> "debug" | Info -> "info" | Warn -> "warn"

let log_at t level fmt =
  Printf.ksprintf
    (fun s ->
      t.events <- (level, s) :: t.events;
      if t.echo then print_endline s;
      match t.sink with None -> () | Some f -> f level s)
    fmt

let log t fmt = log_at t Info fmt

let logf ?(level = Info) t_opt fmt =
  match t_opt with
  | Some t -> log_at t level fmt
  | None -> Printf.ikfprintf ignore () fmt

let events t = List.rev_map snd t.events

let counts t =
  let n l = List.length (List.filter (fun (l', _) -> l' = l) t.events) in
  [ (Debug, n Debug); (Info, n Info); (Warn, n Warn) ]

let summary t =
  let cs = counts t in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 cs in
  Printf.sprintf "%d events (%s)" total
    (String.concat ", "
       (List.map (fun (l, n) -> Printf.sprintf "%d %s" n (level_to_string l)) cs))

let pp fmt t = List.iter (fun e -> Format.fprintf fmt "%s@." e) (events t)
