module P = Protocol

type t = {
  fd : Unix.file_descr;
  mutable pending : P.json list;
      (** frames read while waiting for a different frame type, oldest
          first — lets [cancel]/[stats] ride a connection that also has a
          submit in flight without losing frames *)
  mutable alive : bool;
}

let close t =
  if t.alive then begin
    t.alive <- false;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let frame_type j = Option.bind (P.member "type" j) P.get_string

(* read frames until [want] matches one; non-matching frames go through
   [other] (events) or into the pending buffer *)
let next_matching ?(on_event = fun ~level:_ _ -> ()) t want =
  let matches j = match frame_type j with Some ty -> want ty | None -> false in
  let rec from_pending acc = function
    | [] -> None
    | j :: rest when matches j ->
        t.pending <- List.rev_append acc rest;
        Some j
    | j :: rest -> from_pending (j :: acc) rest
  in
  match from_pending [] t.pending with
  | Some j -> Ok j
  | None ->
      let rec go () =
        match P.read_frame t.fd with
        | Error e -> Error (P.frame_error_to_string e)
        | Ok j when matches j -> Ok j
        | Ok j -> (
            match frame_type j with
            | Some "event" ->
                let level =
                  Option.value (Option.bind (P.member "level" j) P.get_string) ~default:"info"
                in
                let text =
                  Option.value (Option.bind (P.member "text" j) P.get_string) ~default:""
                in
                on_event ~level text;
                go ()
            | _ ->
                t.pending <- t.pending @ [ j ];
                go ())
      in
      go ()

let error_of_frame j =
  let code = Option.value (Option.bind (P.member "code" j) P.get_string) ~default:"error" in
  let msg = Option.value (Option.bind (P.member "message" j) P.get_string) ~default:"" in
  Printf.sprintf "%s: %s" code msg

let connect ?tcp ~socket () =
  try
    let fd =
      match tcp with
      | Some (host, port) ->
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          let addr =
            try (Unix.gethostbyname host).Unix.h_addr_list.(0)
            with Not_found -> Unix.inet_addr_of_string host
          in
          Unix.connect fd (Unix.ADDR_INET (addr, port));
          fd
      | None ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX socket);
          fd
    in
    let t = { fd; pending = []; alive = true } in
    P.write_frame fd (P.request_to_json (P.Hello P.version));
    match next_matching t (fun ty -> ty = "hello" || ty = "error") with
    | Error m ->
        close t;
        Error m
    | Ok j when frame_type j = Some "error" ->
        close t;
        Error (error_of_frame j)
    | Ok j -> (
        match Option.bind (P.member "proto" j) P.get_int with
        | Some v when v = P.version -> Ok t
        | Some v ->
            close t;
            Error
              (Printf.sprintf "daemon speaks protocol %d, this client needs %d — refusing" v
                 P.version)
        | None ->
            close t;
            Error "daemon hello carried no protocol version")
  with
  | Unix.Unix_error (e, fn, _) -> Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | Not_found -> Error "host not found"

let submit_nowait t spec =
  try
    P.write_frame t.fd (P.request_to_json (P.Submit spec));
    match next_matching t (fun ty -> ty = "accepted" || ty = "error") with
    | Error m -> Error m
    | Ok j when frame_type j = Some "error" -> Error (error_of_frame j)
    | Ok j -> (
        match Option.bind (P.member "job" j) P.get_int with
        | Some id -> Ok id
        | None -> Error "accepted frame carried no job id")
  with Unix.Unix_error (e, fn, _) -> Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))

let await ?on_event t =
  match next_matching ?on_event t (fun ty -> ty = "result" || ty = "error") with
  | Error m -> Error m
  | Ok j when frame_type j = Some "error" -> Error (error_of_frame j)
  | Ok j -> P.outcome_of_json j

let submit ?on_event t spec =
  match submit_nowait t spec with Error m -> Error m | Ok _ -> await ?on_event t

let cancel t id =
  try
    P.write_frame t.fd (P.request_to_json (P.Cancel id));
    match next_matching t (fun ty -> ty = "cancelling") with
    | Error m -> Error m
    | Ok j -> Ok (Option.value (Option.bind (P.member "found" j) P.get_bool) ~default:false)
  with Unix.Unix_error (e, fn, _) -> Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))

let stats t =
  try
    P.write_frame t.fd (P.request_to_json P.Stats);
    next_matching t (fun ty -> ty = "stats")
  with Unix.Unix_error (e, fn, _) -> Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))

let shutdown_server t =
  try
    P.write_frame t.fd (P.request_to_json P.Shutdown);
    match next_matching t (fun ty -> ty = "draining") with
    | Error m -> Error m
    | Ok _ -> Ok ()
  with Unix.Unix_error (e, fn, _) -> Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))

let health t =
  try
    P.write_frame t.fd (P.request_to_json P.Health);
    match next_matching t (fun ty -> ty = "health" || ty = "error") with
    | Error m -> Error m
    | Ok j when frame_type j = Some "error" -> Error (error_of_frame j)
    | Ok j -> Ok j
  with Unix.Unix_error (e, fn, _) -> Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))

(* ------------------------------------------------------------------ *)
(* Retrying submit *)

(* [Error] strings from this module are ["<code>: <message>"] for daemon
   error frames and ["<syscall>: <reason>"] / ["connection closed"] for
   transport faults.  Retryable: transient daemon rejects and transport
   faults.  NOT retryable: the daemon is healthy and said no ([draining],
   [proto_mismatch], [bad_*]) — retrying cannot change its answer. *)
let retryable_error msg =
  let has_prefix p =
    String.length msg >= String.length p && String.sub msg 0 (String.length p) = p
  in
  has_prefix "overloaded:" || has_prefix "worker_lost:"
  || msg = "connection closed"
  || has_prefix "connect:" || has_prefix "read:" || has_prefix "write:"
  || has_prefix "recv:" || has_prefix "send:"

(* a service-tier loss comes back as a [result] frame with this code —
   idempotent by fingerprint, so re-submitting is always safe *)
let retryable_outcome (o : P.outcome) =
  o.P.o_status = P.S_error && o.P.o_code = Some "worker_lost"

let submit_retrying ?on_event ?(retries = 3) ?(backoff_s = 0.05) ?(max_backoff_s = 2.0) ?seed
    ~connect spec =
  let rng = Random.State.make (match seed with Some s -> [| s |] | None -> [| 0x5eed |]) in
  let jittered d = d *. (0.5 +. Random.State.float rng 1.0) in
  let rec attempt n delay =
    let verdict =
      match connect () with
      | Error m -> Error m
      | Ok conn ->
          let r = submit ?on_event conn spec in
          close conn;
          r
    in
    match verdict with
    | Ok o when retryable_outcome o && n < retries ->
        Unix.sleepf (jittered delay);
        attempt (n + 1) (Float.min max_backoff_s (delay *. 2.0))
    | Ok o -> Ok (o, n + 1)
    | Error m when retryable_error m && n < retries ->
        Unix.sleepf (jittered delay);
        attempt (n + 1) (Float.min max_backoff_s (delay *. 2.0))
    | Error m -> Error m
  in
  attempt 0 backoff_s
