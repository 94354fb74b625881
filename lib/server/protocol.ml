(** Wire protocol: length-prefixed JSON frames.  See the interface for
    the frame and session contract; this file is the JSON codec (both
    directions, no external dependency) plus the blocking frame I/O. *)

let version = 2
let binary_version = "1.2.0"

(* ------------------------------------------------------------------ *)
(* JSON values *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
      else Printf.sprintf "%.17g" f
  | String s -> Hls_diag.Diag.json_string s
  | List l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Hls_diag.Diag.json_string k ^ ":" ^ to_string v) kvs)
      ^ "}"

(* recursive-descent parser over a string with one index cell *)
exception Parse of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail m = raise (Parse (Printf.sprintf "%s at offset %d" m !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("bad literal (expected " ^ word ^ ")")
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          advance ();
          match e with
          | '"' -> Buffer.add_char buf '"'; go ()
          | '\\' -> Buffer.add_char buf '\\'; go ()
          | '/' -> Buffer.add_char buf '/'; go ()
          | 'n' -> Buffer.add_char buf '\n'; go ()
          | 't' -> Buffer.add_char buf '\t'; go ()
          | 'r' -> Buffer.add_char buf '\r'; go ()
          | 'b' -> Buffer.add_char buf '\b'; go ()
          | 'f' -> Buffer.add_char buf '\012'; go ()
          | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              let cp =
                match int_of_string_opt ("0x" ^ hex) with
                | Some v -> v
                | None -> fail "bad \\u escape"
              in
              (* encode the code point as UTF-8 (surrogate pairs not
                 recombined — the daemon never emits them) *)
              if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
              else if cp < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
                Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
              end;
              go ()
          | _ -> fail "bad escape")
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    match int_of_string_opt lit with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt lit with
        | Some f -> Float f
        | None -> fail ("bad number '" ^ lit ^ "'"))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (elements [])
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos) else Ok v
  with Parse m -> Error m

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let get_string = function String s -> Some s | _ -> None
let get_int = function Int i -> Some i | Float f when Float.is_integer f -> Some (int_of_float f) | _ -> None
let get_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
let get_bool = function Bool b -> Some b | _ -> None

(* ------------------------------------------------------------------ *)
(* Frames *)

let max_frame = 8 * 1024 * 1024

type frame_error = F_eof | F_oversized of int | F_bad_json of string

let frame_error_to_string = function
  | F_eof -> "connection closed"
  | F_oversized n -> Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" n max_frame
  | F_bad_json m -> "bad JSON payload: " ^ m

let really_read fd buf off len =
  let rec go off len =
    if len > 0 then begin
      let k = Unix.read fd buf off len in
      if k = 0 then raise End_of_file;
      go (off + k) (len - k)
    end
  in
  go off len

let really_write fd buf off len =
  let rec go off len =
    if len > 0 then begin
      let k = Unix.write fd buf off len in
      go (off + k) (len - k)
    end
  in
  go off len

let read_frame fd =
  let hdr = Bytes.create 4 in
  match really_read fd hdr 0 4 with
  | exception End_of_file -> Error F_eof
  | () -> (
      let len =
        (Bytes.get_uint8 hdr 0 lsl 24)
        lor (Bytes.get_uint8 hdr 1 lsl 16)
        lor (Bytes.get_uint8 hdr 2 lsl 8)
        lor Bytes.get_uint8 hdr 3
      in
      if len > max_frame then begin
        (* consume and discard the declared payload in bounded chunks so
           the stream stays framed and the connection survives *)
        let chunk = Bytes.create 65536 in
        let rec discard remaining =
          if remaining > 0 then begin
            let k = Unix.read fd chunk 0 (min remaining (Bytes.length chunk)) in
            if k = 0 then raise End_of_file;
            discard (remaining - k)
          end
        in
        match discard len with
        | exception End_of_file -> Error F_eof
        | () -> Error (F_oversized len)
      end
      else
        let payload = Bytes.create len in
        match really_read fd payload 0 len with
        | exception End_of_file -> Error F_eof
        | () -> (
            match of_string (Bytes.unsafe_to_string payload) with
            | Ok v -> Ok v
            | Error m -> Error (F_bad_json m)))

let write_frame fd v =
  let payload = to_string v in
  let len = String.length payload in
  let buf = Bytes.create (4 + len) in
  Bytes.set_uint8 buf 0 ((len lsr 24) land 0xff);
  Bytes.set_uint8 buf 1 ((len lsr 16) land 0xff);
  Bytes.set_uint8 buf 2 ((len lsr 8) land 0xff);
  Bytes.set_uint8 buf 3 (len land 0xff);
  Bytes.blit_string payload 0 buf 4 len;
  really_write fd buf 0 (4 + len)

(* ------------------------------------------------------------------ *)
(* Requests *)

type cmd = C_schedule | C_pipeline | C_flow

let cmd_to_string = function C_schedule -> "schedule" | C_pipeline -> "pipeline" | C_flow -> "flow"

let cmd_of_string = function
  | "schedule" -> Some C_schedule
  | "pipeline" -> Some C_pipeline
  | "flow" -> Some C_flow
  | _ -> None

type job_spec = {
  js_design : [ `Builtin of string | `Source of string ];
  js_cmd : cmd;
  js_ii : int option;
  js_clock_ps : float;
  js_min_latency : int option;
  js_max_latency : int option;
  js_max_passes : int option;
  js_timeout_s : float option;
  js_deadline_s : float option;
  js_verify : bool;
  js_trace : bool;
}

let job_spec ?ii ?min_latency ?max_latency ?max_passes ?timeout_s ?deadline_s ?(verify = true)
    ?(trace = false) ?(clock_ps = 1600.0) cmd design =
  {
    js_design = design;
    js_cmd = cmd;
    js_ii = ii;
    js_clock_ps = clock_ps;
    js_min_latency = min_latency;
    js_max_latency = max_latency;
    js_max_passes = max_passes;
    js_timeout_s = timeout_s;
    js_deadline_s = deadline_s;
    js_verify = verify;
    js_trace = trace;
  }

type request = Hello of int | Submit of job_spec | Cancel of int | Stats | Health | Shutdown

let opt_int = function None -> Null | Some i -> Int i
let opt_float = function None -> Null | Some f -> Float f

let job_spec_to_json js =
  Obj
    [
      (match js.js_design with
      | `Builtin name -> ("design", String name)
      | `Source src -> ("source", String src));
      ("cmd", String (cmd_to_string js.js_cmd));
      ("ii", opt_int js.js_ii);
      ("clock_ps", Float js.js_clock_ps);
      ("min_latency", opt_int js.js_min_latency);
      ("max_latency", opt_int js.js_max_latency);
      ("max_passes", opt_int js.js_max_passes);
      ("timeout_s", opt_float js.js_timeout_s);
      ("deadline_s", opt_float js.js_deadline_s);
      ("verify", Bool js.js_verify);
      ("trace", Bool js.js_trace);
    ]

let request_to_json = function
  | Hello v -> Obj [ ("type", String "hello"); ("proto", Int v) ]
  | Submit js -> (
      match job_spec_to_json js with
      | Obj kvs -> Obj (("type", String "submit") :: kvs)
      | _ -> assert false)
  | Cancel id -> Obj [ ("type", String "cancel"); ("job", Int id) ]
  | Stats -> Obj [ ("type", String "stats") ]
  | Health -> Obj [ ("type", String "health") ]
  | Shutdown -> Obj [ ("type", String "shutdown") ]

let field_int j k = Option.bind (member k j) get_int
let field_float j k = Option.bind (member k j) get_float
let field_string j k = Option.bind (member k j) get_string
let field_bool j k = Option.bind (member k j) get_bool

let positive_seconds what x =
  if Float.is_finite x && x > 0.0 then Ok x
  else Error (Printf.sprintf "%s must be a positive, finite number of seconds (got %g)" what x)

let job_spec_of_json j =
  let design =
    match (field_string j "design", field_string j "source") with
    | Some name, _ -> Ok (`Builtin name)
    | None, Some src -> Ok (`Source src)
    | None, None -> Error "submit needs a 'design' name or inline 'source'"
  in
  (* a deadline the supervisor would trip at once kills a healthy worker *)
  let deadline =
    match member "deadline_s" j with
    | None | Some Null -> Ok None
    | Some v -> (
        match get_float v with
        | Some x -> Result.map Option.some (positive_seconds "deadline_s" x)
        | None -> Error "deadline_s must be a positive, finite number of seconds")
  in
  match (design, deadline) with
  | Error m, _ | _, Error m -> Error m
  | Ok design, Ok deadline -> (
      match Option.bind (field_string j "cmd") cmd_of_string with
      | None -> Error "submit needs a 'cmd' of schedule|pipeline|flow"
      | Some cmd ->
          Ok
            {
              js_design = design;
              js_cmd = cmd;
              js_ii = field_int j "ii";
              js_clock_ps = Option.value (field_float j "clock_ps") ~default:1600.0;
              js_min_latency = field_int j "min_latency";
              js_max_latency = field_int j "max_latency";
              js_max_passes = field_int j "max_passes";
              js_timeout_s = field_float j "timeout_s";
              js_deadline_s = deadline;
              js_verify = Option.value (field_bool j "verify") ~default:true;
              js_trace = Option.value (field_bool j "trace") ~default:false;
            })

let request_of_json j =
  match field_string j "type" with
  | Some "hello" -> (
      match field_int j "proto" with
      | Some v -> Ok (Hello v)
      | None -> Error "hello needs an integer 'proto'")
  | Some "submit" -> Result.map (fun js -> Submit js) (job_spec_of_json j)
  | Some "cancel" -> (
      match field_int j "job" with
      | Some id -> Ok (Cancel id)
      | None -> Error "cancel needs an integer 'job'")
  | Some "stats" -> Ok Stats
  | Some "health" -> Ok Health
  | Some "shutdown" -> Ok Shutdown
  | Some t -> Error (Printf.sprintf "unknown request type '%s'" t)
  | None -> Error "request needs a 'type'"

(* ------------------------------------------------------------------ *)
(* Typed error frames *)

let error_frame ?job ?(extra = []) ~code msg =
  Obj
    ((match job with Some id -> [ ("job", Int id) ] | None -> [])
    @ [ ("type", String "error"); ("code", String code); ("message", String msg) ]
    @ extra)

(* ------------------------------------------------------------------ *)
(* Outcomes *)

type status = S_ok | S_error | S_cancelled

let status_to_string = function S_ok -> "ok" | S_error -> "error" | S_cancelled -> "cancelled"

let status_of_string = function
  | "ok" -> Some S_ok
  | "error" -> Some S_error
  | "cancelled" -> Some S_cancelled
  | _ -> None

type outcome = {
  o_job : int;
  o_status : status;
  o_output : string;
  o_summary : string;
  o_tier : string;
  o_notes : string list;
  o_diag : string option;
  o_diag_json : string option;
  o_code : string option;
  o_cached : bool;
  o_wall_s : float;
}

let outcome_of_json j =
  match Option.bind (field_string j "status") status_of_string with
  | None -> Error "result frame without a valid 'status'"
  | Some status ->
      let notes =
        match member "notes" j with
        | Some (List l) -> List.filter_map get_string l
        | _ -> []
      in
      Ok
        {
          o_job = Option.value (field_int j "job") ~default:(-1);
          o_status = status;
          o_output = Option.value (field_string j "output") ~default:"";
          o_summary = Option.value (field_string j "summary") ~default:"";
          o_tier = Option.value (field_string j "tier") ~default:"";
          o_notes = notes;
          o_diag = field_string j "diag";
          o_diag_json = field_string j "diag_json";
          o_code = field_string j "code";
          o_cached = Option.value (field_bool j "cached") ~default:false;
          o_wall_s = Option.value (field_float j "wall_s") ~default:0.0;
        }
