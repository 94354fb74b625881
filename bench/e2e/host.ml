(** What the benchmark reads about its host and process tree. *)

let read_file path = try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

let field_kb status key =
  List.find_map
    (fun line ->
      match String.split_on_char ':' line with
      | [ k; v ] when k = key -> (
          match String.split_on_char ' ' (String.trim v) with
          | n :: _ -> float_of_string_opt n
          | [] -> None)
      | _ -> None)
    (String.split_on_char '\n' status)

let status_mb key pid =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | None -> 0.0
  | Some s -> Option.value (field_kb s key) ~default:0.0 /. 1024.0

(** Peak resident set (VmHWM) of [pid] ("self" for this process), MiB. *)
let peak_rss_mb pid = status_mb "VmHWM" pid

(** Current resident set (VmRSS) of this process, MiB. *)
let rss_mb () = status_mb "VmRSS" "self"

let parent_pid pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> None
  | Some s -> (
      (* the command name may hold spaces and parentheses: fields resume
         after the last ')' *)
      match String.rindex_opt s ')' with
      | None -> None
      | Some i -> (
          match String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2)) with
          | _state :: ppid :: _ -> int_of_string_opt ppid
          | _ -> None))

(** Summed peak RSS of [pid] and its direct children (the daemon's
    acceptor plus its forked workers), MiB. *)
let tree_peak_rss_mb pid =
  let children =
    Sys.readdir "/proc" |> Array.to_list
    |> List.filter_map int_of_string_opt
    |> List.filter (fun p -> parent_pid p = Some pid)
  in
  List.fold_left (fun a p -> a +. peak_rss_mb (string_of_int p)) 0.0 (pid :: children)

(** CPUs this process may run on — what [nproc] prints. *)
let nproc () =
  let count_range r =
    match String.split_on_char '-' r with
    | [ a; b ] -> (
        match (int_of_string_opt a, int_of_string_opt b) with Some a, Some b -> b - a + 1 | _ -> 0)
    | [ a ] -> if int_of_string_opt a <> None then 1 else 0
    | _ -> 0
  in
  match read_file "/proc/self/status" with
  | None -> Domain.recommended_domain_count ()
  | Some s -> (
      match
        List.find_map
          (fun line ->
            match String.split_on_char ':' line with
            | [ "Cpus_allowed_list"; v ] -> Some (String.trim v)
            | _ -> None)
          (String.split_on_char '\n' s)
      with
      | None -> Domain.recommended_domain_count ()
      | Some l -> List.fold_left (fun a r -> a + count_range r) 0 (String.split_on_char ',' l))

(** The checked-out commit, read from [.git] without running git;
    ["unknown"] outside a git checkout. *)
let git_rev () =
  let trim s = String.trim s in
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      let head = trim head in
      match String.split_on_char ' ' head with
      | [ "ref:"; r ] -> (
          match read_file (Filename.concat ".git" r) with
          | Some rev -> trim rev
          | None -> (
              match read_file ".git/packed-refs" with
              | None -> "unknown"
              | Some packed ->
                  List.find_map
                    (fun line ->
                      match String.split_on_char ' ' line with
                      | [ rev; name ] when name = r -> Some rev
                      | _ -> None)
                    (String.split_on_char '\n' packed)
                  |> Option.value ~default:"unknown"))
      | _ -> head)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
