(** End-to-end benchmark of the HLS flow.

    {v
      e2e.exe --workload W --seed N --seconds S --trace 0|1   one run (BENCHMARK.json's command)
      e2e.exe run [--seed N] [--out DIR]                      every workload, run_seconds each
      e2e.exe smoke                                           short pass + every check
      e2e.exe compare A.json B.json
    v}

    Every form takes [--hlsc PATH], the daemon binary the [serve] workload
    starts (default [_build/default/bin/hlsc.exe]).  See README.md. *)

let usage =
  "usage: e2e.exe --workload W --seed N --seconds S --trace 0|1 [--hlsc PATH]\n\
  \       e2e.exe run [--seed N] [--out DIR] [--hlsc PATH]\n\
  \       e2e.exe smoke [--hlsc PATH]\n\
  \       e2e.exe compare A.json B.json\n\
   workloads: designs, scale, explore, serve"

let parse args specs ~anon =
  try Arg.parse_argv ~current:(ref 0) (Array.of_list ("e2e" :: args)) specs anon usage with
  | Arg.Bad m | Arg.Help m ->
      prerr_string m;
      exit 2

let hlsc = ref "_build/default/bin/hlsc.exe"
let seed = ref 1
let seconds = ref 25.0
let hlsc_arg = ("--hlsc", Arg.Set_string hlsc, "PATH the hlsc binary")
let seed_arg = ("--seed", Arg.Set_int seed, "N workload seed")
let seconds_arg = ("--seconds", Arg.Set_float seconds, "S seconds to measure per run")

let check_workload w =
  if not (List.mem w Child.workloads) then begin
    prerr_endline ("e2e: unknown workload " ^ w);
    exit 2
  end

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "child" :: workload :: rest -> (
      let trace = ref 0 and setup_only = ref false and trace_file = ref "" in
      parse rest
        [
          hlsc_arg; seed_arg; seconds_arg;
          ("--trace", Arg.Set_int trace, "");
          ("--setup-only", Arg.Set setup_only, "");
          ("--trace-file", Arg.Set_string trace_file, "");
        ]
        ~anon:(fun _ -> raise (Arg.Bad usage));
      let ctx = { Ctx.seed = !seed; seconds = !seconds; trace = !trace = 1; hlsc = !hlsc } in
      try
        Child.main ~workload ~ctx ~setup_only:!setup_only
          ~trace_file:(if !trace_file = "" then None else Some !trace_file)
      with e ->
        prerr_endline ("e2e " ^ workload ^ ": " ^ Printexc.to_string e);
        exit 1)
  | "run" :: rest ->
      let out = ref "e2e-out" in
      parse rest
        [ hlsc_arg; seed_arg; ("--out", Arg.Set_string out, "DIR where result.json and the traces go") ]
        ~anon:(fun _ -> raise (Arg.Bad usage));
      Front.run ~hlsc:!hlsc ~seed:!seed ~out:!out
  | "smoke" :: rest ->
      parse rest [ hlsc_arg ] ~anon:(fun _ -> raise (Arg.Bad usage));
      Front.smoke ~hlsc:!hlsc
  | "compare" :: rest ->
      (* run.sh passes --hlsc to every form; compare has no use for it *)
      let files = ref [] in
      parse rest [ hlsc_arg ] ~anon:(fun f -> files := !files @ [ f ]);
      (match !files with
      | [ a; b ] -> Compare.main a b
      | _ ->
          prerr_endline usage;
          exit 2)
  | rest ->
      let workload = ref "" and trace = ref (-1) in
      parse rest
        [
          hlsc_arg; seed_arg; seconds_arg;
          ("--workload", Arg.Set_string workload, "W");
          ("--trace", Arg.Set_int trace, "0|1");
        ]
        ~anon:(fun _ -> raise (Arg.Bad usage));
      check_workload !workload;
      if !trace <> 0 && !trace <> 1 then begin
        prerr_endline usage;
        exit 2
      end;
      Front.one_run ~hlsc:!hlsc ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
