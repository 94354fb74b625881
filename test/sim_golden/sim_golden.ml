(* One line per (design point, stimulus seed, stimulus length) of
   [Schedule_sim.run]: committed and issued iterations, cycles, and md5s of
   the committed outputs and of the sorted execution counts.  The points
   are those of the end-to-end benchmark's [designs] workload: every
   built-in design and every [.bhv] file of the directory given as the
   only argument, sequential, at II=1 and at II=2, at 1600 ps, without
   idct8x8 at II=2. *)

module Flow = Hls_flow.Flow
module Schedule_sim = Hls_sim.Schedule_sim

let designs dir =
  let bhv =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".bhv")
    |> List.sort compare
    |> List.map (fun f ->
           ( Filename.chop_suffix f ".bhv",
             Hls_frontend.Parser.parse_string
               (In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all) ))
  in
  List.map (fun (name, make) -> (name, make ())) Hls_server.Design_db.builtins @ bhv

let md5 s = Digest.to_hex (Digest.string s)

let outputs_digest (r : Schedule_sim.result) =
  r.Schedule_sim.r_outputs
  |> List.map (fun (o : Schedule_sim.output_event) ->
         Printf.sprintf "%s %d %d %d" o.Schedule_sim.o_port o.Schedule_sim.o_iter
           o.Schedule_sim.o_cycle o.Schedule_sim.o_value)
  |> String.concat "\n" |> md5

let counts_digest (r : Schedule_sim.result) =
  Hashtbl.fold (fun op n acc -> (op, n) :: acc) r.Schedule_sim.r_exec_counts []
  |> List.sort compare
  |> List.map (fun (op, n) -> Printf.sprintf "%d:%d" op n)
  |> String.concat " " |> md5

let () =
  let dir = Sys.argv.(1) in
  List.iter
    (fun (name, design) ->
      List.iter
        (fun ii ->
          if not (name = "idct8x8" && ii = Some 2) then begin
            let point =
              Printf.sprintf "%s %s" name
                (match ii with None -> "seq" | Some i -> Printf.sprintf "ii=%d" i)
            in
            match
              Flow.run
                ~options:{ Flow.default_options with Flow.ii; clock_ps = 1600.0; verify = false }
                design
            with
            | Error d -> Printf.printf "%s refused %s\n" point d.Hls_diag.Diag.d_code
            | Ok f ->
                List.iter
                  (fun seed ->
                    List.iter
                      (fun n_iters ->
                        let stim =
                          Hls_sim.Stimulus.small_random ~seed ~n_iters ~ports:design.Hls_frontend.Ast.d_ins
                        in
                        let r = Schedule_sim.run f.Flow.f_elab f.Flow.f_sched stim in
                        Printf.printf "%s seed=%d n=%d iters=%d cycles=%d issued=%d out=%s counts=%s\n"
                          point seed n_iters r.Schedule_sim.r_iters r.Schedule_sim.r_cycles
                          r.Schedule_sim.r_issued (outputs_digest r) (counts_digest r))
                      [ 0; 1; 7; 100 ])
                  [ 1; 2; 3 ]
          end)
        [ None; Some 1; Some 2 ])
    (designs dir)
