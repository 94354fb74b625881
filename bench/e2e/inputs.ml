(** The benchmark's inputs.  Sets are fixed so that every seed runs the
    same work; the seed only orders it (and, for [serve], draws the
    traffic).  Drawing the designs themselves from the seed moved the
    per-run mean by more than the metrics' bounds. *)

module Flow = Hls_flow.Flow
module Dse = Hls_dse.Dse

type spec = [ `Builtin of string | `Source of string ]

(** [examples/*.bhv], read from the working directory (the repository
    root), as (file name without [.bhv], source) in name order. *)
let bhv_sources () =
  let dir = "examples" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".bhv")
  |> List.sort compare
  |> List.map (fun f ->
         (Filename.chop_suffix f ".bhv", In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))

(** Every built-in design plus every textual example (15 designs at the
    time of writing), with the spec a daemon client would send for each. *)
let designs () : (string * spec * Hls_frontend.Ast.design) list =
  List.map (fun (name, make) -> (name, `Builtin name, make ())) Hls_server.Design_db.builtins
  @ List.map
      (fun (name, src) -> (name, `Source src, Hls_frontend.Parser.parse_string src))
      (bhv_sources ())

(** The [designs] request set: each design sequential, at II=1 and at
    II=2, at 1600 ps — 44 requests, since idct8x8 at II=2 alone takes
    longer than a whole pass of the others. *)
let design_points = [ None; Some 1; Some 2 ]

let designs_excluded name ii = name = "idct8x8" && ii = Some 2

(** [scale]: synthetic designs where the scheduler does 80–90% of the
    work.  Four ~359-op designs pipelined at II=2 exercise warm-start
    local actions; one ~1k-op design (the BENCH_scale point) scheduled
    sequentially exercises cold passes and query volume.  Four to one puts
    p90 in the middle of the ~1k-op design's samples and p50 among the
    ~359-op ones, so neither sits on the edge of one design's samples. *)
let scale_set () =
  let synth ~ops ~tightness ~seed =
    Hls_designs.Synthetic.design
      ~profile:
        {
          Hls_designs.Synthetic.default_profile with
          Hls_designs.Synthetic.p_ops = ops;
          p_tightness = tightness;
          p_seed = seed;
        }
      ()
  in
  List.init 4 (fun i -> (synth ~ops:175 ~tightness:0.5 ~seed:(i + 1), Some 2, 3200.0))
  @ [ (synth ~ops:500 ~tightness:0.3 ~seed:7, None, 1600.0) ]

(** [explore] grids, as [hlsc explore] runs them. *)
type grid = { g_name : string; g_design : string; g_points : Dse.point list; g_feedback : bool }

(* the Fig. 10/11 sweep: per loop latency, a non-pipelined and a
   pipelined (II = latency / 2) curve over three clock periods *)
let fig10_11_points =
  List.concat_map
    (fun l ->
      List.concat_map
        (fun pipelined ->
          List.map
            (fun clock_ps ->
              Dse.point ?ii:(if pipelined then Some (l / 2) else None) ~min_latency:l ~max_latency:l
                ~clock_ps ())
            [ 1200.0; 1600.0; 2400.0 ])
        [ false; true ])
    [ 8; 16; 24; 32 ]

let grid_points spec =
  match Dse.parse_grid spec with
  | Ok g -> Dse.grid_points g
  | Error m -> invalid_arg ("bad built-in grid: " ^ m)

(** idct8x8 keeps to the two points that schedule at the requested tier
    in about 0.1 s; at II=1 with 2000 or 2400 ps it spends 4 s degrading
    to sequential, which alone would exceed a run (see README). *)
let explore_grids () =
  let small = "ii=none,1,2,4;clock=1200,1600,2000,2400" in
  [
    { g_name = "idct-fig10"; g_design = "idct"; g_points = fig10_11_points; g_feedback = false };
    { g_name = "idct-fig10-feedback"; g_design = "idct"; g_points = fig10_11_points; g_feedback = true };
    { g_name = "fir16"; g_design = "fir16"; g_points = grid_points small; g_feedback = false };
    { g_name = "sobel"; g_design = "sobel"; g_points = grid_points small; g_feedback = false };
    { g_name = "idct8x8"; g_design = "idct8x8"; g_points = grid_points "ii=none,1;clock=1600"; g_feedback = false };
  ]

(** [serve] traffic: a [flow] submit of one of the [designs] requests
    (idct8x8 left out: one cold compile of it costs 0.1–4 s and would
    dominate the daemon), at a clock in [1200, 2400] ps ({!Serve.keygen}). *)
let serve_points () =
  List.concat_map
    (fun (name, spec, _) ->
      if name = "idct8x8" then []
      else List.map (fun ii -> (name, spec, ii)) design_points)
    (designs ())

(** Fisher–Yates with the run's generator. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a
