(** What one workload child reports, and its JSON form. *)

module P = Hls_server.Protocol

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

type t = {
  attempted : int;
  failed : int;  (** raised, Fatal diagnostic, verify mismatch or wrong bytes *)
  metrics : metric list;  (** from the untraced run *)
  layers : metric list;  (** from the traced run *)
  checks : (string * bool) list;
  notes : string list;  (** what went wrong, one line each *)
}

let empty = { attempted = 0; failed = 0; metrics = []; layers = []; checks = []; notes = [] }

(** Per-layer metrics of the [explore] workload's own layers (DSE and
    feedback).  Every workload reports every per-layer metric that
    BENCHMARK.json declares, so the others report these as zero. *)
let workload_layers =
  [
    m "dse.parallel_eff" "ratio" 0.0;
    m "dse.cache_hit_ratio" "ratio" 0.0;
    m "dse.max_point_share" "ratio" 0.0;
    m "dse.cached_sweep_ratio" "ratio" 0.0;
    m "feedback.sweep_ratio" "ratio" 0.0;
    m "feedback.hint_reuse" "count" 0.0;
    m "feedback.hints_extracted" "count" 0.0;
  ]

(** [own] plus a zero for every workload-specific metric it lacks. *)
let with_workload_layers own =
  own @ List.filter (fun d -> not (List.exists (fun o -> o.name = d.name) own)) workload_layers

let correct t = t.failed = 0 && List.for_all snd t.checks

let metrics_json ms =
  P.Obj (List.map (fun x -> (x.name, P.Obj [ ("value", P.Float x.value); ("unit", P.String x.unit_) ])) ms)

let to_json t =
  P.Obj
    [
      ("attempted", P.Int t.attempted);
      ("failed", P.Int t.failed);
      ("correct", P.Bool (correct t));
      ("metrics", metrics_json t.metrics);
      ("layers", metrics_json t.layers);
      ("checks", P.Obj (List.map (fun (k, v) -> (k, P.Bool v)) t.checks));
      ("notes", P.List (List.map (fun n -> P.String n) t.notes));
    ]

let metrics_of_json = function
  | Some (P.Obj kvs) ->
      List.filter_map
        (fun (name, v) ->
          match (Option.bind (P.member "value" v) P.get_float, Option.bind (P.member "unit" v) P.get_string) with
          | Some value, Some unit_ -> Some { name; unit_; value }
          | _ -> None)
        kvs
  | _ -> []

let of_json j =
  let int k = Option.value (Option.bind (P.member k j) P.get_int) ~default:0 in
  {
    attempted = int "attempted";
    failed = int "failed";
    metrics = metrics_of_json (P.member "metrics" j);
    layers = metrics_of_json (P.member "layers" j);
    checks =
      (match P.member "checks" j with
      | Some (P.Obj kvs) -> List.map (fun (k, v) -> (k, P.get_bool v = Some true)) kvs
      | _ -> []);
    notes =
      (match P.member "notes" j with
      | Some (P.List l) -> List.filter_map P.get_string l
      | _ -> []);
  }

(** A check that every value will print as a JSON number. *)
let finite t =
  List.for_all (fun x -> Float.is_finite x.value) (t.metrics @ t.layers)

(** [req_p50_ms] and [req_p90_ms] from request times in seconds; a
    percentile without enough samples is left out (the caller checks). *)
let latency secs =
  let pct q = Option.map (fun s -> s *. 1000.0) (E2e_kit.Stats.percentile q secs) in
  List.filter_map
    (fun (name, v) -> Option.map (m name "ms") v)
    [ ("req_p50_ms", pct 0.5); ("req_p90_ms", pct 0.9) ]
