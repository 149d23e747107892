open Regemu_bounds
module Json = Regemu_obs.Json

let schema = "regemu-compare/1"

type load = { label : string; k : int; readers : int; f : int; n : int }

(* Two load points that pull the three axes apart: a light point at
   the minimum interesting writer count, and a heavy one where both
   the writer count and the fault tolerance grow — CDS pays k cells on
   every replica, Algorithm 2 spreads kf + ⌈k/z⌉(f+1) cells across all
   n servers, ABD holds one (unbounded) max-register per replica
   whatever k is. *)
let loads =
  [
    { label = "k2-f1"; k = 2; readers = 4; f = 1; n = 5 };
    { label = "k6-f2"; k = 6; readers = 6; f = 2; n = 7 };
  ]

let smoke_loads = [ { label = "k2-f1"; k = 2; readers = 2; f = 1; n = 5 } ]

let algos = [ Live_bench.Abd; Live_bench.Alg2; Live_bench.Cds ]
let algo_names = List.map Live_bench.algo_name algos

(* the socket backend's stores live in child processes the sampler
   cannot see, so the committed comparison covers the two in-process
   fabrics *)
let backends = [ Transport.Threads; Transport.Domains ]

(* the paper-side prediction for the measured [space_cells_total]
   column: what each construction commits to holding, cluster-wide *)
let formula_cells_total ~algo l =
  match algo with
  | Live_bench.Abd | Live_bench.Abd_wb -> (2 * l.f) + 1
  | Live_bench.Alg2 ->
      Formulas.register_upper_bound (Params.make_exn ~k:l.k ~f:l.f ~n:l.n)
  | Live_bench.Cds -> l.k * ((2 * l.f) + 1)

let spec_of ~backend ~algo ~ops_per_client ~seed l =
  {
    Live_bench.algo;
    k = l.k;
    readers = l.readers;
    f = l.f;
    n = l.n;
    ops_per_client;
    couriers = 3;
    chaos = false;
    (* peak-pipeline mode, like the saturation sweep *)
    reorder = false;
    backend;
    seed;
    gray = None;
  }

(* backends adjacent per (load, algo) so the round-robined reps measure
   each threads/domains pair under the same machine weather *)
let specs ?(loads = loads) ?(ops_per_client = 150) ~seed () =
  List.concat_map
    (fun l ->
      List.concat_map
        (fun algo ->
          List.map
            (fun backend ->
              (l, spec_of ~backend ~algo ~ops_per_client ~seed l))
            backends)
        algos)
    loads

let smoke_specs ~seed () = specs ~loads:smoke_loads ~ops_per_client:25 ~seed ()

type row = { load : load; outcome : Live_bench.outcome }

let run ?sink ?(reps = 1) pairs =
  let outs =
    Live_bench.run_reps ~reps ?sink
      ~by:(fun o -> o.Live_bench.throughput)
      (List.map snd pairs)
  in
  List.map2 (fun (l, _) o -> { load = l; outcome = o }) pairs outs

let clean rows = List.for_all (fun r -> Live_bench.clean r.outcome) rows

(* --- reporting ---------------------------------------------------------- *)

let row_pp ppf r =
  let o = r.outcome in
  let s = o.Live_bench.spec in
  Fmt.pf ppf
    "%-10s %-7s %-6s f=%d n=%d k=%d: %7.0f ops/s p95=%.0fus space/server \
     %d cells %d B (total %d, formula %d)%s"
    (Live_bench.algo_name s.Live_bench.algo)
    (Transport.backend_name s.Live_bench.backend)
    r.load.label s.Live_bench.f s.Live_bench.n s.Live_bench.k
    o.Live_bench.throughput (Live_bench.pct o 0.95) o.Live_bench.space_cells
    o.Live_bench.space_bytes o.Live_bench.space_cells_total
    (formula_cells_total ~algo:s.Live_bench.algo r.load)
    (if Live_bench.clean o then "" else " DIRTY")

let row_json r =
  let o = r.outcome in
  let s = o.Live_bench.spec in
  Json.Obj
    [
      ("algo", Json.Str (Live_bench.algo_name s.Live_bench.algo));
      ("backend", Json.Str (Transport.backend_name s.Live_bench.backend));
      ("load", Json.Str r.load.label);
      ("writers", Json.Int s.Live_bench.k);
      ("readers", Json.Int s.Live_bench.readers);
      ("f", Json.Int s.Live_bench.f);
      ("n", Json.Int s.Live_bench.n);
      ("clients", Json.Int (s.Live_bench.k + s.Live_bench.readers));
      ("ops", Json.Int o.Live_bench.ops);
      ("ops_per_s", Json.Float o.Live_bench.throughput);
      ("latency_p50_us", Json.Float (Live_bench.pct o 0.50));
      ("latency_p95_us", Json.Float (Live_bench.pct o 0.95));
      ("space_resident_cells", Json.Int o.Live_bench.space_cells);
      ("space_resident_bytes", Json.Int o.Live_bench.space_bytes);
      ("space_cells_total", Json.Int o.Live_bench.space_cells_total);
      ( "space_formula_cells_total",
        Json.Int (formula_cells_total ~algo:s.Live_bench.algo r.load) );
      ( "ws_regular",
        Json.Str
          (Fmt.str "%a" Regemu_history.Ws_check.verdict_pp
             o.Live_bench.check.Checker.ws) );
      ("clean", Json.Bool (Live_bench.clean o));
    ]

let to_json ~seed ~smoke rows =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("seed", Json.Int seed);
      ("smoke", Json.Bool smoke);
      ("rows", Json.List (List.map row_json rows));
      ("clean", Json.Bool (clean rows));
    ]

(* --- validation (on write and on read-back) ------------------------------ *)

let backend_names = List.map Transport.backend_name backends

let validate_compare_json doc =
  let ( let* ) = Result.bind in
  let* () = Json.check_schema schema doc in
  let* rows = Json.get "rows" Json.to_list_opt doc in
  let* () = if rows = [] then Error "rows must be non-empty" else Ok () in
  let* cells =
    List.fold_left
      (fun acc r ->
        let* acc = acc in
        let* algo = Json.get "algo" (Json.to_enum_opt algo_names) r in
        let* backend = Json.get "backend" (Json.to_enum_opt backend_names) r in
        let* load = Json.get "load" Json.to_str_opt r in
        let* () =
          Json.each
            (fun k -> Result.map ignore (Json.get k Json.to_float_opt r))
            [
              "ops_per_s"; "latency_p50_us"; "latency_p95_us";
              "space_resident_cells"; "space_resident_bytes";
              "space_cells_total"; "space_formula_cells_total"; "f"; "n";
            ]
        in
        let* _ = Json.get "clean" Json.to_bool_opt r in
        Ok ((algo, backend, load) :: acc))
      (Ok []) rows
  in
  (* coverage: exactly one row per (algo × backend) for every load
     point present — a missing or duplicated cell is a schema error,
     not a dashboard surprise *)
  let loads = List.sort_uniq compare (List.map (fun (_, _, l) -> l) cells) in
  Json.each
    (fun ((algo, backend, load) as cell) ->
      match List.length (List.filter (( = ) cell) cells) with
      | 1 -> Ok ()
      | 0 -> Error (Fmt.str "missing row (%s, %s, %s)" algo backend load)
      | n ->
          Error (Fmt.str "%d duplicate rows (%s, %s, %s)" n algo backend load))
    (List.concat_map
       (fun load ->
         List.concat_map
           (fun algo -> List.map (fun b -> (algo, b, load)) backend_names)
           algo_names)
       loads)
