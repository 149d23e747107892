open Regemu_live
module Json = Regemu_obs.Json

type spec = {
  n : int;
  f : int;
  keys : int;
  zipfs : float list;
  arrival_rate : float;
  total_ops : int;
  window : int;
  write_fraction : float;
  seed : int;
  deep_sample : int;
  budget_ops : int;
  backend : Transport.backend;
}

let default_spec =
  {
    n = 7;
    f = 1;
    keys = 100_000;
    zipfs = [ 0.0; 0.99; 1.2 ];
    arrival_rate = 50_000.0;
    total_ops = 400_000;
    window = 16;
    write_fraction = 0.5;
    seed = 42;
    deep_sample = 512;
    budget_ops = 50_000;
    backend = Transport.Threads;
  }

let smoke_spec =
  {
    n = 5;
    f = 1;
    keys = 128;
    zipfs = [ 0.0; 0.99; 1.2 ];
    arrival_rate = 20_000.0;
    total_ops = 600;
    window = 4;
    write_fraction = 0.5;
    seed = 7;
    deep_sample = 8;
    budget_ops = 4_096;
    backend = Transport.Threads;
  }

type skew_outcome = {
  zipf : float;
  ops_per_s : float;
  completed : int;
  failed : int;
  elapsed_s : float;
  max_lateness_s : float;
  checks : int;
  violations : int;
  settled_writes : int;
  max_resident_ops : int;
  within_budget : bool;
  server_cells_max : int;
  server_cells_total : int;
  deep_keys : int;
  deep_mismatches : int;
}

type outcome = { spec : spec; skews : skew_outcome list }

let run_skew ?(quiet = true) ?(sink = Sink.none) spec zipf =
  let cluster =
    let base = Cluster.default_config ~n:spec.n ~seed:spec.seed in
    Cluster.create ~sink
      {
        base with
        Cluster.transport =
          { base.Cluster.transport with Transport.backend = spec.backend };
      }
  in
  let ks = Kspace.create cluster ~f:spec.f () in
  Cluster.start cluster;
  let checker =
    Kchecker.spawn ~sink
      ~config:
        {
          Kchecker.interval_s = 0.005;
          deep_sample = spec.deep_sample;
          deep_cap = 4096;
        }
      (Kspace.klog ks)
  in
  let load =
    Openload.run ks
      {
        Openload.keys = spec.keys;
        zipf;
        arrival_rate = spec.arrival_rate;
        total_ops = spec.total_ops;
        window = spec.window;
        write_fraction = spec.write_fraction;
        seed = spec.seed;
      }
  in
  let chk = Kchecker.stop checker in
  let server_cells_max, server_cells_total = Kspace.server_cells ks in
  Cluster.shutdown cluster;
  let o =
    {
      zipf;
      ops_per_s = load.Openload.ops_per_s;
      completed = load.Openload.completed;
      failed = load.Openload.failed;
      elapsed_s = load.Openload.elapsed_s;
      max_lateness_s = load.Openload.max_lateness_s;
      checks = chk.Kchecker.checks;
      violations = chk.Kchecker.violations;
      settled_writes = chk.Kchecker.settled_writes;
      max_resident_ops = chk.Kchecker.max_resident_ops;
      within_budget = chk.Kchecker.max_resident_ops <= spec.budget_ops;
      server_cells_max;
      server_cells_total;
      deep_keys = chk.Kchecker.deep_keys;
      deep_mismatches = chk.Kchecker.deep_mismatches;
    }
  in
  if not quiet then
    Fmt.pr
      "zipf=%.2f: %.0f ops/s, %d completed, %d checks, %d violations, \
       resident<=%d (budget %d), cells max=%d total=%d@."
      zipf o.ops_per_s o.completed o.checks o.violations o.max_resident_ops
      spec.budget_ops server_cells_max server_cells_total;
  o

let run ?(quiet = true) ?(sink = Sink.none) spec =
  { spec; skews = List.map (run_skew ~quiet ~sink spec) spec.zipfs }

let schema = "regemu-keyspace/1"

let spec_json s =
  Json.Obj
    [
      (* the keyspace's per-key quorums are the keyed ABD construction *)
      ("algo", Json.Str (Live_bench.algo_name Live_bench.Abd));
      ("n", Json.Int s.n);
      ("f", Json.Int s.f);
      ("keys", Json.Int s.keys);
      ("arrival_rate", Json.Float s.arrival_rate);
      ("total_ops", Json.Int s.total_ops);
      ("window", Json.Int s.window);
      ("write_fraction", Json.Float s.write_fraction);
      ("seed", Json.Int s.seed);
      ("deep_sample", Json.Int s.deep_sample);
      ("budget_ops", Json.Int s.budget_ops);
      ("backend", Json.Str (Transport.backend_name s.backend));
    ]

let skew_json (o : skew_outcome) =
  Json.Obj
    [
      ("zipf", Json.Float o.zipf);
      ("ops_per_s", Json.Float o.ops_per_s);
      ("completed", Json.Int o.completed);
      ("failed", Json.Int o.failed);
      ("elapsed_s", Json.Float o.elapsed_s);
      ("max_lateness_s", Json.Float o.max_lateness_s);
      ("checks", Json.Int o.checks);
      ("violations", Json.Int o.violations);
      ("settled_writes", Json.Int o.settled_writes);
      ("max_resident_ops", Json.Int o.max_resident_ops);
      ("within_budget", Json.Bool o.within_budget);
      ("server_cells_max", Json.Int o.server_cells_max);
      ("server_cells_total", Json.Int o.server_cells_total);
      ("deep_keys", Json.Int o.deep_keys);
      ("deep_mismatches", Json.Int o.deep_mismatches);
    ]

let to_json o =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("spec", spec_json o.spec);
      ("skews", Json.List (List.map skew_json o.skews));
    ]

(* structural validation, PR 3 style: reject before persisting *)
let validate_keyspace_json doc =
  let ( let* ) = Result.bind in
  let err fmt = Fmt.kstr Result.error fmt in
  let* () = Json.check_schema schema doc in
  let* () =
    match Json.member "spec" doc with
    | Some (Json.Obj _ as s) -> (
        match
          ( Option.bind (Json.member "keys" s) Json.to_int_opt,
            Option.bind (Json.member "budget_ops" s) Json.to_int_opt )
        with
        | Some keys, Some budget when keys > 0 && budget > 0 -> (
            match
              Option.bind
                (Option.bind (Json.member "algo" s) Json.to_str_opt)
                Live_bench.algo_of_name
            with
            | Some _ -> Ok ()
            | None -> err "spec: missing or unknown algo")
        | _ -> err "spec: missing or non-positive keys/budget_ops")
    | _ -> err "missing spec object"
  in
  let* skews =
    match Option.bind (Json.member "skews" doc) Json.to_list_opt with
    | Some [] -> err "skews: empty"
    | Some l -> Ok l
    | None -> err "missing skews list"
  in
  let check_skew i sk =
    let int k = Option.bind (Json.member k sk) Json.to_int_opt in
    let flt k = Option.bind (Json.member k sk) Json.to_float_opt in
    let bol k = Option.bind (Json.member k sk) Json.to_bool_opt in
    match (flt "zipf", flt "ops_per_s", int "completed", int "checks") with
    | Some _, Some ops, Some completed, Some checks ->
        if ops < 0.0 || completed < 0 || checks < 0 then
          err "skews[%d]: negative measure" i
        else if int "violations" = None || int "max_resident_ops" = None then
          err "skews[%d]: missing checker fields" i
        else if bol "within_budget" = None then
          err "skews[%d]: missing within_budget" i
        else Ok ()
    | _ -> err "skews[%d]: missing zipf/ops_per_s/completed/checks" i
  in
  let rec go i = function
    | [] -> Ok ()
    | sk :: rest ->
        let* () = check_skew i sk in
        go (i + 1) rest
  in
  go 0 skews

let outcome_pp ppf o =
  Fmt.pf ppf "keyspace bench: n=%d f=%d keys=%d ops=%d window=%d" o.spec.n
    o.spec.f o.spec.keys o.spec.total_ops o.spec.window;
  List.iter
    (fun s ->
      Fmt.pf ppf
        "@.  zipf=%.2f  %8.0f ops/s  %d/%d ok  resident %d/%d %s  cells \
         max=%d total=%d  violations=%d"
        s.zipf s.ops_per_s s.completed (s.completed + s.failed)
        s.max_resident_ops o.spec.budget_ops
        (if s.within_budget then "(within budget)" else "(OVER BUDGET)")
        s.server_cells_max s.server_cells_total s.violations)
    o.skews
