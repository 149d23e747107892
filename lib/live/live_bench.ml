open Regemu_bounds
module Json = Regemu_obs.Json

type algo = Abd | Abd_wb | Alg2 | Cds

let algo_name = function
  | Abd -> "abd"
  | Abd_wb -> "abd-wb"
  | Alg2 -> "algorithm2"
  | Cds -> "cds"

let algo_names = List.map algo_name [ Abd; Abd_wb; Alg2; Cds ]

let algo_of_name = function
  | "abd" -> Some Abd
  | "abd-wb" -> Some Abd_wb
  | "algorithm2" | "alg2" -> Some Alg2
  | "cds" -> Some Cds
  | _ -> None

let emulation algo cluster ~f ~writers =
  match algo with
  | Abd | Abd_wb ->
      let abd =
        Abd_live.create cluster ~f ~write_back_reads:(algo = Abd_wb) ()
      in
      (Abd_live.write abd, Abd_live.read abd)
  | Alg2 ->
      let p =
        Params.make_exn ~k:(List.length writers) ~f
          ~n:(Cluster.num_servers cluster)
      in
      let alg2 = Alg2_live.create cluster p ~writers () in
      (Alg2_live.write alg2, Alg2_live.read alg2)
  | Cds ->
      let cds = Cds_live.create cluster ~f ~writers () in
      (Cds_live.write cds, Cds_live.read cds)

type gray = {
  base_us : int;
  straggler : (int * int) option;
  hedge_fires : bool;
}

type spec = {
  algo : algo;
  k : int;
  readers : int;
  f : int;
  n : int;
  ops_per_client : int;
  couriers : int;
  chaos : bool;
  reorder : bool;
  backend : Transport.backend;
  seed : int;
  gray : gray option;
}

let default_spec ?(backend = Transport.Threads) ~algo ~chaos ~seed () =
  { algo; k = 1; readers = 3; f = 1; n = 3; ops_per_client = 150;
    couriers = 3; chaos; reorder = true; backend; seed; gray = None }

type outcome = {
  spec : spec;
  ops : int;
  wall_s : float;
  throughput : float;
  mean_us : float;
  pcts_us : (float * float) list;
  msgs_sent : int;
  msgs_delivered : int;
  msgs_duplicated : int;
  msgs_delayed : int;
  msgs_dropped : int;
  msgs_cut : int;
  crashes : int;
  restarts : int;
  retries : int;
  unavailable : int;
  inline_steps : int;  (* requests stepped on their delivering thread *)
  hedges : int;
  hedge_wins : int;
  msgs_slowed : int;
  space_cells : int;  (* resident cells, max over servers, max over run *)
  space_bytes : int;  (* resident bytes likewise *)
  space_cells_total : int;  (* cluster-wide resident cells at the peak *)
  check : Checker.result;
}

let clean o =
  Checker.ok o.check
  && o.ops = (o.spec.k + o.spec.readers) * o.spec.ops_per_client

let pct o p = try List.assoc p o.pcts_us with Not_found -> 0.0

let outcome_pp ppf o =
  Fmt.pf ppf
    "%-10s %-7s %s k=%d readers=%d f=%d n=%d: %d ops in %.3fs (%.0f ops/s), \
     latency µs mean=%.0f %a; %d msgs (%d dup, %d delayed, %d dropped), %d \
     crashes / %d restarts, %d retries, %d unavailable; %a"
    (algo_name o.spec.algo)
    (Transport.backend_name o.spec.backend)
    (if o.spec.chaos then "chaos" else "quiet")
    o.spec.k o.spec.readers o.spec.f o.spec.n o.ops o.wall_s o.throughput
    o.mean_us
    Fmt.(
      list ~sep:(any " ") (fun ppf (p, v) ->
          Fmt.pf ppf "p%.0f=%.0f" (p *. 100.) v))
    o.pcts_us o.msgs_sent o.msgs_duplicated o.msgs_delayed o.msgs_dropped
    o.crashes o.restarts o.retries o.unavailable Checker.result_pp o.check

let run ?(sink = Sink.none) spec =
  Option.iter
    (fun g ->
      match g.straggler with
      | _ when g.base_us < 0 -> invalid_arg "Live_bench: negative base_us"
      | Some (srv, us) when srv < 0 || srv >= spec.n || us < g.base_us ->
          invalid_arg
            "Live_bench: the straggler needs a server in [0, n) and a delay \
             >= base_us"
      | _ -> ())
    spec.gray;
  let transport =
    {
      Transport.couriers = spec.couriers;
      delay_prob = (if spec.chaos then 0.05 else 0.0);
      max_delay_us = (if spec.chaos then 500 else 0);
      dup_prob = (if spec.chaos then 0.05 else 0.0);
      drop_prob = (if spec.chaos then 0.03 else 0.0);
      reorder = spec.reorder;
      sharded = true;
      backend = spec.backend;
      seed = spec.seed;
    }
  in
  let cluster =
    Cluster.create ~sink
      {
        Cluster.n = spec.n;
        transport;
        op_timeout_s = 30.0;
        recovery = Recovery.Persist;
        retry = Some Retry.default_config;
        (* a gray run arms the hedge/deadline machinery whether or not
           hedges fire, so subset selection and the adaptive deadline
           are held constant across a tail A/B's arms *)
        hedge =
          Option.map
            (fun g -> { Hedge.default_config with fire = g.hedge_fires })
            spec.gray;
        deadline = Option.map (fun _ -> Deadline.default_config) spec.gray;
      }
  in
  let writers = List.init spec.k (fun _ -> Cluster.new_client cluster) in
  let readers = List.init spec.readers (fun _ -> Cluster.new_client cluster) in
  let write, read = emulation spec.algo cluster ~f:spec.f ~writers in
  Cluster.start cluster;
  (* the gray injection: a uniform per-envelope delay on every link
     models the network floor, and the straggler gets its own *)
  Option.iter
    (fun g ->
      for server = 0 to spec.n - 1 do
        Cluster.set_slow cluster ~server g.base_us
      done;
      Option.iter
        (fun (server, us) -> Cluster.set_slow cluster ~server us)
        g.straggler)
    spec.gray;
  (* the space axis: sample resident cells/bytes through the run and
     keep the maxima.  Sampling is unsynchronised (a gauge, not an
     invariant) — a mid-rehash glance on the domains backend may throw,
     so each sample is best-effort; the final sample after the load
     drains is quiescent and authoritative for these monotone stores. *)
  let space = ref (0, 0, 0) in
  let sample_space () =
    try
      let c, b, tot = Cluster.resident_space cluster in
      let c0, b0, t0 = !space in
      space := (max c c0, max b b0, max tot t0)
    with _ -> ()
  in
  let sampling = Atomic.make true in
  let sampler =
    Thread.create
      (fun () ->
        while Atomic.get sampling do
          sample_space ();
          Thread.delay 0.005
        done)
      ()
  in
  (* atomicity is only promised by the write-back variant, and the
     brute-force checker needs a write-sequential-ish history: check it
     for single-writer write-back runs *)
  let checker =
    Checker.spawn cluster ~interval_s:0.01
      ~final_atomic:(spec.algo = Abd_wb && spec.k = 1)
      ()
  in
  let injector =
    if spec.chaos then
      Some
        (Fault.spawn cluster
           (Fault.default_config ~f:spec.f ~pool:spec.n ~seed:(spec.seed + 1)))
    else None
  in
  let t0 = Clock.now_s () in
  (* failed ops leave [ops] short of the target, which [clean] sees *)
  let result =
    try
      ignore
        (Load.run ~write ~read ~writers ~readers
           ~ops_per_client:spec.ops_per_client);
      Ok ()
    with e -> Error e
  in
  let wall_s = Clock.now_s () -. t0 in
  Option.iter Fault.stop injector;
  Atomic.set sampling false;
  Thread.join sampler;
  sample_space ();
  let space_cells, space_bytes, space_cells_total = !space in
  let check = Checker.stop checker in
  let stats = Cluster.stats cluster in
  let lats = Cluster.latencies_ns cluster in
  Cluster.shutdown cluster;
  (match result with Ok () -> () | Error e -> raise e);
  let ops = stats.Cluster.ops_completed in
  let mean_us =
    match lats with
    | [] -> 0.0
    | _ ->
        List.fold_left (fun a l -> a +. float_of_int l) 0.0 lats
        /. float_of_int (List.length lats) /. 1e3
  in
  {
    spec;
    ops;
    wall_s;
    throughput = (if wall_s > 0.0 then float_of_int ops /. wall_s else 0.0);
    mean_us;
    pcts_us =
      List.map
        (fun (p, ns) -> (p, float_of_int ns /. 1e3))
        (Regemu_sim.Stats.percentiles lats);
    msgs_sent = stats.Cluster.msgs_sent;
    msgs_delivered = stats.Cluster.msgs_delivered;
    msgs_duplicated = stats.Cluster.msgs_duplicated;
    msgs_delayed = stats.Cluster.msgs_delayed;
    msgs_dropped = stats.Cluster.msgs_dropped;
    msgs_cut = stats.Cluster.msgs_cut;
    crashes = stats.Cluster.crashes;
    restarts = stats.Cluster.restarts;
    retries = stats.Cluster.retries;
    unavailable = stats.Cluster.unavailable;
    inline_steps = stats.Cluster.inline_steps;
    hedges = stats.Cluster.hedges;
    hedge_wins = stats.Cluster.hedge_wins;
    msgs_slowed = stats.Cluster.msgs_slowed;
    space_cells;
    space_bytes;
    space_cells_total;
    check;
  }

(* Single-core thread-pipeline throughput and p99 are noisy (scheduler
   and machine-neighbour effects, easily ±30% run to run), so a point
   is the median of [reps] runs, kept whole: its percentiles belong to
   the run whose key is reported.  The list runs round-robin, so a
   machine stall of a few seconds poisons one pass of every point
   rather than every rep of one; rep [i] runs at [seed + 1000 i], so
   the reps are independent samples. *)
let run_reps ?(reps = 1) ?sink ~by specs =
  if reps < 1 then invalid_arg "Live_bench.run_reps: reps must be >= 1";
  let rounds =
    List.init reps (fun i ->
        List.map
          (fun s -> run ?sink { s with seed = s.seed + (1000 * i) })
          specs)
  in
  List.mapi
    (fun i spec ->
      let outs = List.map (fun round -> List.nth round i) rounds in
      (* any dirty rep disqualifies the point: surface it so [clean]
         reports the failure rather than a lucky median *)
      let o =
        match List.find_opt (fun o -> not (clean o)) outs with
        | Some bad -> bad
        | None ->
            List.nth
              (List.sort (fun a b -> Float.compare (by a) (by b)) outs)
              (reps / 2)
      in
      { o with spec })
    specs

let suite ?(ops_per_client = 150) ~seed () =
  List.concat_map
    (fun algo ->
      List.map
        (fun chaos ->
          { (default_spec ~algo ~chaos ~seed ()) with ops_per_client })
        [ false; true ])
    [ Abd; Abd_wb; Alg2; Cds ]

(* The socket smoke runs quiet: a killed child execs back with an empty
   store whatever the recovery mode, and ABD under quorum-visible
   amnesia is not WS-regular — a chaos run would (correctly) trip the
   checker.  The other backends keep the crash/restart chaos. *)
let smoke_suite ?(backend = Transport.Threads) () =
  let chaos = backend <> Transport.Socket in
  [
    {
      (default_spec ~backend ~algo:Abd ~chaos ~seed:42 ()) with
      ops_per_client = 40;
    };
    {
      (default_spec ~backend ~algo:Alg2 ~chaos ~seed:43 ()) with
      ops_per_client = 40;
    };
    {
      (default_spec ~backend ~algo:Cds ~chaos ~seed:44 ()) with
      ops_per_client = 40;
    };
  ]

let spec_json s =
  Json.Obj
    [
      ("algo", Json.Str (algo_name s.algo));
      ("writers", Json.Int s.k);
      ("readers", Json.Int s.readers);
      ("f", Json.Int s.f);
      ("n", Json.Int s.n);
      ("ops_per_client", Json.Int s.ops_per_client);
      ("couriers", Json.Int s.couriers);
      ("chaos", Json.Bool s.chaos);
      ("reorder", Json.Bool s.reorder);
      ("backend", Json.Str (Transport.backend_name s.backend));
      ("seed", Json.Int s.seed);
    ]

let outcome_json o =
  let pct name p = (name, Json.Float (pct o p)) in
  Json.Obj
    [
      ("spec", spec_json o.spec);
      ("ops", Json.Int o.ops);
      ("wall_s", Json.Float o.wall_s);
      ("ops_per_s", Json.Float o.throughput);
      ("latency_mean_us", Json.Float o.mean_us);
      pct "latency_p50_us" 0.50;
      pct "latency_p95_us" 0.95;
      pct "latency_p99_us" 0.99;
      ("msgs_sent", Json.Int o.msgs_sent);
      ("msgs_delivered", Json.Int o.msgs_delivered);
      ("msgs_duplicated", Json.Int o.msgs_duplicated);
      ("msgs_delayed", Json.Int o.msgs_delayed);
      ("msgs_dropped", Json.Int o.msgs_dropped);
      ("msgs_cut", Json.Int o.msgs_cut);
      ("crashes", Json.Int o.crashes);
      ("restarts", Json.Int o.restarts);
      ("retries", Json.Int o.retries);
      ("unavailable", Json.Int o.unavailable);
      ("inline_steps", Json.Int o.inline_steps);
      ("space_resident_cells", Json.Int o.space_cells);
      ("space_resident_bytes", Json.Int o.space_bytes);
      ("space_cells_total", Json.Int o.space_cells_total);
      ("online_checks", Json.Int o.check.Checker.checks);
      ( "ws_regular",
        Json.Str
          (Fmt.str "%a" Regemu_history.Ws_check.verdict_pp o.check.Checker.ws)
      );
      ( "atomic",
        match o.check.Checker.atomic with
        | None -> Json.Null
        | Some b -> Json.Bool b );
      ("clean", Json.Bool (clean o));
    ]

let to_json outcomes =
  Json.Obj
    [
      ("schema", Json.Str "regemu-live-bench/1");
      ("results", Json.List (List.map outcome_json outcomes));
    ]

(* --- saturation mode ---------------------------------------------------- *)

let saturate_spec ?(backend = Transport.Threads) ~algo ~clients
    ~ops_per_client ~seed () =
  if clients < 2 then invalid_arg "saturate: need at least 2 clients";
  {
    algo;
    k = 1;
    readers = clients - 1;
    f = 1;
    n = 3;
    ops_per_client;
    couriers = 3;
    chaos = false;
    (* peak-pipeline mode: no artificial reordering in the lanes —
       chaos and correctness suites keep reorder on *)
    reorder = false;
    backend;
    seed;
    gray = None;
  }

let saturate_clients = [ 2; 4; 8; 16 ]

let saturate_specs ?(backend = Transport.Threads) ?(clients = saturate_clients)
    ?(ops_per_client = 200) ~seed () =
  List.concat_map
    (fun algo ->
      List.map
        (fun c ->
          saturate_spec ~backend ~algo ~clients:c ~ops_per_client ~seed ())
        clients)
    [ Abd; Alg2; Cds ]

(* The head-to-head sweep: the same saturation point on every backend,
   backends adjacent in the run order (and the whole list round-robined
   by [run_reps]), so each threads/domains/socket triple is
   measured under the same machine weather. *)
let saturate_ab_clients = [ 16; 32; 64; 128; 256 ]

let saturate_ab_backends =
  [ Transport.Threads; Transport.Domains; Transport.Socket ]

let saturate_ab_specs ?(clients = saturate_ab_clients)
    ?(ops_per_client = 200) ~seed () =
  List.concat_map
    (fun c ->
      List.map
        (fun backend ->
          saturate_spec ~backend ~algo:Abd ~clients:c ~ops_per_client ~seed ())
        saturate_ab_backends)
    clients

(* Throughput of the pre-sharding runtime on the reference machine
   (same spec shape: quiet, reorder off, ops_per_client 200, seed 42),
   recorded before the lane rewrite so BENCH_live.json carries its own
   before/after evidence.  Each value is the median of repeated runs of
   the old binary, interleaved with runs of the new one on the same
   machine state — the single-core box drifts ±30% between sessions,
   and only interleaved medians make the speedup column meaningful.
   (algo, clients, ops/s.) *)
let seed_baseline_ops_s =
  [
    (Abd, 2, 14104.); (Abd, 4, 23420.); (Abd, 8, 28595.); (Abd, 16, 30275.);
    (Alg2, 2, 14220.); (Alg2, 4, 20270.); (Alg2, 8, 29999.);
    (Alg2, 16, 31118.);
  ]

let clients_of_spec s = s.k + s.readers

(* regemu-bench/2: the [backend] column arrives, the never-populated
   [r_square] column of /1 is gone (the live sweep has no regression
   fit; the micro-bench emitter in bench/main.ml, which does, stays on
   /1), and non-threads rows carry [speedup_vs_threads] against the
   same-algo same-clients threads row of the same document. *)
let saturate_json outcomes =
  let threads_row algo clients =
    List.find_opt
      (fun o ->
        o.spec.algo = algo
        && o.spec.backend = Transport.Threads
        && clients_of_spec o.spec = clients)
      outcomes
  in
  let bench o =
    let clients = clients_of_spec o.spec in
    let baseline =
      (* the pre-sharding baseline was recorded on the threaded
         runtime: it is only an apples-to-apples column there *)
      if o.spec.backend <> Transport.Threads then None
      else
        List.find_opt
          (fun (a, c, _) -> a = o.spec.algo && c = clients)
          seed_baseline_ops_s
    in
    Json.Obj
      ([
         ( "name",
           Json.Str
             (Fmt.str "saturate/%s/%s/clients=%d" (algo_name o.spec.algo)
                (Transport.backend_name o.spec.backend)
                clients) );
         ("measure", Json.Str "throughput");
         ("backend", Json.Str (Transport.backend_name o.spec.backend));
         (* ns per completed operation, the schema's canonical unit *)
         ( "ns_per_run",
           if o.throughput > 0.0 then Json.Float (1e9 /. o.throughput)
           else Json.Null );
         ("clients", Json.Int clients);
         ("ops", Json.Int o.ops);
         ("ops_per_s", Json.Float o.throughput);
         ("latency_p50_us", Json.Float (pct o 0.50));
         ("latency_p95_us", Json.Float (pct o 0.95));
         ("latency_p99_us", Json.Float (pct o 0.99));
         ("inline_steps", Json.Int o.inline_steps);
         ("space_resident_cells", Json.Int o.space_cells);
         ("space_resident_bytes", Json.Int o.space_bytes);
         ("clean", Json.Bool (clean o));
       ]
      @ (match
           if o.spec.backend = Transport.Threads then None
           else threads_row o.spec.algo clients
         with
        | None -> []
        | Some th ->
            [
              ( "speedup_vs_threads",
                if th.throughput > 0.0 then
                  Json.Float (o.throughput /. th.throughput)
                else Json.Null );
            ])
      @
      match baseline with
      | None -> []
      | Some (_, _, b) ->
          [
            ("baseline_ops_per_s", Json.Float b);
            ( "speedup",
              if b > 0.0 then Json.Float (o.throughput /. b) else Json.Null );
          ])
  in
  Json.Obj
    [
      ("schema", Json.Str "regemu-bench/2");
      ("benchmarks", Json.List (List.map bench outcomes));
    ]

let backend_names = List.map Transport.backend_name saturate_ab_backends
let ( let* ) = Result.bind

(* Structural check of the regemu-bench/2 document: catches a schema
   drift before a dashboard does.  /2 requires a valid [backend] on
   every row and rejects a lingering [r_square] (always null in /1,
   dropped rather than carried dead). *)
let validate_bench_json doc =
  let num_or_null = function
    | Json.Null -> Some ()
    | j -> Option.map ignore (Json.to_float_opt j)
  in
  let* () = Json.check_schema "regemu-bench/2" doc in
  let* rows = Json.get "benchmarks" Json.to_list_opt doc in
  Json.each
    (fun b ->
      let* _ = Json.get "name" Json.to_str_opt b in
      let* _ = Json.get "measure" Json.to_str_opt b in
      let* _ = Json.get "backend" (Json.to_enum_opt backend_names) b in
      let* () =
        if Option.is_some (Json.member "r_square" b) then
          Error "r_square was dropped in regemu-bench/2"
        else Ok ()
      in
      let* () = Json.get "ns_per_run" num_or_null b in
      if Option.is_some (Json.member "speedup_vs_threads" b) then
        Json.get "speedup_vs_threads" num_or_null b
      else Ok ())
    rows

let validate_live_json doc =
  let* () = Json.check_schema "regemu-live-bench/1" doc in
  let* results = Json.get "results" Json.to_list_opt doc in
  let* () = if results = [] then Error "results must be non-empty" else Ok () in
  Json.each
    (fun r ->
      let* spec =
        Json.get "spec" (function Json.Obj _ as s -> Some s | _ -> None) r
      in
      let* _ = Json.get "algo" (Json.to_enum_opt algo_names) spec in
      let* _ = Json.get "backend" (Json.to_enum_opt backend_names) spec in
      let* () =
        Json.each
          (fun k -> Result.map ignore (Json.get k Json.to_float_opt r))
          [ "ops_per_s"; "latency_p50_us"; "latency_p95_us"; "latency_p99_us" ]
      in
      Result.map ignore (Json.get "clean" Json.to_bool_opt r))
    results
