open Regemu_live
open Regemu_keyspace
module Json = Regemu_obs.Json

type gray = {
  base_us : int;
  straggler : (int * int) option;
  hedge_fires : bool;
}

type clients = { k : int; readers : int; ops_per_client : int }

type keyspace = {
  keys : int;
  zipf : float;
  arrival_rate : float;
  total_ops : int;
  window : int;
  write_fraction : float;
  deep_sample : int;
  budget_ops : int;
}

type load = Clients of clients | Keyspace of keyspace

type spec = {
  label : string;
  algo : Live_bench.algo;
  f : int;
  n : int;
  couriers : int;
  chaos : bool;
  reorder : bool;
  backend : Transport.backend;
  gray : gray option;
  seed : int;
  load : load;
}

let closed ?(backend = Transport.Threads) ~algo ~seed c =
  { label = ""; algo; f = 1; n = 3; couriers = 3; chaos = false;
    reorder = true; backend; gray = None; seed; load = Clients c }

let keyspace ?(backend = Transport.Threads) ~n ~f ~seed ks =
  { label = Fmt.str "zipf=%g" ks.zipf; algo = Live_bench.Abd; f; n;
    couriers = 2; chaos = false; reorder = true; backend; gray = None; seed;
    load = Keyspace ks }

let target s =
  match s.load with
  | Clients c -> (c.k + c.readers) * c.ops_per_client
  | Keyspace ks -> ks.total_ops

(* the paper-side prediction beside the measured [space_cells_total]:
   what each construction commits to holding, cluster-wide *)
let formula_cells_total s =
  match (s.load, s.algo) with
  | Keyspace _, _ -> None
  | Clients _, (Live_bench.Abd | Live_bench.Abd_wb) -> Some ((2 * s.f) + 1)
  | Clients c, Live_bench.Alg2 ->
      Some
        (Regemu_bounds.Formulas.register_upper_bound
           (Regemu_bounds.Params.make_exn ~k:c.k ~f:s.f ~n:s.n))
  | Clients c, Live_bench.Cds -> Some (c.k * ((2 * s.f) + 1))

(* [baseline] is the fault-free reference; the other two run under the
   straggler and differ only in whether the armed hedge ever fires, so
   [unhedged] is exactly the ablation the hedge must beat *)
let tail_arms s =
  match s.gray with
  | Some ({ straggler = Some _; _ } as g) ->
      let arm label g' = { s with label; gray = Some g' } in
      [
        arm "baseline" { g with straggler = None; hedge_fires = true };
        arm "unhedged" { g with hedge_fires = false };
        arm "hedged" { g with hedge_fires = true };
      ]
  | _ -> invalid_arg "Bench.tail_arms: the spec needs a gray straggler"

type latency = {
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
}

type verdict = Register of Checker.result | Keys of Checker.Stats.t

type row = {
  spec : spec;
  ops : int;
  failed : int;
  wall_s : float;
  ops_per_s : float;
  latency : latency option;
  max_lateness_s : float;
  stats : Cluster.stats;
  space_cells : int;
  space_bytes : int;
  space_cells_total : int;
  check : verdict;
}

let clean r =
  r.ops = target r.spec
  &&
  match (r.check, r.spec.load) with
  | Register c, _ -> Checker.ok c
  | Keys k, Keyspace ks ->
      k.violations = 0 && k.deep_mismatches = 0
      && k.max_resident_ops <= ks.budget_ops
  | Keys _, Clients _ -> false

let p99 r = match r.latency with Some l -> l.p99_us | None -> 0.0

let latency_of = function
  | [] -> None
  | ns ->
      let us x = float_of_int x /. 1e3 in
      let pcts = Regemu_sim.Stats.percentiles ns in
      let pct p = us (List.assoc p pcts) in
      Some
        {
          mean_us =
            List.fold_left (fun a l -> a +. us l) 0.0 ns
            /. float_of_int (List.length ns);
          p50_us = pct 0.50;
          p95_us = pct 0.95;
          p99_us = pct 0.99;
        }

let run ?(sink = Sink.none) s =
  Option.iter
    (fun g ->
      match g.straggler with
      | _ when g.base_us < 0 -> invalid_arg "Bench: negative base_us"
      | Some (srv, us) when srv < 0 || srv >= s.n || us < g.base_us ->
          invalid_arg
            "Bench: the straggler needs a server in [0, n) and a delay >= \
             base_us"
      | _ -> ())
    s.gray;
  (match (s.load, s.algo) with
  | Keyspace _, (Live_bench.Abd_wb | Live_bench.Alg2 | Live_bench.Cds) ->
      invalid_arg "Bench: a keyspace load runs keyed ABD only"
  | _ -> ());
  let chaos p = if s.chaos then p else 0.0 in
  let cluster =
    Cluster.create ~sink
      {
        Cluster.n = s.n;
        transport =
          {
            Transport.couriers = s.couriers;
            delay_prob = chaos 0.05;
            max_delay_us = (if s.chaos then 500 else 0);
            dup_prob = chaos 0.05;
            drop_prob = chaos 0.03;
            reorder = s.reorder;
            backend = s.backend;
            seed = s.seed;
          };
        op_timeout_s = 30.0;
        recovery = Recovery.Persist;
        retry = Some Retry.default_config;
        hedge =
          Option.map
            (fun g -> { Hedge.default_config with fire = g.hedge_fires })
            s.gray;
        deadline = Option.map (fun _ -> Deadline.default_config) s.gray;
      }
  in
  (* start the cluster, slow the gray links, then time [load] with the
     fault injector running; the injector is stopped even if [load]
     raises *)
  let timed load =
    Cluster.start cluster;
    Option.iter
      (fun g ->
        for server = 0 to s.n - 1 do
          Cluster.set_slow cluster ~server g.base_us
        done;
        Option.iter
          (fun (server, us) -> Cluster.set_slow cluster ~server us)
          g.straggler)
      s.gray;
    let injector =
      if s.chaos then
        Some
          (Fault.spawn cluster
             (Fault.default_config ~f:s.f ~pool:s.n ~seed:(s.seed + 1)))
      else None
    in
    let t0 = Clock.now_s () in
    Fun.protect
      ~finally:(fun () -> Option.iter Fault.stop injector)
      (fun () ->
        let r = load () in
        (r, Clock.now_s () -. t0))
  in
  let measured =
    try
      Ok
        (match s.load with
        | Clients c ->
            let clients m = List.init m (fun _ -> Cluster.new_client cluster) in
            let writers = clients c.k and readers = clients c.readers in
            let write, read =
              Live_bench.emulation s.algo cluster ~f:s.f ~writers
            in
            (* atomicity is promised by the write-back variant only,
               and the brute force wants a write-sequential history *)
            let checker =
              Checker.spawn cluster ~interval_s:0.01
                ~final_atomic:(s.algo = Live_bench.Abd_wb && c.k = 1)
                ~retain:(target s) ()
            in
            let failed, wall_s =
              timed (fun () ->
                  Load.run ~write ~read ~writers ~readers
                    ~ops_per_client:c.ops_per_client)
            in
            let check = Checker.stop checker in
            let lats = Checker.latencies_ns checker in
            ( failed, wall_s, 0.0, Register check,
              latency_of (Option.value ~default:[] lats) )
        | Keyspace ks ->
            let kspace = Kspace.create cluster ~f:s.f () in
            let checker =
              Kchecker.spawn ~sink
                ~config:
                  {
                    Kchecker.interval_s = 0.005;
                    deep_sample = ks.deep_sample;
                    deep_cap = 4096;
                  }
                (Kspace.klog kspace)
            in
            let o, wall_s =
              timed (fun () ->
                  Openload.run kspace
                    {
                      Openload.keys = ks.keys;
                      zipf = ks.zipf;
                      arrival_rate = ks.arrival_rate;
                      total_ops = ks.total_ops;
                      window = ks.window;
                      write_fraction = ks.write_fraction;
                      seed = s.seed;
                    })
            in
            let check = Kchecker.stop checker in
            ( o.Openload.failed, wall_s, o.Openload.max_lateness_s,
              Keys check, None ))
    with e -> Error e
  in
  (* counted once the transport has stopped and every server and courier
     is joined, so no late delivery lands after these reads; the stores
     survive shutdown and only grow within a run, so this space read is
     race-free and the run's peak *)
  Cluster.shutdown cluster;
  let stats = Cluster.stats cluster in
  let space_cells, space_bytes, space_cells_total =
    Cluster.resident_space cluster
  in
  match measured with
  | Error e -> raise e
  | Ok (failed, wall_s, max_lateness_s, check, latency) ->
      let ops = stats.Cluster.ops_completed in
      {
        spec = s;
        ops;
        failed;
        wall_s;
        ops_per_s =
          (if wall_s > 0.0 then float_of_int ops /. wall_s else 0.0);
        latency;
        max_lateness_s;
        stats;
        space_cells;
        space_bytes;
        space_cells_total;
        check;
      }

(* Thread-pipeline throughput and p99 are noisy (easily ±30% run to
   run), so a point is the median of [reps] runs, kept whole: its
   percentiles belong to the run whose key is reported.  The list runs
   round-robin, so a machine stall poisons one pass of every point
   rather than every rep of one. *)
let run_reps ?(reps = 1) ?sink ~by specs =
  if reps < 1 then invalid_arg "Bench.run_reps: reps must be >= 1";
  let rounds =
    List.init reps (fun i ->
        List.map
          (fun s -> run ?sink { s with seed = s.seed + (1000 * i) })
          specs)
  in
  List.mapi
    (fun i spec ->
      let rs = List.map (fun round -> List.nth round i) rounds in
      let r =
        match List.find_opt (fun r -> not (clean r)) rs with
        | Some bad -> bad
        | None ->
            List.nth
              (List.sort (fun a b -> Float.compare (by a) (by b)) rs)
              (reps / 2)
      in
      { r with spec })
    specs

(* --- reporting ------------------------------------------------------------ *)

let verdict_pp ppf = function
  | Register c -> Checker.result_pp ppf c
  | Keys k ->
      Fmt.pf ppf
        "%d reads checked, %d violations, %d deep mismatches, resident <= %d"
        k.checks k.violations k.deep_mismatches k.max_resident_ops

let row_pp ppf r =
  let s = r.spec in
  let st = r.stats in
  Fmt.pf ppf
    "%-10s %-7s %-10s f=%d n=%d: %d ops (%d failed) in %.3fs (%.0f ops/s)%a; \
     %d msgs (%d dup, %d dropped, %d slowed), %d retries, %d unavailable, \
     %d hedges, %d threads started; space %d cells (%d B) per server, %d \
     total%a; %a%s"
    (Live_bench.algo_name s.algo)
    (Transport.backend_name s.backend)
    s.label s.f s.n r.ops r.failed r.wall_s r.ops_per_s
    Fmt.(
      option (fun ppf l ->
          pf ppf ", latency µs mean=%.0f p50=%.0f p95=%.0f p99=%.0f" l.mean_us
            l.p50_us l.p95_us l.p99_us))
    r.latency st.Cluster.msgs_sent st.Cluster.msgs_duplicated
    st.Cluster.msgs_dropped st.Cluster.msgs_slowed st.Cluster.retries
    st.Cluster.unavailable st.Cluster.hedges st.Cluster.threads_started
    r.space_cells r.space_bytes r.space_cells_total
    Fmt.(option (fun ppf c -> pf ppf " (formula %d)" c))
    (formula_cells_total s) verdict_pp r.check
    (if clean r then "" else " DIRTY")

let row_json r =
  let s = r.spec in
  let st = r.stats in
  let int k v = (k, Json.Int v) in
  let num k v = (k, Json.Float v) in
  let opt f = function None -> Json.Null | Some v -> f v in
  let lat k f = (k, opt (fun l -> Json.Float (f l)) r.latency) in
  let load =
    match s.load with
    | Clients c ->
        [
          int "writers" c.k;
          int "readers" c.readers;
          int "clients" (c.k + c.readers);
          int "ops_per_client" c.ops_per_client;
        ]
    | Keyspace ks ->
        [
          int "keys" ks.keys; num "zipf" ks.zipf;
          num "arrival_rate" ks.arrival_rate; int "total_ops" ks.total_ops;
          int "window" ks.window; num "write_fraction" ks.write_fraction;
          int "deep_sample" ks.deep_sample; int "budget_ops" ks.budget_ops;
        ]
  in
  let gray g =
    Json.Obj
      [
        int "base_us" g.base_us;
        ("straggler_server", opt (fun (srv, _) -> Json.Int srv) g.straggler);
        ("straggler_us", opt (fun (_, us) -> Json.Int us) g.straggler);
        ("hedge_fires", Json.Bool g.hedge_fires);
      ]
  in
  let check =
    match r.check with
    | Register c ->
        [
          int "checker_passes" c.Checker.checks;
          int "violations"
            (match c.Checker.ws with
            | Regemu_history.Ws_check.Violated _ -> 1
            | Holds | Vacuous -> 0);
          ( "ws_regular",
            Json.Str (Fmt.str "%a" Regemu_history.Ws_check.verdict_pp c.ws) );
          ("atomic", opt (fun b -> Json.Bool b) c.atomic);
        ]
    | Keys k ->
        [
          int "reads_checked" k.checks; int "violations" k.violations;
          int "settled_writes" k.settled_writes;
          int "resident_ops" k.max_resident_ops; int "deep_keys" k.deep_keys;
          int "deep_mismatches" k.deep_mismatches;
        ]
  in
  Json.Obj
    ([
       ("label", Json.Str s.label);
       ("algo", Json.Str (Live_bench.algo_name s.algo));
       ("backend", Json.Str (Transport.backend_name s.backend));
       int "f" s.f; int "n" s.n; int "couriers" s.couriers;
       ("chaos", Json.Bool s.chaos); ("reorder", Json.Bool s.reorder);
       ("gray", opt gray s.gray); int "seed" s.seed;
     ]
    @ load
    @ [
        int "ops" r.ops; int "failed" r.failed; num "wall_s" r.wall_s;
        num "ops_per_s" r.ops_per_s;
        lat "latency_mean_us" (fun l -> l.mean_us);
        lat "latency_p50_us" (fun l -> l.p50_us);
        lat "latency_p95_us" (fun l -> l.p95_us);
        lat "latency_p99_us" (fun l -> l.p99_us);
        num "max_lateness_s" r.max_lateness_s;
        int "msgs_sent" st.Cluster.msgs_sent;
        int "msgs_delivered" st.Cluster.msgs_delivered;
        int "msgs_duplicated" st.Cluster.msgs_duplicated;
        int "msgs_delayed" st.Cluster.msgs_delayed;
        int "msgs_slowed" st.Cluster.msgs_slowed;
        int "msgs_dropped" st.Cluster.msgs_dropped;
        int "msgs_cut" st.Cluster.msgs_cut; int "crashes" st.Cluster.crashes;
        int "restarts" st.Cluster.restarts; int "retries" st.Cluster.retries;
        int "unavailable" st.Cluster.unavailable;
        int "hedges" st.Cluster.hedges;
        int "hedge_wins" st.Cluster.hedge_wins;
        int "inline_steps" st.Cluster.inline_steps;
        int "threads_started" st.Cluster.threads_started;
        int "space_resident_cells" r.space_cells;
        int "space_resident_bytes" r.space_bytes;
        int "space_cells_total" r.space_cells_total;
        ( "space_formula_cells_total",
          opt (fun c -> Json.Int c) (formula_cells_total s) );
      ]
    @ check
    @ [ ("clean", Json.Bool (clean r)) ])

(* --- the documents ------------------------------------------------------- *)

type document = {
  name : string;
  doc : string;
  file : string option;
  full : spec list;
  smoke : spec list;
  reps : int;
  by : row -> float;
  summary : row list -> (string * Json.t) list;
  check : Json.t list -> (unit, string) result;
}

let ( let* ) = Result.bind
let str k r = Option.bind (Json.member k r) Json.to_str_opt
let obj = function Json.Obj _ as o -> Some o | _ -> None

(* [conv] where [ok] holds *)
let such conv ok j =
  Option.bind (conv j) (fun x -> if ok x then Some x else None)

let num_or_null = function
  | Json.Null -> Some ()
  | j -> Option.map ignore (Json.to_float_opt j)

(* the three constructions, one write path each: ABD's write-back
   variant occupies the same space as ABD *)
let protocols = [ Live_bench.Abd; Live_bench.Alg2; Live_bench.Cds ]

let no_summary _ = []
let no_check _ = Ok ()

(* peak-pipeline mode: no transport reordering, as in every throughput
   sweep; chaos and correctness runs keep it *)
let sweep ?backend ~algo ~clients ~ops () =
  {
    (closed ?backend ~algo ~seed:42
       { k = 1; readers = clients - 1; ops_per_client = ops })
    with
    label = Fmt.str "clients=%d" clients;
    reorder = false;
  }

(* The full sweep is the backend A/B: ABD at each client count on every
   backend, backends adjacent in the run order so each pair is measured
   under the same machine weather; the smoke is threads only. *)
let saturate =
  {
    name = "saturate";
    doc =
      "Saturation sweep on a quiet non-reordering transport: ABD at 16..256 \
       clients on the threads and socket fabrics interleaved, median of 3 \
       by throughput, with the socket fabric's speedup over threads.";
    file = Some "BENCH_live.json";
    full =
      List.concat_map
        (fun clients ->
          List.map
            (fun backend ->
              sweep ~backend ~algo:Live_bench.Abd ~clients ~ops:200 ())
            Transport.backends)
        [ 16; 32; 64; 128; 256 ];
    smoke =
      List.concat_map
        (fun algo ->
          List.map (fun clients -> sweep ~algo ~clients ~ops:40 ()) [ 2; 4 ])
        protocols;
    reps = 3;
    by = (fun r -> r.ops_per_s);
    summary =
      (fun rows ->
        let threads r =
          List.find_opt
            (fun t ->
              t.spec.backend = Transport.Threads
              && t.spec.algo = r.spec.algo && t.spec.label = r.spec.label)
            rows
        in
        [
          ( "speedup_vs_threads",
            Json.Obj
              (List.filter_map
                 (fun r ->
                   match threads r with
                   | Some t
                     when r.spec.backend <> Transport.Threads
                          && t.ops_per_s > 0.0 ->
                       Some
                         ( Fmt.str "%s/%s/%s"
                             (Transport.backend_name r.spec.backend)
                             (Live_bench.algo_name r.spec.algo)
                             r.spec.label,
                           Json.Float (r.ops_per_s /. t.ops_per_s) )
                   | _ -> None)
                 rows) );
        ]);
    check = no_check;
  }

(* ABD under a single 10x gray straggler: every link carries a 1 ms
   floor, the straggler 10 ms *)
let tail_spec ~ops =
  {
    (closed ~algo:Live_bench.Abd ~seed:42
       { k = 1; readers = 3; ops_per_client = ops })
    with
    gray =
      Some
        { base_us = 1_000; straggler = Some (2, 10_000); hedge_fires = true };
  }

let tail =
  let full = tail_arms (tail_spec ~ops:120) in
  {
    name = "tail";
    doc =
      "Tail-latency A/B under one 10x gray straggler: baseline, unhedged and \
       hedged arms, median of 5 by p99, with hedged p99 over fault-free p99.";
    file = Some "BENCH_tail.json";
    full;
    smoke = tail_arms (tail_spec ~ops:25);
    reps = 5;
    by = p99;
    summary =
      (fun rows ->
        let arm l = List.find_opt (fun r -> r.spec.label = l) rows in
        match (arm "baseline", arm "hedged") with
        | Some b, Some h when p99 b > 0.0 ->
            [ ("hedged_p99_over_baseline_p99", Json.Float (p99 h /. p99 b)) ]
        | _ -> []);
    check =
      (fun rows ->
        if List.map (str "label") rows = List.map (fun s -> Some s.label) full
        then Ok ()
        else Error "tail rows must be tail_arms' arms, in their order");
  }

(* Two load points that pull the three constructions' space apart: at
   k = 1 all three hold one cell per server.  Threads only: the socket
   backend's stores live in child processes no space read can see. *)
let compare_specs ~ops loads =
  List.concat_map
    (fun (label, k, readers, f, n) ->
      List.map
        (fun algo ->
          {
            (closed ~algo ~seed:42 { k; readers; ops_per_client = ops }) with
            label;
            f;
            n;
            reorder = false;
          })
        protocols)
    loads

let compare_doc =
  {
    name = "compare";
    doc =
      "ABD, Algorithm 2 and the CDS data store at the same load points on the \
       threads fabric: measured resident cells beside each construction's \
       formula, throughput and latency, median of 3 by throughput.";
    file = Some "BENCH_compare.json";
    full =
      compare_specs ~ops:150 [ ("k2-f1", 2, 4, 1, 5); ("k6-f2", 6, 6, 2, 7) ];
    smoke = compare_specs ~ops:25 [ ("k2-f1", 2, 2, 1, 5) ];
    reps = 3;
    by = (fun r -> r.ops_per_s);
    summary = no_summary;
    check =
      (fun rows ->
        let threads = Transport.backend_name Transport.Threads in
        let* () =
          Json.each
            (fun r ->
              let* () =
                if str "backend" r = Some threads then Ok ()
                else Error "compare rows run on the threads backend only"
              in
              (* the measured space beside the paper's formula is what
                 this document is for *)
              Json.each
                (fun k -> Result.map ignore (Json.get k Json.to_int_opt r))
                [ "space_cells_total"; "space_formula_cells_total" ])
            rows
        in
        let field k r = Option.value ~default:"" (str k r) in
        let cells =
          List.map (fun r -> (field "algo" r, field "label" r)) rows
        in
        (* exactly one row per algorithm at every load point present *)
        Json.each
          (fun ((algo, label) as cell) ->
            match List.length (List.filter (( = ) cell) cells) with
            | 1 -> Ok ()
            | c -> Error (Fmt.str "%d rows for %s at %s" c algo label))
          (List.concat_map
             (fun label ->
               List.map (fun a -> (Live_bench.algo_name a, label)) protocols)
             (List.sort_uniq compare (List.map snd cells))));
  }

let keyspace_load ~keys ~rate ~ops ~window ~deep ~budget zipf =
  {
    keys;
    zipf;
    arrival_rate = rate;
    total_ops = ops;
    window;
    write_fraction = 0.5;
    deep_sample = deep;
    budget_ops = budget;
  }

let skews = [ 0.0; 0.99; 1.2 ]

let keyspace_doc =
  {
    name = "keyspace";
    doc =
      "Open-loop zipf load over 100k keys of keyed ABD, one run per skew, \
       with the memory-bounded checker held to its resident-op budget.";
    file = Some "BENCH_keyspace.json";
    full =
      List.map
        (fun z ->
          keyspace ~n:7 ~f:1 ~seed:42
            (keyspace_load ~keys:100_000 ~rate:50_000.0 ~ops:400_000 ~window:16
               ~deep:512 ~budget:50_000 z))
        skews;
    smoke =
      List.map
        (fun z ->
          keyspace ~n:5 ~f:1 ~seed:7
            (keyspace_load ~keys:128 ~rate:20_000.0 ~ops:600 ~window:4 ~deep:8
               ~budget:4_096 z))
        skews;
    reps = 1;
    by = (fun r -> r.ops_per_s);
    summary = no_summary;
    check =
      Json.each (fun r ->
          Result.map ignore
            (Json.get "budget_ops" (such Json.to_int_opt (fun b -> b > 0)) r));
  }

let suite =
  let run ?backend ~chaos ~ops algo seed =
    {
      (closed ?backend ~algo ~seed { k = 1; readers = 3; ops_per_client = ops })
      with
      label = (if chaos then "chaos" else "quiet");
      chaos;
    }
  in
  {
    name = "suite";
    doc =
      "Quiet and chaos runs of every protocol, each judged by the online \
       checker; the smoke also runs quiet on the socket fabric.";
    file = None;
    full =
      List.concat_map
        (fun algo ->
          List.map
            (fun chaos -> run ~chaos ~ops:150 algo 42)
            [ false; true ])
        Live_bench.[ Abd; Abd_wb; Alg2; Cds ];
    (* the socket smoke runs quiet: a killed child execs back with an
       empty store, and ABD under quorum-visible amnesia is not
       WS-regular, so a chaos run would rightly trip the checker *)
    smoke =
      List.concat_map
        (fun (backend, chaos) ->
          List.mapi
            (fun i a -> run ~backend ~chaos ~ops:40 a (42 + i))
            protocols)
        [ (Transport.Threads, true); (Transport.Socket, false) ];
    reps = 1;
    by = (fun r -> r.ops_per_s);
    summary = no_summary;
    check = no_check;
  }

let documents = [ saturate; tail; compare_doc; keyspace_doc; suite ]
let document name = List.find (fun d -> d.name = name) documents

(* --- the envelope --------------------------------------------------------- *)

let schema = "regemu-bench/3"

(* the first line [git args] prints, [None] if git fails *)
let git args =
  match Unix.open_process_in ("git " ^ args ^ " 2>/dev/null") with
  | exception Unix.Unix_error _ -> None
  | ic -> (
      let line = In_channel.input_line ic in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> Some (Option.value ~default:"" line)
      | _ -> None)

(* [-dirty] when a tracked file differs from the commit; the committed
   documents do not count, since [make bench] rewrites them in turn *)
let commit () =
  match git "rev-parse --short=12 HEAD" with
  | Some c when c <> "" -> (
      match
        git
          "status --porcelain --untracked-files=no -- ':/' \
           ':(top,exclude)BENCH_*.json'"
      with
      | Some "" -> c
      | _ -> c ^ "-dirty")
  | _ -> "unknown"

let to_json d rows =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("doc", Json.Str d.name);
      ("commit", Json.Str (commit ()));
      ( "machine",
        Json.Obj
          [
            ("nproc", Json.Int (Domain.recommended_domain_count ()));
            ("ocaml", Json.Str Sys.ocaml_version);
          ] );
      ("rows", Json.List (List.map row_json rows));
      ("summary", Json.Obj (d.summary rows));
      ("clean", Json.Bool (List.for_all clean rows));
    ]

let validate_row r =
  let* _ = Json.get "label" Json.to_str_opt r in
  let* _ = Json.get "algo" (Json.to_enum_opt Live_bench.algo_names) r in
  let* _ =
    Json.get "backend"
      (Json.to_enum_opt (List.map Transport.backend_name Transport.backends))
      r
  in
  let* _ = Json.get "ops_per_s" Json.to_float_opt r in
  let* () =
    Json.each
      (fun k -> Json.get k num_or_null r)
      [
        "latency_mean_us"; "latency_p50_us"; "latency_p95_us"; "latency_p99_us";
      ]
  in
  let* () =
    Json.each
      (fun k -> Result.map ignore (Json.get k Json.to_int_opt r))
      [
        "ops"; "failed"; "retries"; "unavailable"; "threads_started";
        "inline_steps"; "violations";
      ]
  in
  Result.map ignore (Json.get "clean" Json.to_bool_opt r)

let validate doc =
  let* () = Json.check_schema schema doc in
  let* name =
    Json.get "doc" (Json.to_enum_opt (List.map (fun d -> d.name) documents)) doc
  in
  let* _ = Json.get "commit" (such Json.to_str_opt (( <> ) "")) doc in
  let* machine = Json.get "machine" obj doc in
  let* _ = Json.get "nproc" (such Json.to_int_opt (fun n -> n > 0)) machine in
  let* _ = Json.get "ocaml" Json.to_str_opt machine in
  let* rows = Json.get "rows" Json.to_list_opt doc in
  let* () = if rows = [] then Error "rows must be non-empty" else Ok () in
  let* () = Json.each validate_row rows in
  let* _ = Json.get "summary" obj doc in
  let* _ = Json.get "clean" Json.to_bool_opt doc in
  (document name).check rows
