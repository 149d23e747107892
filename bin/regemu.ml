(* regemu — command-line front end for the register-emulation
   reproduction: run any experiment from the paper with chosen
   parameters, or drive an emulation through a workload and check its
   history. *)

open Cmdliner
open Regemu_bounds
open Regemu_harness
module Json = Regemu_obs.Json
module Bench = Regemu_bench.Bench

(* common args; the claim subcommands share their infos, each with its
   claim's own default *)
let k_info = Arg.info [ "k" ] ~doc:"Number of writers."
let f_info = Arg.info [ "f" ] ~doc:"Failure threshold."
let n_info = Arg.info [ "n" ] ~doc:"Number of servers."
let seed_info = Arg.info [ "seed" ] ~doc:"Deterministic RNG seed."
let algo_info = Arg.info [ "algo" ] ~doc:"Emulation algorithm."
let algo_conv = Arg.enum Regemu_baselines.Factories.all
let k_arg = Arg.(value & opt int 5 & k_info)
let f_arg = Arg.(value & opt int 2 & f_info)
let n_arg = Arg.(value & opt int 6 & n_info)
let seed_arg = Arg.(value & opt int 42 & seed_info)

let algo_arg =
  Arg.(value & opt algo_conv Regemu_core.Algorithm2.factory & algo_info)

(* [algo], when given, must also accept the parameters *)
let params_of ?algo k f n =
  let accepts p =
    match algo with
    | Some (a : Regemu_core.Emulation.factory) -> a.accepts p
    | None -> Ok ()
  in
  match Result.bind (Params.make ~k ~f ~n) (fun p -> Result.map (fun () -> p) (accepts p)) with
  | Ok p -> Ok p
  | Error e -> Error (`Msg ("invalid parameters: " ^ e))

let exit_of = function
  | Ok () -> 0
  | Error (`Msg m) ->
      Fmt.epr "error: %s@." m;
      1

(* --- the paper's artifacts: one subcommand per claim of the registry ---- *)

(* the shared settings [c] reads become its flags, with [c]'s defaults;
   the ones it does not read stay at those defaults *)
let claim_args (c : Claim.t) =
  let d = c.defaults in
  let opt flag kind default info =
    if List.mem flag c.reads then Arg.value (Arg.opt kind default info)
    else Term.const default
  in
  Term.(
    const (fun k f n seed algo -> { Claim.k; f; n; seed; algo })
    $ opt Claim.K Arg.int d.k k_info
    $ opt Claim.F Arg.int d.f f_info
    $ opt Claim.N Arg.int d.n n_info
    $ opt Claim.Seed Arg.int d.seed seed_info
    $ opt Claim.Algo algo_conv d.algo algo_info)

(* a bad k, f or n, or one the chosen --algo does not accept, is a usage
   error, reported before the claim runs (a claim that does not read n
   runs at n = 2f+1 or needs none) *)
let claim_cmds =
  List.map
    (fun (c : Claim.t) ->
      let run (a : Claim.args) =
        let n = if List.mem Claim.N c.reads then a.n else (2 * a.f) + 1 in
        let algo = if List.mem Claim.Algo c.reads then Some a.algo else None in
        match params_of ?algo a.k a.f n with
        | Ok _ -> Claim.run Format.std_formatter [ (c, a) ]
        | Error e -> exit_of (Error e)
      in
      Cmd.v (Cmd.info c.id ~doc:c.doc) Term.(const run $ claim_args c))
    Claim.all

let registry seed = List.map (fun c -> (c, Claim.with_seed seed c)) Claim.all

let all_cmd =
  let markdown =
    Arg.(
      value & flag
      & info [ "markdown" ]
          ~doc:"Render tables as markdown and text blocks as code blocks.")
  in
  let run seed markdown =
    Claim.run ~markdown Format.std_formatter (registry seed)
  in
  Cmd.v
    (Cmd.info "all"
       ~doc:
         "Reproduce every paper artifact and its verdict; exit 1 if any \
          claim fails.")
    Term.(const run $ seed_arg $ markdown)

let verify_cmd =
  let run seed =
    Claim.run ~verdicts_only:true Format.std_formatter (registry seed)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Check every claim of the paper and print one PASS/FAIL/not-checked \
          line per claim; exit 1 if any claim fails.")
    Term.(const run $ seed_arg)

let plan_cmd =
  let capacity =
    Arg.(
      value & opt int 4
      & info [ "capacity" ] ~doc:"Registers each server can store.")
  in
  let run k f n capacity =
    exit_of
      (Result.map
         (fun p ->
           Fmt.pr "emulating a %d-writer register, tolerating %d of %d \
                   servers crashing:@."
             p.Params.k p.Params.f p.Params.n;
           Fmt.pr "  with max-register or CAS servers: %d objects@."
             (Formulas.maxreg_bound p);
           Fmt.pr "  with plain registers: %d..%d objects (Theorems 1/3), \
                   z=%d writers per set@."
             (Formulas.register_lower_bound p)
             (Formulas.register_upper_bound p)
             (Formulas.z p);
           Fmt.pr "  per-server capacity %d needs at least %d servers \
                   (Theorem 7)@."
             capacity
             (Formulas.min_servers ~k:p.Params.k ~f:p.Params.f ~capacity);
           Fmt.pr "  extra servers stop helping at n=%d (cost %d)@."
             (Formulas.saturation_n ~k:p.Params.k ~f:p.Params.f)
             ((p.Params.k * p.Params.f) + p.Params.f + 1);
           let budget = capacity * p.Params.n in
           match Formulas.max_writers ~f:p.Params.f ~n:p.Params.n ~budget with
           | Some writers ->
               Fmt.pr
                 "  the cluster's total register budget (%d) supports at \
                  most %d writers@."
                 budget writers
           | None ->
               Fmt.pr
                 "  the cluster's total register budget (%d) supports no \
                  writer at all@."
                 budget)
         (params_of k f n))
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Capacity planning with the paper's bounds.")
    Term.(const run $ k_arg $ f_arg $ n_arg $ capacity)

(* --- run: drive an emulation through a workload ------------------------- *)

let fuzz_cmd =
  let runs =
    Arg.(value & opt int 50 & info [ "runs" ] ~doc:"Number of seeded runs.")
  in
  let scenario =
    Arg.(
      value
      & opt
          (enum
             [
               ("sequential", Regemu_workload.Fuzz.Sequential);
               ("concurrent", Regemu_workload.Fuzz.Concurrent_reads);
               ("chaos", Regemu_workload.Fuzz.Chaos);
             ])
          Regemu_workload.Fuzz.Concurrent_reads
      & info [ "scenario" ] ~doc:"Workload shape.")
  in
  let procrastinate =
    Arg.(
      value & flag
      & info [ "procrastinate" ]
          ~doc:
            "Hold ~40% of responses for 15 steps (the covering-adversary \
             pattern); finds bugs uniform schedules never hit.")
  in
  let run ({ Regemu_core.Emulation.name; _ } as factory) k f n runs scenario seed procrastinate =
    exit_of
      (Result.map
         (fun p ->
           let policy rng =
             if procrastinate then
               Regemu_sim.Policy.procrastinating rng ~hold_percent:40
                 ~hold_steps:15
             else Regemu_sim.Policy.uniform rng
           in
           let o =
             Regemu_workload.Fuzz.run factory p ~policy ~scenario ~runs ~seed
               ()
           in
           Fmt.pr "fuzz %s at %a (%a%s): %a@." name Params.pp p
             Regemu_workload.Fuzz.scenario_pp scenario
             (if procrastinate then ", procrastinating" else "")
             Regemu_workload.Fuzz.outcome_pp o;
           match o.first_bad_history with
           | Some h ->
               Fmt.pr "first violating run:@.%a@." Regemu_history.History.pp h
           | None -> ())
         (params_of ~algo:factory k f n))
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Run many seeded random schedules and tally checker verdicts.")
    Term.(
      const run $ algo_arg $ k_arg $ f_arg $ n_arg $ runs $ scenario $ seed_arg
      $ procrastinate)

let explore_cmd =
  let budget =
    Arg.(
      value & opt int 2_000_000
      & info [ "budget" ]
          ~doc:
            "Maximum events fired (sampling mode) or transitions executed \
             (--exhaustive) across all replays.")
  in
  let writes =
    Arg.(
      value & opt int 1
      & info [ "writes" ] ~doc:"One write per writer; writers = this count.")
  in
  let eager =
    Arg.(
      value & flag
      & info [ "eager" ]
          ~doc:"Invoke operations concurrently instead of sequentially.")
  in
  let crashes =
    Arg.(
      value & opt int 0
      & info [ "crashes" ]
          ~doc:"Also explore crash timings, up to this many crashes.")
  in
  let exhaustive_arg =
    Arg.(
      value & flag
      & info [ "exhaustive" ]
          ~doc:
            "Bounded-exhaustive search with dynamic partial-order reduction \
             instead of enumerating every enabled transition at every state: \
             backtrack points are planted only where two transitions \
             genuinely race, so the reduced search covers every \
             Mazurkiewicz trace class with far fewer executions.")
  in
  let ops_each_arg =
    Arg.(
      value & opt int 1
      & info [ "ops-each" ]
          ~doc:"Write operations per writer and reads per reader.")
  in
  let cert_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cert-out" ] ~docv:"FILE"
          ~doc:
            "With --exhaustive: write the regemu-cert/1 certificate (config, \
             transition counts, pruning ratio, verdict) to $(docv).")
  in
  let fuzz_cg_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuzz-cg" ] ~docv:"N"
          ~doc:
            "Coverage-guided schedule fuzzing: run $(docv) simulations of \
             the live DST stack, mutating branch-choice traces from a \
             corpus and keeping the ones that reach new schedule-edge \
             coverage or new schedule digests.")
  in
  let profile_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("quiet", Regemu_dst.Dst_fuzz.Quiet);
               ("chaos", Regemu_dst.Dst_fuzz.Chaos);
               ("hunt", Regemu_dst.Dst_fuzz.Hunt);
             ])
          Regemu_dst.Dst_fuzz.Quiet
      & info [ "profile" ]
          ~doc:"Fault profile for --fuzz-cg (as in $(b,regemu dst)).")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some dir) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Seed the --fuzz-cg corpus with the choice traces of every \
             regemu-dst/1 replay file in $(docv) (each is executed first).")
  in
  let readers_arg =
    Arg.(
      value & opt int 2
      & info [ "readers" ] ~doc:"Reader fibers for --fuzz-cg.")
  in
  let ops_arg =
    Arg.(
      value & opt int 8
      & info [ "ops" ] ~doc:"Operations per client fiber for --fuzz-cg.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the campaign report (regemu-cgfuzz/1 or regemu-cert/1) \
                to $(docv).")
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Bounded smoke suite (used by dune runtest): a tiny exhaustive \
             DPOR run whose certificate must round-trip and validate, plus \
             a 200-schedule coverage-guided burst on the quiet profile that \
             must find no violations.")
  in
  let live_algo_of_name = function
    | "algorithm2" -> Some Regemu_live.Live_bench.Alg2
    | "abd-max" | "abd-max-atomic" -> Some Regemu_live.Live_bench.Abd
    | _ -> None
  in
  let scenario_of factory p ~eager ~crashes ~ops_each =
    Regemu_mcheck.Explore.emulation_scenario factory p
      ~mode:
        (if eager then Regemu_mcheck.Explore.Eager
         else Regemu_mcheck.Explore.Sequential)
      ~crashes
      ~writer_ops:
        (List.init p.Params.k (fun i ->
             List.init ops_each (fun j ->
                 Regemu_objects.Value.Str (Fmt.str "v%d.%d" i j))))
      ~readers:1 ~reads_each:ops_each ()
  in
  let cert_config name p ~eager ~crashes ~ops_each ~budget =
    {
      Regemu_explore.Cert.algo = name;
      k = p.Params.k;
      f = p.Params.f;
      n = p.Params.n;
      mode = (if eager then "eager" else "sequential");
      writer_ops = List.init p.Params.k (fun _ -> ops_each);
      readers = 1;
      reads_each = ops_each;
      crashes;
      max_explored = budget;
    }
  in
  (* the search's cost, on stdout only: [fired] counts every transition
     fired, [replayed] of them the ones re-fired to rebuild a state in
     [replays] fresh runs, the rest are the explored ones the
     benchmark's transitions_per_cpu_s counts; [judged] of the [runs]
     terminal and stuck states had their history built and checked *)
  let timed_search f =
    let t0 = Sys.time () in
    let r = f () in
    (r, Sys.time () -. t0)
  in
  let print_search_cost ~cpu_s ~fired ~replays ~replayed ~judged ~runs =
    let per_s n = float_of_int n /. Float.max cpu_s 1e-6 in
    let explored = fired - replayed in
    Fmt.pr
      "search: %.3f CPU s, %.0f transitions_per_cpu_s (explored), %.0f \
       fired per CPU s, replayed/explored %.3f, %d replays of mean depth \
       %.1f, judged %d of %d histories@."
      cpu_s (per_s explored) (per_s fired)
      (float_of_int replayed /. float_of_int (max 1 explored))
      replays
      (float_of_int replayed /. float_of_int (max 1 replays))
      judged runs
  in
  let run_exhaustive ({ Regemu_core.Emulation.name; _ } as factory) p ~eager ~crashes ~ops_each ~budget
      ~cert_out ~json =
    let scenario = scenario_of factory p ~eager ~crashes ~ops_each in
    (* the naive baseline violates the pending-write invariants by
       design; keep the checks for the algorithms that promise them *)
    let check_invariants = name <> "naive-reg" in
    let stats, cpu_s =
      timed_search (fun () ->
          Regemu_mcheck.Dpor.run ~check_invariants scenario
            ~max_explored:budget)
    in
    Fmt.pr "explore --exhaustive %s at %a:@.%a@." name Params.pp p
      Regemu_mcheck.Dpor.stats_pp stats;
    let cert =
      Regemu_explore.Cert.make
        ~config:(cert_config name p ~eager ~crashes ~ops_each ~budget)
        stats
    in
    Fmt.pr "%a@." Regemu_explore.Cert.pp cert;
    print_search_cost ~cpu_s
      ~fired:(stats.explored + stats.replayed)
      ~replays:stats.replays ~replayed:stats.replayed ~judged:stats.judged
      ~runs:(stats.terminal_runs + stats.stuck_runs);
    let cert_json = Regemu_explore.Cert.to_json cert in
    List.iter
      (fun path ->
        Json.to_file path cert_json;
        Fmt.pr "wrote certificate to %s@." path)
      (List.filter_map Fun.id [ cert_out; json ]);
    match Regemu_explore.Cert.validate cert with
    | Error m ->
        Fmt.epr "error: certificate invalid: %s@." m;
        1
    | Ok () -> if cert.Regemu_explore.Cert.verdict = "violations-found" then 1 else 0
  in
  let load_corpus dir =
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.filter_map (fun f ->
           let path = Filename.concat dir f in
           match Regemu_dst.Dst_fuzz.read_replay path with
           | Ok spec ->
               Fmt.pr "corpus: %s (%d-entry trace)@." path
                 (Array.length spec.Regemu_dst.Dst_fuzz.r_choices);
               Some spec.Regemu_dst.Dst_fuzz.r_choices
           | Error m ->
               Fmt.epr "warning: skipping %s: %s@." path m;
               None)
  in
  let run_fuzz_cg name ~writers ~readers ~f ~n ~ops ~seed ~profile ~corpus
      ~budget ~json =
    match live_algo_of_name name with
    | None ->
        Fmt.epr
          "error: --fuzz-cg drives the live stack; use --algo algorithm2 or \
           --algo abd-max@.";
        1
    | Some algo ->
        let base =
          {
            (Regemu_dst.Dst.default_config ~seed) with
            Regemu_dst.Dst.algo;
            writers;
            readers;
            f;
            n;
            ops_per_client = ops;
          }
        in
        let init = match corpus with None -> [] | Some d -> load_corpus d in
        let report =
          Regemu_explore.Cgfuzz.fuzz ~init ~profile ~base ~budget ()
        in
        Fmt.pr "%a@." Regemu_explore.Cgfuzz.report_pp report;
        Option.iter
          (fun path ->
            Json.to_file path (Regemu_explore.Cgfuzz.report_json report);
            Fmt.pr "wrote report to %s@." path)
          json;
        (match profile with
        | Regemu_dst.Dst_fuzz.Hunt -> 0
        | _ -> if report.Regemu_explore.Cgfuzz.violations = [] then 0 else 1)
  in
  let run_smoke ~seed =
    (* 1: tiny exhaustive run; certificate must round-trip and validate *)
    let p = Params.make_exn ~k:1 ~f:1 ~n:3 in
    let scenario =
      scenario_of Regemu_baselines.Abd_max.factory p ~eager:false ~crashes:0
        ~ops_each:1
    in
    let stats = Regemu_mcheck.Dpor.run scenario ~max_explored:200_000 in
    let cert =
      Regemu_explore.Cert.make
        ~config:
          (cert_config "abd-max" p ~eager:false ~crashes:0 ~ops_each:1
             ~budget:200_000)
        stats
    in
    let roundtrip =
      match
        Regemu_explore.Cert.of_json (Regemu_explore.Cert.to_json cert)
      with
      | Error m -> Error m
      | Ok c -> Result.map (fun () -> c) (Regemu_explore.Cert.validate c)
    in
    let cert_ok =
      match roundtrip with
      | Ok c -> c = cert && c.Regemu_explore.Cert.verdict = "verified-clean"
      | Error _ -> false
    in
    Fmt.pr "smoke exhaustive: %a@." Regemu_explore.Cert.pp cert;
    Fmt.pr "smoke certificate round-trip: %s@."
      (match roundtrip with
      | Ok _ when cert_ok -> "ok"
      | Ok _ -> "MISMATCH"
      | Error m -> "INVALID: " ^ m);
    (* 2: a coverage-guided burst on the quiet profile must stay clean *)
    let base =
      {
        (Regemu_dst.Dst.default_config ~seed) with
        Regemu_dst.Dst.readers = 1;
        ops_per_client = 4;
      }
    in
    let report =
      Regemu_explore.Cgfuzz.fuzz ~profile:Regemu_dst.Dst_fuzz.Quiet ~base
        ~budget:200 ()
    in
    Fmt.pr "smoke cgfuzz: %a@." Regemu_explore.Cgfuzz.report_pp report;
    let cg_ok =
      report.Regemu_explore.Cgfuzz.violations = []
      && report.Regemu_explore.Cgfuzz.schedules > 1
    in
    if cert_ok && cg_ok then 0
    else begin
      Fmt.epr "error: explore smoke failed (cert=%b cgfuzz=%b)@." cert_ok
        cg_ok;
      1
    end
  in
  let run_brute ({ Regemu_core.Emulation.name; _ } as factory) p ~eager ~crashes ~ops_each ~budget =
    let r, cpu_s =
      timed_search (fun () ->
          Regemu_mcheck.Explore.run
            (scenario_of factory p ~eager ~crashes ~ops_each)
            ~max_fired:budget)
    in
    Fmt.pr "explore %s at %a: %a@." name Params.pp p
      Regemu_mcheck.Explore.result_pp r;
    print_search_cost ~cpu_s ~fired:r.fired_events ~replays:r.replays
      ~replayed:r.replayed
      ~judged:r.judged ~runs:(r.terminal_runs + r.stuck_runs);
    let witnesses label =
      List.iter (fun h ->
          Fmt.pr "%s violating schedule:@.%a@." label
            Regemu_history.History.pp h)
    in
    witnesses "WS-Safe" r.ws_safe_violations;
    witnesses "WS-Regular" r.ws_regular_violations;
    if r.ws_safe_violations = [] && r.ws_regular_violations = [] then 0 else 1
  in
  let run ({ Regemu_core.Emulation.name; _ } as factory) f n budget writes eager crashes exhaustive ops_each
      cert_out fuzz_cg profile corpus readers ops json smoke seed =
    if smoke then run_smoke ~seed
    else
      match fuzz_cg with
      | Some cg_budget ->
          run_fuzz_cg name ~writers:writes ~readers ~f ~n ~ops ~seed ~profile
            ~corpus ~budget:cg_budget ~json
      | None -> (
          match params_of ~algo:factory writes f n with
          | Error e -> exit_of (Error e)
          | Ok p when exhaustive ->
              run_exhaustive factory p ~eager ~crashes ~ops_each
                ~budget ~cert_out ~json
          | Ok p ->
              run_brute factory p ~eager ~crashes ~ops_each ~budget)
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Systematically explore schedules: enumerate or DPOR-reduce small \
          scenarios exhaustively (--exhaustive, with a regemu-cert/1 \
          certificate), or coverage-guided-fuzz the live DST stack \
          (--fuzz-cg).")
    Term.(
      const run $ algo_arg $ f_arg $ n_arg $ budget $ writes $ eager
      $ crashes $ exhaustive_arg $ ops_each_arg $ cert_out_arg
      $ fuzz_cg_arg $ profile_arg $ corpus_arg $ readers_arg $ ops_arg
      $ json_arg $ smoke_arg $ seed_arg)

let run_cmd =
  let rounds =
    Arg.(value & opt int 2 & info [ "rounds" ] ~doc:"Rounds of writes.")
  in
  let readers =
    Arg.(value & opt int 2 & info [ "readers" ] ~doc:"Concurrent readers.")
  in
  let crashes =
    Arg.(
      value & opt int 0
      & info [ "crashes" ] ~doc:"Servers to crash (at most f).")
  in
  let run ({ Regemu_core.Emulation.name; _ } as factory) k f n rounds readers crashes seed =
    exit_of
      (Result.bind (params_of ~algo:factory k f n) (fun p ->
           match
             Regemu_workload.Scenario.concurrent_reads factory p ~rounds
               ~readers ~crashes ~seed ()
           with
           | Error e ->
               Error (`Msg (Fmt.str "%a" Regemu_workload.Scenario.error_pp e))
           | Ok r ->
               Fmt.pr "algorithm: %s at %a, seed %d@." name Params.pp p seed;
               Fmt.pr "history:@.%a@." Regemu_history.History.pp r.history;
               Fmt.pr "objects used: %d@." r.objects_used;
               Fmt.pr "WS-Regular: %a@."
                 Regemu_history.Ws_check.verdict_pp
                 (Regemu_history.Ws_check.check_ws_regular r.history);
               Fmt.pr "WS-Safe: %a@."
                 Regemu_history.Ws_check.verdict_pp
                 (Regemu_history.Ws_check.check_ws_safe r.history);
               Ok ()))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Drive an emulation through a workload (sequential writes, \
          concurrent readers, optional crashes) and check its history.")
    Term.(
      const run $ algo_arg $ k_arg $ f_arg $ n_arg $ rounds $ readers $ crashes
      $ seed_arg)

let sweep_cmd =
  let seeds =
    Arg.(value & opt int 3 & info [ "seeds" ] ~doc:"Seeded runs per point.")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~doc:"Write CSV to this file instead of stdout.")
  in
  let run seeds csv =
    let points = Sweep.run ~grid:Sweep.default_grid ~seeds () in
    let out = Sweep.to_csv points in
    (match csv with
    | Some path ->
        let oc = open_out path in
        output_string oc out;
        close_out oc;
        Fmt.pr "wrote %d points to %s@." (List.length points) path
    | None -> print_string out);
    0
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Measure bounds, usage, coverage, and latency over a (k, f, n) \
          grid; CSV output for plotting.")
    Term.(const run $ seeds $ csv)

(* --- observability plumbing ---------------------------------------------- *)

(* shared --trace/--trace-sample/--metrics handling for live, chaos,
   and dst: build the run's Sink.t, then write the requested files
   after the run (even a failing one — that trace is the useful one) *)
module Obs_cli = struct
  open Regemu_obs

  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Record a structured trace of the run and write it as \
                Chrome trace_event JSON (regemu-trace/1 schema).  Open it \
                at chrome://tracing or ui.perfetto.dev, or render it with \
                $(b,regemu trace --in) $(docv) $(b,--timeline).")

  (* full sampling costs ~30% throughput on a saturated live cluster
     (every message takes the recorder path), so [live] defaults to a
     coarse 1-in-64; the deterministic testers run in virtual time and
     default to recording everything *)
  let sample_arg ~default =
    Arg.(
      value & opt int default
      & info [ "trace-sample" ] ~docv:"N"
          ~doc:
            (Fmt.str
               "Keep 1 in $(docv) operation spans and message events.  \
                Control events — retries, faults, checker verdict flips, \
                unavailability — are always recorded.  1 records \
                everything.  Default %d." default))

  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Write the run's metrics registry as a regemu-metrics/1 \
                JSON snapshot.")

  let with_sink ~trace ~sample ~metrics f =
    if sample <= 0 then begin
      Fmt.epr "error: --trace-sample must be positive@.";
      1
    end
    else
      let tr =
        Option.map
          (fun _ -> Trace.create ~ops_every:sample ~msgs_every:sample ())
          trace
      in
      let mx = Option.map (fun _ -> Metrics.create ()) metrics in
      let code = f (Regemu_live.Sink.make ?trace:tr ?metrics:mx ()) in
      match
        Option.iter
          (fun path ->
            let t = Option.get tr in
            Json.to_file path (Export.chrome_json t);
            Fmt.pr "wrote trace to %s (%d events, %d lost to ring overwrite)@."
              path (Trace.recorded t) (Trace.dropped t))
          trace;
        Option.iter
          (fun path ->
            Json.to_file path (Metrics.snapshot (Option.get mx));
            Fmt.pr "wrote metrics to %s@." path)
          metrics
      with
      | exception Sys_error m ->
          Fmt.epr "error: %s@." m;
          1
      | () -> code
end

(* --- live --------------------------------------------------------------- *)

(* Every bench document leaves through one door: validated, written,
   re-read from disk and validated again; then the run's own verdict
   sets the exit code. *)
let write_bench_doc ~validate json doc ~clean ~dirty =
  match Json.write_checked ~validate json doc with
  | Error m ->
      Fmt.epr "error: %s@." m;
      1
  | Ok () when clean -> 0
  | Ok () ->
      Fmt.epr "error: %s@." dirty;
      1

(* One source of truth for live algorithm names: parse through
   Live_bench.algo_of_name, so an unknown name is rejected with the
   valid list quoted — never silently defaulted — and a newly
   registered algorithm reaches every command that uses this conv. *)
let live_algo_conv =
  let parse s =
    match Regemu_live.Live_bench.algo_of_name s with
    | Some a -> Ok a
    | None ->
        Error
          (`Msg
             (Fmt.str "unknown algorithm %S; valid: %s" s
                (String.concat ", " Regemu_live.Live_bench.algo_names)))
  in
  Arg.conv
    (parse, fun ppf a -> Fmt.string ppf (Regemu_live.Live_bench.algo_name a))

(* [--backend] for [live] and [keyspace]: one spelling per
   {!Transport.backends} entry, so the enum, its usage error and the
   doc string list the same backends *)
let backend_arg ~doc =
  let open Regemu_live in
  let blurb = function
    | Transport.Threads -> "the deterministic in-process courier fabric"
    | Transport.Socket ->
        "forked server processes speaking the binary codec over \
         Unix-domain sockets"
  in
  let names =
    List.map
      (fun b ->
        Fmt.str "$(b,%s) (%s)" (Transport.backend_name b) (blurb b))
      Transport.backends
  in
  Arg.(
    value
    & opt
        (enum
           (List.map (fun b -> (Transport.backend_name b, b)) Transport.backends))
        Transport.Threads
    & info [ "backend" ]
        ~doc:(Fmt.str "%s: %s." doc (String.concat ", " names)))

let live_cmd =
  let open Regemu_live in
  let algo_arg =
    Arg.(
      value
      & opt live_algo_conv Live_bench.Abd
      & info [ "algo" ]
          ~doc:"Protocol to run: $(b,abd), $(b,abd-wb), $(b,algorithm2), or \
                $(b,cds).")
  in
  let chaos_arg =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:"Inject crash/restart faults plus message delays and \
                duplication.")
  in
  let readers_arg =
    Arg.(
      value & opt int 3
      & info [ "readers" ] ~doc:"Number of reader threads.")
  in
  let ops_arg =
    Arg.(
      value & opt int 150
      & info [ "ops" ] ~doc:"Operations per client thread.")
  in
  let couriers_arg =
    Arg.(
      value & opt int 3
      & info [ "couriers" ] ~doc:"Transport delivery threads.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the run as a regemu-bench/3 $(b,suite) document, \
                validated both before the write and re-parsed from the \
                bytes on disk.")
  in
  let run chaos algo k readers f n ops couriers backend json seed trace sample
      metrics =
    let spec =
      {
        (Bench.closed ~backend ~algo ~seed
           { Bench.k; readers; ops_per_client = ops })
        with
        label = (if chaos then "chaos" else "quiet");
        f;
        n;
        couriers;
        chaos;
      }
    in
    Obs_cli.with_sink ~trace ~sample ~metrics @@ fun sink ->
    match Bench.run ~sink spec with
    | exception Invalid_argument m ->
        Fmt.epr "error: %s@." m;
        1
    | row ->
        Fmt.pr "%a@." Bench.row_pp row;
        write_bench_doc ~validate:Bench.validate json
          (Bench.to_json (Bench.document "suite") [ row ])
          ~clean:(Bench.clean row)
          ~dirty:"the run failed its online consistency checks or lost \
                  operations"
  in
  Cmd.v
    (Cmd.info "live"
       ~doc:
         "Run a real concurrent cluster: server threads, load-generator \
          client threads, fault injection, and online consistency checking.")
    Term.(
      const run $ chaos_arg $ algo_arg
      $ Arg.(value & opt int 1 & info [ "k" ] ~doc:"Number of writer threads.")
      $ readers_arg
      $ Arg.(value & opt int 1 & info [ "f" ] ~doc:"Failure threshold.")
      $ Arg.(value & opt int 3 & info [ "n" ] ~doc:"Number of server threads.")
      $ ops_arg $ couriers_arg
      $ backend_arg ~doc:"Message fabric"
      $ json_arg $ seed_arg $ Obs_cli.trace_arg
      $ Obs_cli.sample_arg ~default:64
      $ Obs_cli.metrics_arg)

(* --- bench --------------------------------------------------------------- *)

(* one subcommand per document of the registry *)
let bench_cmd =
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Run the document's bounded smoke list once (used by dune \
                runtest).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the document (regemu-bench/3 schema), validated \
                both before the write and re-parsed from the bytes on \
                disk.")
  in
  let doc_cmd (d : Bench.document) =
    let run smoke json trace sample metrics =
      Obs_cli.with_sink ~trace ~sample ~metrics @@ fun sink ->
      let rows =
        Bench.run_reps ~sink ~by:d.by
          ~reps:(if smoke then 1 else d.reps)
          (if smoke then d.smoke else d.full)
      in
      List.iter (Fmt.pr "%a@." Bench.row_pp) rows;
      let doc = Bench.to_json d rows in
      Option.iter
        (fun s -> Fmt.pr "summary: %s@." (Json.to_string s))
        (Json.member "summary" doc);
      write_bench_doc ~validate:Bench.validate json doc
        ~clean:(List.for_all Bench.clean rows)
        ~dirty:"a bench run failed its online checks, lost operations or \
                went over its budget"
    in
    Cmd.v
      (Cmd.info d.name ~doc:d.doc)
      Term.(
        const run $ smoke_arg $ json_arg $ Obs_cli.trace_arg
        $ Obs_cli.sample_arg ~default:64
        $ Obs_cli.metrics_arg)
  in
  Cmd.group
    (Cmd.info "bench"
       ~doc:
         "Run one live benchmark document and write it as regemu-bench/3 \
          JSON.")
    (List.map doc_cmd Bench.documents)

(* --- chaos --------------------------------------------------------------- *)

let chaos_cmd =
  let open Regemu_chaos in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Bounded campaign subset (used by dune runtest).")
  in
  let list_arg =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the campaign's scenarios and exit.")
  in
  let scenario_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:"Run a single scenario from the campaign.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the report as JSON (regemu-chaos/1 schema).")
  in
  let quiet_arg =
    Arg.(
      value & flag
      & info [ "quiet" ] ~doc:"Suppress per-phase progress lines.")
  in
  let run smoke list scenario json quiet seed trace sample metrics =
    if list then begin
      List.iter
        (fun s ->
          Fmt.pr "%-22s %-10s expect=%-9s %s@." s.Campaign.name
            (Campaign.algo_name s.Campaign.algo)
            (Campaign.expectation_name s.Campaign.expect)
            s.Campaign.descr)
        (Campaign.campaign ~seed);
      0
    end
    else
      let scenarios =
        match scenario with
        | Some name -> (
            match Campaign.by_name ~seed name with
            | Some s -> Ok [ s ]
            | None ->
                Error
                  (Fmt.str "unknown scenario %S (try --list); known: %s" name
                     (String.concat ", " (Campaign.names ()))))
        | None ->
            Ok (if smoke then Campaign.smoke ~seed else Campaign.campaign ~seed)
      in
      match scenarios with
      | Error m ->
          Fmt.epr "error: %s@." m;
          1
      | Ok scenarios -> (
          let log = if quiet then ignore else fun m -> Fmt.pr "  %s@." m in
          Obs_cli.with_sink ~trace ~sample ~metrics @@ fun sink ->
          match
            List.map
              (fun s ->
                let o = Campaign.run ~log ~sink s in
                Fmt.pr "%a@." Campaign.outcome_pp o;
                List.iter
                  (fun p -> Fmt.pr "    %a@." Campaign.phase_outcome_pp p)
                  o.Campaign.phases;
                o)
              scenarios
          with
          | exception Invalid_argument m ->
              Fmt.epr "error: %s@." m;
              1
          | outcomes -> (
              match
                Option.iter
                  (fun path ->
                    Regemu_obs.Json.to_file path
                      (Campaign.to_json ~seed ~smoke outcomes))
                  json
              with
              | exception Sys_error m ->
                  Fmt.epr "error: %s@." m;
                  1
              | () ->
                  if Campaign.all_pass outcomes then 0
                  else (
                    Fmt.epr
                      "error: a chaos scenario did not match its \
                       expectation@.";
                    1)))
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run deterministic nemesis campaigns against the live cluster: \
          lossy transport, partitions, crash-recovery, and beyond-f \
          outages, judged by the online consistency checker.")
    Term.(
      const run $ smoke_arg $ list_arg $ scenario_arg $ json_arg $ quiet_arg
      $ seed_arg $ Obs_cli.trace_arg
      $ Obs_cli.sample_arg ~default:1
      $ Obs_cli.metrics_arg)

(* --- dst ----------------------------------------------------------------- *)

let dst_cmd =
  let open Regemu_dst in
  let fuzz_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuzz" ] ~docv:"N"
          ~doc:"Sweep $(docv) consecutive seeds and tally failures.")
  in
  let profile_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("quiet", Dst_fuzz.Quiet);
               ("chaos", Dst_fuzz.Chaos);
               ("hunt", Dst_fuzz.Hunt);
             ])
          Dst_fuzz.Quiet
      & info [ "profile" ]
          ~doc:
            "Fuzz profile: $(b,quiet) (no faults, expected clean), \
             $(b,chaos) (seeded ≤f flapping, expected clean), or $(b,hunt) \
             (diskless wipes under amnesia — violations expected; \
             counterexample fodder).")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Re-execute a regemu-dst/1 counterexample file and check \
                that it reproduces the recorded verdict and digest.")
  in
  let shrink_arg =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:"Minimize the first failing seed to a replayable \
                counterexample (ddmin over the fault schedule, then the \
                interleaving trace).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the (shrunk) counterexample as a regemu-dst/1 \
                replay file.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the results as JSON.")
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Bounded, seed-fixed smoke suite (used by dune runtest): a \
                50-seed quiet sweep, a determinism cross-check, and a hunt \
                shrink-and-replay round trip.")
  in
  let algo_arg =
    Arg.(
      value
      & opt live_algo_conv Regemu_live.Live_bench.Abd
      & info [ "algo" ]
          ~doc:"Protocol under test: $(b,abd), $(b,abd-wb), \
                $(b,algorithm2), or $(b,cds).")
  in
  let writers_arg =
    Arg.(
      value & opt int 1
      & info [ "k" ]
          ~doc:"Number of writer fibers.  More than one writer makes the \
                WS check vacuous (writes overlap).")
  in
  let readers_arg =
    Arg.(value & opt int 2 & info [ "readers" ] ~doc:"Number of reader fibers.")
  in
  let ops_arg =
    Arg.(value & opt int 8 & info [ "ops" ] ~doc:"Operations per client fiber.")
  in
  let base_config algo k readers f n ops seed =
    {
      (Dst.default_config ~seed) with
      Dst.algo;
      writers = k;
      readers;
      f;
      n;
      ops_per_client = ops;
    }
  in
  let run_replay ~sink path =
    match Dst_fuzz.read_replay path with
    | Error m ->
        Fmt.epr "error: %s@." m;
        1
    | Ok spec ->
        let r = Dst_fuzz.replay ~sink spec in
        Fmt.pr "replay %s: %a@." path Dst.outcome_pp r.Dst_fuzz.outcome;
        Fmt.pr "  digest %s (%s)@."
          (Dst.run_digest r.Dst_fuzz.outcome)
          (if r.Dst_fuzz.digest_matched then "matches" else
             Fmt.str "expected %s" spec.Dst_fuzz.r_expected_digest);
        Fmt.pr "  violations %s@."
          (if r.Dst_fuzz.violations_matched then "match" else "DIVERGED");
        if Dst_fuzz.replay_matched r then begin
          Fmt.pr "counterexample reproduced@.";
          0
        end
        else begin
          Fmt.epr "error: replay diverged from the recorded run@.";
          1
        end
  in
  let run_fuzz ~profile ~base ~seeds ~shrink ~out ~json =
    let report =
      Dst_fuzz.fuzz
        ~progress:(fun o ->
          Fmt.pr "%a@." Dst.outcome_pp o)
        ~profile ~base ~seeds ()
    in
    Fmt.pr "fuzz[%s]: %d/%d seeds passed@."
      (Dst_fuzz.profile_name report.Dst_fuzz.profile)
      report.Dst_fuzz.passed report.Dst_fuzz.seeds;
    let shrunk =
      match report.Dst_fuzz.failures with
      | f :: _ when shrink || out <> None ->
          let cfg =
            Dst_fuzz.config_for profile ~base ~seed:f.Dst_fuzz.seed
          in
          let s = Dst_fuzz.shrink cfg f.Dst_fuzz.outcome in
          Fmt.pr
            "shrunk seed %d in %d runs: %d nemesis events, %d ops/client, \
             %d writers, %d readers, %d-entry trace@."
            f.Dst_fuzz.seed s.Dst_fuzz.runs_spent
            (List.length s.Dst_fuzz.cfg.Dst.nemesis)
            s.Dst_fuzz.cfg.Dst.ops_per_client s.Dst_fuzz.cfg.Dst.writers
            s.Dst_fuzz.cfg.Dst.readers
            (Array.length s.Dst_fuzz.choices);
          Fmt.pr "  %a@." Dst.outcome_pp s.Dst_fuzz.outcome;
          Option.iter
            (fun path ->
              Dst_fuzz.write_replay path ~cfg:s.Dst_fuzz.cfg
                ~choices:s.Dst_fuzz.choices ~outcome:s.Dst_fuzz.outcome;
              Fmt.pr "wrote counterexample to %s@." path)
            out;
          Some s
      | _ -> None
    in
    Option.iter
      (fun path ->
        let open Regemu_obs in
        Json.to_file path
          (Json.Obj
             [
               ("schema", Json.Str "regemu-dst-fuzz/1");
               ("profile", Json.Str (Dst_fuzz.profile_name profile));
               ("seeds", Json.Int report.Dst_fuzz.seeds);
               ("passed", Json.Int report.Dst_fuzz.passed);
               ( "failures",
                 Json.List
                   (List.map
                      (fun (f : Dst_fuzz.failure) ->
                        Dst.outcome_json f.Dst_fuzz.outcome)
                      report.Dst_fuzz.failures) );
               ( "shrunk",
                 match shrunk with
                 | None -> Json.Null
                 | Some s ->
                     Dst_fuzz.replay_json ~cfg:s.Dst_fuzz.cfg
                       ~choices:s.Dst_fuzz.choices ~outcome:s.Dst_fuzz.outcome
               );
             ]))
      json;
    (* hunt exists to produce counterexamples: failures there are the
       expected outcome, not an error *)
    match profile with
    | Dst_fuzz.Hunt -> 0
    | Dst_fuzz.Quiet | Dst_fuzz.Chaos ->
        if report.Dst_fuzz.failures = [] then 0 else 1
  in
  let run_smoke ~base =
    (* 1: a bounded quiet sweep must be clean *)
    let report = Dst_fuzz.fuzz ~profile:Dst_fuzz.Quiet ~base ~seeds:50 () in
    Fmt.pr "smoke quiet sweep: %d/%d seeds passed@." report.Dst_fuzz.passed
      report.Dst_fuzz.seeds;
    let quiet_ok = report.Dst_fuzz.failures = [] in
    (* 2: the same seed twice must give byte-identical run digests *)
    let o1 = Dst.run base and o2 = Dst.run base in
    let d1 = Dst.run_digest o1 and d2 = Dst.run_digest o2 in
    let det_ok = d1 = d2 in
    Fmt.pr "smoke determinism: %s %s %s@." d1
      (if det_ok then "=" else "<>")
      d2;
    (* 3: a hunt seed must fail, shrink, and replay to the same verdict.
       Not every seed walks into the stale-read window, so scan a few. *)
    let rec find_failure seed limit =
      if limit = 0 then None
      else
        let cfg = Dst_fuzz.config_for Dst_fuzz.Hunt ~base ~seed in
        let o = Dst.run cfg in
        if Dst.passed o then find_failure (seed + 1) (limit - 1)
        else Some (cfg, o)
    in
    let hunt_ok =
      match find_failure base.Dst.seed 10 with
      | None ->
          Fmt.pr "smoke hunt: no failing seed in 10 tries (wipe storms \
                  should violate)@.";
          false
      | Some (hunt_cfg, hunt) ->
          begin
        let s = Dst_fuzz.shrink ~budget:60 hunt_cfg hunt in
        let spec =
          Dst_fuzz.
            {
              r_cfg = s.cfg;
              r_choices = s.choices;
              r_expected_violations = s.outcome.Dst.violations;
              r_expected_digest = Dst.run_digest s.outcome;
            }
        in
        let r = Dst_fuzz.replay spec in
        Fmt.pr "smoke hunt: %d violation(s), shrink %d runs, replay %s@."
          (List.length hunt.Dst.violations)
          s.Dst_fuzz.runs_spent
          (if Dst_fuzz.replay_matched r then "reproduced" else "DIVERGED");
        Dst_fuzz.replay_matched r
      end
    in
    if quiet_ok && det_ok && hunt_ok then 0
    else begin
      Fmt.epr "error: dst smoke failed (quiet=%b determinism=%b hunt=%b)@."
        quiet_ok det_ok hunt_ok;
      1
    end
  in
  let run fuzz profile replay shrink out json smoke algo k readers f n ops seed
      trace sample metrics =
    (* tracing instruments exactly one deterministic run: the single-seed
       mode and --replay.  Sweeping modes would interleave runs in one
       trace, so they decline instead of emitting something misleading. *)
    let warn_ignored mode =
      if trace <> None || metrics <> None then
        Fmt.epr
          "warning: --trace/--metrics are ignored with %s (trace a single \
           run or a --replay instead)@."
          mode
    in
    match replay with
    | Some path ->
        Obs_cli.with_sink ~trace ~sample ~metrics @@ fun sink ->
        run_replay ~sink path
    | None -> (
        let base = base_config algo k readers f n ops seed in
        if smoke then begin
          warn_ignored "--smoke";
          run_smoke ~base
        end
        else
          match fuzz with
          | Some seeds ->
              warn_ignored "--fuzz";
              run_fuzz ~profile ~base ~seeds ~shrink ~out ~json
          | None ->
              (* single run of one seed under the profile *)
              Obs_cli.with_sink ~trace ~sample ~metrics @@ fun sink ->
              let cfg = Dst_fuzz.config_for profile ~base ~seed in
              let o = Dst.run ~sink cfg in
              Fmt.pr "%a@." Dst.outcome_pp o;
              Fmt.pr "digest %s@." (Dst.run_digest o);
              Option.iter
                (fun path ->
                  Regemu_obs.Json.to_file path (Dst.outcome_json o))
                json;
              (match (shrink || out <> None, Dst.passed o) with
              | true, false ->
                  let s = Dst_fuzz.shrink cfg o in
                  Fmt.pr "shrunk in %d runs: %d nemesis events, %d-entry \
                          trace@."
                    s.Dst_fuzz.runs_spent
                    (List.length s.Dst_fuzz.cfg.Dst.nemesis)
                    (Array.length s.Dst_fuzz.choices);
                  Option.iter
                    (fun path ->
                      Dst_fuzz.write_replay path ~cfg:s.Dst_fuzz.cfg
                        ~choices:s.Dst_fuzz.choices ~outcome:s.Dst_fuzz.outcome;
                      Fmt.pr "wrote counterexample to %s@." path)
                    out
              | _ -> ());
              (match profile with
              | Dst_fuzz.Hunt -> 0
              | _ -> if Dst.passed o then 0 else 1))
  in
  Cmd.v
    (Cmd.info "dst"
       ~doc:
         "Deterministic-schedule testing: run the live cluster under a \
          virtual scheduler where one (seed, config) pair fixes the whole \
          run, fuzz schedules, shrink failures, and replay \
          counterexamples.")
    Term.(
      const run $ fuzz_arg $ profile_arg $ replay_arg $ shrink_arg $ out_arg
      $ json_arg $ smoke_arg $ algo_arg $ writers_arg $ readers_arg
      $ Arg.(value & opt int 1 & info [ "f" ] ~doc:"Failure threshold.")
      $ Arg.(value & opt int 3 & info [ "n" ] ~doc:"Number of servers.")
      $ ops_arg $ seed_arg $ Obs_cli.trace_arg
      $ Obs_cli.sample_arg ~default:1
      $ Obs_cli.metrics_arg)

(* --- keyspace ------------------------------------------------------------ *)

let keyspace_cmd =
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Run the small CI-sized spec (seconds, not minutes).")
  in
  let keys_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "keys" ] ~docv:"K" ~doc:"Number of keys in the keyspace.")
  in
  let zipf_arg =
    Arg.(
      value
      & opt (some (list float)) None
      & info [ "zipf" ] ~docv:"SKEWS"
          ~doc:
            "Comma-separated zipf skews, one open-loop run each (0 is \
             uniform).")
  in
  let rate_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "arrival-rate" ] ~docv:"OPS_PER_S"
          ~doc:"Open-loop Poisson arrival rate.")
  in
  let ops_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "ops" ] ~docv:"N" ~doc:"Total operations per skew.")
  in
  let window_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "window" ] ~docv:"W"
          ~doc:"In-flight bound: size of the worker pool.")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"OPS"
          ~doc:
            "Resident-op budget the memory-bounded checker must stay \
             under; exceeded ⇒ nonzero exit.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the runs as a regemu-bench/3 $(b,keyspace) document, \
             validated both before the write and re-parsed from the bytes \
             on disk.")
  in
  let quiet_arg =
    Arg.(
      value & flag
      & info [ "quiet" ] ~doc:"Suppress the per-skew result lines.")
  in
  let backend_arg = backend_arg ~doc:"Message fabric under each skew's cluster" in
  let run smoke keys zipfs rate ops window budget nval fval backend json quiet
      seed trace sample metrics =
    let d = Bench.document "keyspace" in
    let runs =
      List.filter_map
        (fun (s : Bench.spec) ->
          match s.load with
          | Bench.Keyspace ks -> Some (s, ks)
          | Bench.Clients _ -> None)
        (if smoke then d.smoke else d.full)
    in
    let s0, ks0 = List.hd runs in
    let specs =
      List.map
        (fun zipf ->
          Bench.keyspace ~backend ~seed
            ~n:(Option.value nval ~default:s0.n)
            ~f:(Option.value fval ~default:s0.f)
            {
              ks0 with
              zipf;
              keys = Option.value keys ~default:ks0.keys;
              arrival_rate = Option.value rate ~default:ks0.arrival_rate;
              total_ops = Option.value ops ~default:ks0.total_ops;
              window = Option.value window ~default:ks0.window;
              budget_ops = Option.value budget ~default:ks0.budget_ops;
            })
        (Option.value zipfs
           ~default:(List.map (fun (_, ks) -> ks.Bench.zipf) runs))
    in
    Obs_cli.with_sink ~trace ~sample ~metrics @@ fun sink ->
    match
      List.map
        (fun spec ->
          let row = Bench.run ~sink spec in
          if not quiet then Fmt.pr "%a@." Bench.row_pp row;
          row)
        specs
    with
    | exception Invalid_argument m ->
        Fmt.epr "error: %s@." m;
        1
    | rows ->
        let bad = List.filter (fun r -> not (Bench.clean r)) rows in
        write_bench_doc ~validate:Bench.validate json (Bench.to_json d rows)
          ~clean:(bad = [])
          ~dirty:
            (Fmt.str
               "%d skew(s) failed (violations, deep mismatch, lost ops, or \
                over budget)"
               (List.length bad))
  in
  Cmd.v
    (Cmd.info "keyspace"
       ~doc:
         "Open-loop load over a multi-register keyspace: zipf key \
          popularity, Poisson arrivals, per-key ABD quorums on 2f+1 \
          replicas, and a memory-bounded online WS-Regularity checker \
          with settled-prefix GC.")
    Term.(
      const run $ smoke_arg $ keys_arg $ zipf_arg $ rate_arg $ ops_arg
      $ window_arg $ budget_arg
      $ Arg.(
          value
          & opt (some int) None
          & info [ "n" ] ~doc:"Number of servers.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "f" ] ~doc:"Failure threshold.")
      $ backend_arg $ json_arg $ quiet_arg $ seed_arg $ Obs_cli.trace_arg
      $ Obs_cli.sample_arg ~default:64
      $ Obs_cli.metrics_arg)

(* --- trace ---------------------------------------------------------------- *)

let trace_cmd =
  let open Regemu_obs in
  let replay_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Re-execute a regemu-dst/1 counterexample under the virtual \
                scheduler with full-sampling tracing on — the post-mortem \
                microscope for a shrunk violation.")
  in
  let in_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "in" ] ~docv:"FILE"
          ~doc:"Load a previously written regemu-trace/1 Chrome trace \
                instead of producing one.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the replay's trace as Chrome trace_event JSON \
                (regemu-trace/1).  Only meaningful with $(b,--replay).")
  in
  let timeline_arg =
    Arg.(
      value & flag
      & info [ "timeline" ]
          ~doc:"Print the compact text timeline (the default when no \
                $(b,--out) is given).")
  in
  let summarize rows =
    let recs = List.sort_uniq String.compare (List.map fst rows) in
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (_, e) ->
        let cat = e.Event.cat in
        Hashtbl.replace tbl cat
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl cat)))
      rows;
    Fmt.pr "%d events across %d recorders@." (List.length rows)
      (List.length recs);
    List.iter
      (fun (cat, n) -> Fmt.pr "  %-8s %d@." cat n)
      (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []))
  in
  let run replay in_ out timeline =
    match (replay, in_) with
    | Some _, Some _ ->
        Fmt.epr "error: --replay and --in are mutually exclusive@.";
        1
    | None, None ->
        Fmt.epr "error: nothing to do — pass --replay FILE or --in FILE@.";
        1
    | Some path, None -> (
        let open Regemu_dst in
        match Dst_fuzz.read_replay path with
        | Error m ->
            Fmt.epr "error: %s@." m;
            1
        | Ok spec -> (
            let tr = Trace.create () in
            let sink = Regemu_live.Sink.make ~trace:tr () in
            let r = Dst_fuzz.replay ~sink spec in
            Fmt.pr "replay %s: %a@." path Dst.outcome_pp r.Dst_fuzz.outcome;
            match
              Option.iter
                (fun p ->
                  Json.to_file p (Export.chrome_json tr);
                  Fmt.pr "wrote trace to %s (%d events)@." p
                    (Trace.recorded tr))
                out
            with
            | exception Sys_error m ->
                Fmt.epr "error: %s@." m;
                1
            | () ->
                if timeline || out = None then
                  print_string (Export.timeline tr);
                if Dst_fuzz.replay_matched r then 0
                else begin
                  Fmt.epr "error: replay diverged from the recorded run@.";
                  1
                end))
    | None, Some path -> (
        if out <> None then begin
          Fmt.epr "error: --out needs --replay (with --in the trace already \
                   exists)@.";
          1
        end
        else
          match Json.of_file path with
          | Error m ->
              Fmt.epr "error: %s: %s@." path m;
              1
          | Ok doc -> (
              match Export.of_chrome_json doc with
              | Error m ->
                  Fmt.epr "error: %s is not a valid regemu-trace/1 trace: \
                           %s@."
                    path m;
                  1
              | Ok rows ->
                  if timeline then
                    print_string (Export.timeline_of_events rows)
                  else summarize rows;
                  0))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Work with regemu-trace/1 traces: re-execute a DST counterexample \
          with tracing on, export Chrome trace_event JSON, or render a \
          saved trace as a text timeline.")
    Term.(const run $ replay_arg $ in_arg $ out_arg $ timeline_arg)

let default =
  Term.(ret (const (`Help (`Pager, None))))

(* Must run before argument parsing: when the socket transport
   re-execs this binary as a server child, [child_check] serves and
   exits instead of entering the CLI. *)
let () = Regemu_live.Transport_socket.child_check ()

let () =
  let info =
    Cmd.info "regemu" ~version:"1.0.0"
      ~doc:
        "Space complexity of fault-tolerant register emulations (PODC 2017) \
         — reproduction toolkit."
  in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          (claim_cmds
          @ [
              all_cmd; verify_cmd; plan_cmd; fuzz_cmd; explore_cmd; run_cmd;
              sweep_cmd; live_cmd; bench_cmd; chaos_cmd; dst_cmd;
              keyspace_cmd; trace_cmd;
            ])))
