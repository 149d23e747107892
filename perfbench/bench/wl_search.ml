(* search: the verification loop on virtual time.  Each round runs a
   coverage-guided fuzz campaign (chaos profile) for ABD, Algorithm 2
   and CDS at equal budgets, then a DPOR exploration of Algorithm 2
   (n=3, f=1, one crash) capped at a fixed transition count.  Rounds
   repeat, each on fresh seeds, until the run's time is up.  An
   operation here is one whole [Dst] execution.

   The work is CPU only, so it is timed in process CPU seconds: on a
   shared host, wall time also counts the time other tenants take
   (a tenth of a run's wall time in bad minutes), CPU time does not. *)

open Regemu_objects
open Regemu_live
open Regemu_dst
open Regemu_explore
open Regemu_mcheck
open Perfbench_core
open Common

let algos = [ Live_bench.Abd; Live_bench.Alg2; Live_bench.Cds ]
let budget = 40
let dpor_cap = 10_000
let dpor_per_round = 3
let profile = Dst_fuzz.Chaos

type setup = {
  bases : (int -> Dst.config) list;  (** per algo: round seed -> campaign base *)
  scenario : Explore.scenario;
  cells : int;  (** base objects the explored Algorithm 2 instance allocates *)
}

let round_seed ~seed r = (seed * 7919) + (r * 104729)

(* config and scenario build; every input is a function of the seed *)
let build ~seed () =
  let bases =
    List.map
      (fun algo r ->
        let base = { (Dst.default_config ~seed:(round_seed ~seed r)) with Dst.algo } in
        (* the campaign's fixed config, nemesis timeline included *)
        Dst_fuzz.config_for profile ~base ~seed:base.Dst.seed)
      algos
  in
  List.iter (fun b -> ignore (b 0)) bases;
  let p = Regemu_bounds.Params.make_exn ~k:1 ~f:1 ~n:3 in
  let v i = Value.Int ((seed * 1000) + i) in
  let scenario =
    Explore.emulation_scenario Regemu_core.Algorithm2.factory p
      ~mode:Explore.Sequential ~crashes:1
      ~writer_ops:[ [ v 1; v 2 ] ]
      ~readers:1 ~reads_each:2 ()
  in
  let cells =
    List.length
      (Regemu_sim.Sim.objects (Explore.Session.sim (Explore.Session.create scenario)))
  in
  { bases; scenario; cells }

type totals = {
  run_us : Pct.Samples.t;  (** per Dst execution, CPU *)
  run_wall_us : Pct.Samples.t;  (** per Dst execution, wall clock *)
  mutable runs : int;
  mutable failing : int;
  mutable steps : int;
  mutable ops : int;  (** client operations completed inside the runs *)
  mutable msgs_sent : int;
  mutable msgs_delivered : int;
  mutable retries : int;
  mutable checks : int;
  mutable cg_s : float;  (** CPU seconds in the campaigns *)
  mutable corpus : int;
  mutable edges : int;
  mutable campaigns : int;
  mutable dpor_runs : int;
  mutable dpor_bad : int;
  mutable explored : int;
  mutable replayed : int;
  mutable pruned : int;
  mutable dpor_s : float;  (** CPU seconds in DPOR *)
  mutable rounds : int;
  dpor_rates : Pct.Samples.t;  (** transitions per CPU second, per DPOR run *)
}

let campaign t ~spans ~phase base =
  let last = ref (now_ns ()) and last_cpu = ref (cpu_s ()) and local = ref [] in
  let progress (o : Dst.outcome) =
    let now = now_ns () and cpu = cpu_s () in
    Pct.Samples.push t.run_us ((cpu -. !last_cpu) *. 1e6);
    Pct.Samples.push t.run_wall_us (us_between !last now);
    local := { Spans.name = "dst.run"; client = 0; t0 = !last; t1 = now; parent = phase } :: !local;
    last := now;
    last_cpu := cpu;
    t.steps <- t.steps + o.Dst.report.Sched.steps;
    Option.iter
      (fun (st : Dst.run_stats) ->
        let c = st.Dst.cluster_stats in
        t.ops <- t.ops + c.Cluster.ops_completed;
        t.msgs_sent <- t.msgs_sent + c.Cluster.msgs_sent;
        t.msgs_delivered <- t.msgs_delivered + c.Cluster.msgs_delivered;
        t.retries <- t.retries + c.Cluster.retries;
        t.checks <- t.checks + st.Dst.online.Checker.checks)
      o.Dst.stats;
    Heap.sample ()
  in
  let c0 = cpu_s () in
  last := now_ns ();
  last_cpu := c0;
  let rep = Cgfuzz.fuzz ~progress ~profile ~base ~budget () in
  t.cg_s <- t.cg_s +. (cpu_s () -. c0);
  Spans.add_all spans !local;
  t.runs <- t.runs + rep.Cgfuzz.runs;
  t.failing <- t.failing + rep.Cgfuzz.failing_runs;
  t.corpus <- t.corpus + List.length rep.Cgfuzz.corpus;
  t.edges <- t.edges + rep.Cgfuzz.edges;
  t.campaigns <- t.campaigns + 1

let dpor t ~spans ~phase scenario =
  let t0 = now_ns () and c0 = cpu_s () in
  let st = Dpor.run scenario ~max_explored:dpor_cap in
  let t1 = now_ns () in
  let c1 = cpu_s () in
  t.dpor_s <- t.dpor_s +. (c1 -. c0);
  Pct.Samples.push t.dpor_rates (float_of_int st.Dpor.explored /. (c1 -. c0));
  Heap.sample ();
  Spans.add_all spans [ { Spans.name = "dpor.run"; client = 0; t0; t1; parent = phase } ];
  t.dpor_runs <- t.dpor_runs + 1;
  t.explored <- t.explored + st.Dpor.explored;
  t.replayed <- t.replayed + st.Dpor.replayed;
  t.pruned <- t.pruned + st.Dpor.pruned;
  if
    st.Dpor.explored <> dpor_cap
    || st.Dpor.ws_safe_violations + st.Dpor.ws_regular_violations
       + st.Dpor.invariant_violations
       > 0
  then t.dpor_bad <- t.dpor_bad + 1

let measure ~seed ~seconds ~phase spans =
  let s, setup_s = repeated_setup ~times:101 ~build:(fun () -> build ~seed ()) ~teardown:ignore in
  Heap.reset ();
  let majors0 = major_collections () in
  let t =
    {
      run_us = Pct.Samples.create ();
      run_wall_us = Pct.Samples.create ();
      runs = 0;
      failing = 0;
      steps = 0;
      ops = 0;
      msgs_sent = 0;
      msgs_delivered = 0;
      retries = 0;
      checks = 0;
      cg_s = 0.0;
      corpus = 0;
      edges = 0;
      campaigns = 0;
      dpor_runs = 0;
      dpor_bad = 0;
      explored = 0;
      replayed = 0;
      pruned = 0;
      dpor_s = 0.0;
      rounds = 0;
      dpor_rates = Pct.Samples.create ();
    }
  in
  let t_start = now_ns () in
  let deadline = Int64.add t_start (Int64.of_float (seconds *. 1e9)) in
  while t.rounds = 0 || Int64.compare (now_ns ()) deadline < 0 do
    List.iter (fun b -> campaign t ~spans ~phase (b t.rounds)) s.bases;
    for _ = 1 to dpor_per_round do
      dpor t ~spans ~phase s.scenario
    done;
    t.rounds <- t.rounds + 1
  done;
  (s, t, setup_s, major_collections () - majors0)

let gates t =
  [
    (Printf.sprintf "cgfuzz: %d failing runs of %d" t.failing t.runs, t.failing = 0);
    ( Printf.sprintf "dpor: every run explored exactly %d transitions with no violation" dpor_cap,
      t.dpor_bad = 0 );
  ]

let attempted t = t.runs + t.dpor_runs
let failed t = t.failing + t.dpor_bad

let notes t lat =
  [
    pct_note "Dst run CPU time" lat;
    Printf.sprintf
      "%d rounds: %d Dst runs in %.2f CPU s (%.1f runs/s), %d DPOR transitions in %.2f CPU \
       s (median %.0f transitions/s over DPOR runs)"
      t.rounds t.runs t.cg_s (float_of_int t.runs /. t.cg_s) t.explored t.dpor_s
      (Pct.median (Pct.Samples.to_array t.dpor_rates));
  ]

let run ~seed ~seconds spans =
  let s, t, setup_s, _ = measure ~seed ~seconds ~phase:1 spans in
  let lat = Pct.summarize (Pct.Samples.to_array t.run_us) in
  {
    gates = gates t;
    attempted = attempted t;
    failed = failed t;
    metrics =
      [
        m "setup_s" "s" setup_s;
        m "op_cpu_us" "us" lat.p50;
        m "heap_peak_mb" "MB" (Heap.peak_mb ());
        m "store_cells_total" "cells" (float_of_int s.cells);
        m "transitions_per_cpu_s" "1/cpu_s" (Pct.median (Pct.Samples.to_array t.dpor_rates));
      ];
    notes = notes t lat;
  }

(* Traced: the cluster inside a Dst run reads the virtual clock, so the
   joined stages are in virtual microseconds — the schedule's shape,
   not CPU cost.  The overhead is CPU time: the same configs run
   untraced and traced. *)
let traced_runs_per_algo = 4

let run_traced ~seed ~seconds spans =
  let s, t, _, majors = measure ~seed ~seconds:(Float.max 1.0 (seconds /. 2.0)) ~phase:1 spans in
  let lat = Pct.summarize (Pct.Samples.to_array t.run_us) in
  let plain = Pct.Samples.create () and traced = Pct.Samples.create () in
  let joins = ref [] and dropped = ref 0 and bad_sends = ref 0 and tfailed = ref 0 in
  let nevents = ref 0 and truns = ref 0 in
  List.iter
    (fun b ->
      for i = 0 to traced_runs_per_algo - 1 do
        let cfg = b (1000 + i) in
        let c0 = cpu_s () in
        ignore (Dst.run cfg);
        Pct.Samples.push plain (cpu_s () -. c0);
        let trace = Sink.Trace.create () in
        let sink = Sink.make ~trace ~metrics:(Sink.Metrics.create ()) () in
        let c0 = cpu_s () in
        let o = Dst.run ~sink cfg in
        Pct.Samples.push traced (cpu_s () -. c0);
        incr truns;
        if not (Dst.passed o) then incr tfailed;
        dropped := !dropped + Sink.Trace.dropped trace;
        let events = Sink.Trace.events trace in
        nevents := !nevents + List.length events;
        let sends =
          Ridjoin.count_points events "send" + Ridjoin.count_points events "dup"
        in
        (match o.Dst.stats with
        | Some st when st.Dst.cluster_stats.Cluster.msgs_sent = sends -> ()
        | _ -> incr bad_sends);
        joins := Ridjoin.join events (Ridjoin.ops_of_trace events) :: !joins
      done)
    s.bases;
  let j = Ridjoin.merge !joins in
  let stages =
    stage_metrics j
      ~overhead:
        (overhead ~traced:(Pct.Samples.to_array traced)
           ~untraced:(Pct.Samples.to_array plain))
  in
  {
    gates =
      gates t
      @ [
          ("traced runs passed", !tfailed = 0);
          ("trace: no event overwritten", !dropped = 0);
          ("trace: msg send points = transport.sent in every run", !bad_sends = 0);
        ];
    attempted = attempted t + !truns;
    failed = failed t + !tfailed;
    metrics =
      stages
      @ (let wall = Pct.Samples.to_array t.run_wall_us in
         let ws = Pct.summarize wall in
         wall_metrics
           ~ops_per_s:(float_of_int t.runs /. (Array.fold_left ( +. ) 0.0 wall *. 1e-6))
           ~p50:ws.p50 ~p90:ws.p90 ws)
      @ [
          m "gc.major_collections" "count" (float_of_int majors);
          m "dst.run_ms" "ms" (Pct.median (Pct.Samples.to_array t.run_wall_us) /. 1e3);
          m "dst.runs_per_cpu_s" "1/cpu_s" (float_of_int t.runs /. t.cg_s);
          m "sched.steps_per_run" "steps" (float_of_int t.steps /. float_of_int (max 1 t.runs));
          m "cgfuzz.novel_frac" "ratio" (float_of_int t.corpus /. float_of_int (max 1 t.runs));
          m "cgfuzz.edges" "count" (float_of_int t.edges /. float_of_int (max 1 t.campaigns));
          m "dpor.explored" "count" (float_of_int (t.explored / max 1 t.dpor_runs));
          m "dpor.replay_ratio" "ratio" (float_of_int t.replayed /. float_of_int (max 1 t.explored));
          m "dpor.pruned_ratio" "ratio"
            (float_of_int t.pruned /. float_of_int (max 1 (t.explored + t.pruned)));
          m "transport.msgs_per_op" "msgs/op"
            (float_of_int t.msgs_sent /. float_of_int (max 1 t.ops));
          m "transport.delivered_ratio" "ratio"
            (float_of_int t.msgs_delivered /. float_of_int (max 1 t.msgs_sent));
          m "cluster.retries_per_op" "retries/op"
            (float_of_int t.retries /. float_of_int (max 1 t.ops));
          m "checker.checks" "count" (float_of_int t.checks /. float_of_int (max 1 t.runs));
          m "trace.events" "count" (float_of_int !nevents);
        ]
      @ bypassed
          [
            ("alg2.cells", "cells");
            ("kspace.server_cells_max", "cells");
            ("histlog.bytes", "bytes");
            ("checker.stop_s", "s");
            ("klog.bytes_peak", "bytes");
            ("kchecker.max_resident_ops", "ops");
            ("kchecker.checks", "count");
            ("kchecker.stop_s", "s");
            ("kchecker.vacuous_frac", "ratio");
            ("load.max_lateness_ms", "ms");
            ("load.late_frac", "ratio");
            ("load.due_p50_us", "us");
            ("load.due_p90_us", "us");
          ];
    notes =
      notes t lat
      @ [
          Printf.sprintf
            "traced (virtual time): %d Dst runs, %d ops joined of %d, %d events, sum_ratio %.3f"
            !truns j.joined j.ops !nevents (Ridjoin.sum_ratio j);
        ];
  }
