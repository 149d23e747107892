(* register-closed: Algorithm 2 on one live register (threads backend,
   n=5, f=1, k=3).  One writer thread drives the three writer clients
   in turn, so writes never overlap and the WS verdict is real; one
   reader thread reads.  Both run a closed loop with the online
   checker on. *)

open Regemu_objects
open Regemu_live
open Perfbench_core
open Common

let n = 5
let f = 1
let k = 3
let params = Regemu_bounds.Params.make_exn ~k ~f ~n

type sys = {
  cluster : Cluster.t;
  writers : Cluster.client array;
  reader : Cluster.client;
  alg : Alg2_live.t;
  checker : Checker.t;
}

let build ~seed ?sink () =
  let cluster = Cluster.create ?sink (Cluster.default_config ~n ~seed) in
  let writers = List.init k (fun _ -> Cluster.new_client cluster) in
  let reader = Cluster.new_client cluster in
  let alg = Alg2_live.create cluster params ~writers () in
  Cluster.start cluster;
  let checker = Checker.spawn cluster () in
  { cluster; writers = Array.of_list writers; reader; alg; checker }

let teardown s =
  ignore (Checker.stop s.checker);
  Cluster.shutdown s.cluster

(* Written values: strictly increasing, so every write is distinct,
   drawn from the seed before timing starts. *)
let gen_values ~seed count =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let a = Array.make count 0 in
  let v = ref (Random.State.int rng 1_000_000) in
  for i = 0 to count - 1 do
    v := !v + 1 + Random.State.int rng 4;
    a.(i) <- !v
  done;
  a

type loop = {
  lat : Pct.Samples.t;  (** completed ops, microseconds *)
  done_s : Pct.Samples.t;  (** their completion times, seconds *)
  mutable failed : int;
  mutable spans : Spans.span list;
  mutable exhausted : bool;
}

(* One closed-loop thread: [op j] until the deadline or until [stop]
   says so; each call is timed and kept as a span of [phase]. *)
let closed_loop ~phase ~deadline ~stop ~name ~client op =
  let l =
    {
      lat = Pct.Samples.create ~capacity:65536 ();
      done_s = Pct.Samples.create ~capacity:65536 ();
      failed = 0;
      spans = [];
      exhausted = false;
    }
  in
  let j = ref 0 in
  while Int64.compare (now_ns ()) deadline < 0 && not (stop () || l.exhausted) do
    let t0 = now_ns () in
    (match op !j with
    | () ->
        let t1 = now_ns () in
        Pct.Samples.push l.lat (us_between t0 t1);
        Pct.Samples.push l.done_s (secs t1);
        l.spans <- { Spans.name; client = client !j; t0; t1; parent = phase } :: l.spans
    | exception (Cluster.Unavailable _ | Cluster.Timeout _) -> l.failed <- l.failed + 1
    | exception Exit -> l.exhausted <- true);
    if !j land 63 = 0 then Heap.sample ();
    incr j
  done;
  l

type phase_result = {
  writes : loop;
  reads : loop;
  elapsed_s : float;
  t_start : int64;
  t_end : int64;
}

(* Run the writer and reader threads against [s] for [seconds] (and at
   most [max_ops] operations in all when given). *)
let run_phase s ~values ~next_value ~phase ~seconds ?max_ops spans =
  let done_ops = Atomic.make 0 in
  let stop () =
    match max_ops with Some m -> Atomic.get done_ops >= m | None -> false
  in
  let t_start = now_ns () in
  let deadline = Int64.add t_start (Int64.of_float (seconds *. 1e9)) in
  let writer_op j =
    let i = Atomic.fetch_and_add next_value 1 in
    if i >= Array.length values then raise Exit;
    Alg2_live.write s.alg s.writers.(j mod k) (Value.Int values.(i));
    Atomic.incr done_ops
  in
  let reader_op _ =
    ignore (Alg2_live.read s.alg s.reader);
    Atomic.incr done_ops
  in
  let cid c = Regemu_objects.Id.Client.to_int (Cluster.client_id c) in
  let wres = ref None and rres = ref None in
  let wt =
    Thread.create
      (fun () ->
        wres :=
          Some
            (closed_loop ~phase ~deadline ~stop ~name:"write"
               ~client:(fun j -> cid s.writers.(j mod k))
               writer_op))
      ()
  in
  let rt =
    Thread.create
      (fun () ->
        rres :=
          Some
            (closed_loop ~phase ~deadline ~stop ~name:"read"
               ~client:(fun _ -> cid s.reader)
               reader_op))
      ()
  in
  Thread.join wt;
  Thread.join rt;
  let t_end = now_ns () in
  let writes = Option.get !wres and reads = Option.get !rres in
  Spans.add_all spans writes.spans;
  Spans.add_all spans reads.spans;
  writes.spans <- [];
  reads.spans <- [];
  { writes; reads; elapsed_s = secs_between t_start t_end; t_start; t_end }

let latencies p =
  Array.append (Pct.Samples.to_array p.writes.lat) (Pct.Samples.to_array p.reads.lat)

(* per-window medians over the measured phase, four windows a second *)
let windowed p =
  let cat f = Array.append (f p.writes) (f p.reads) in
  Pct.windowed ~t_start:(secs p.t_start) ~t_end:(secs p.t_end)
    ~windows:(max 1 (int_of_float (4.0 *. p.elapsed_s)))
    ~times:(cat (fun l -> Pct.Samples.to_array l.done_s))
    ~values:(cat (fun l -> Pct.Samples.to_array l.lat))

let completed p = Pct.Samples.length p.writes.lat + Pct.Samples.length p.reads.lat
let failed p = p.writes.failed + p.reads.failed

(* The measured phase is a stated input size: this many ops per
   requested second (about a second's worth on a quiet 2-core x86 VM),
   with three times the requested seconds as a backstop.  A fixed op
   count keeps the history log, and so the heap, the same size in every
   run. *)
let ops_per_second_nominal = 4000

(* generous: the closed loop completes a few thousand writes a second *)
let value_pool ~seconds = 20_000 * (int_of_float (Float.ceil seconds) + 2)
let warmup_s = 0.5

type measured = {
  sys : sys;
  phase : phase_result;
  setup_s : float;
  checker : Checker.result;
  checker_stop_s : float;
  majors : int;
  cpu_s : float;  (** process CPU seconds over the measured phase *)
  histlog_bytes : int;
  cells_total : int;
  stats : Cluster.stats;
}

(* set up (repeatedly, for the set-up median), warm up, measure, stop
   the checker and read the space and counters at quiesce *)
let measure ~seed ~seconds ~phase spans =
  let values = gen_values ~seed (value_pool ~seconds) in
  let next_value = Atomic.make 0 in
  let sys, setup_s =
    repeated_setup ~times:41 ~build:(fun () -> build ~seed ()) ~teardown
  in
  ignore (run_phase sys ~values ~next_value ~phase:(-1) ~seconds:warmup_s (Spans.create ()));
  Heap.reset ();
  let majors0 = major_collections () and cpu0 = cpu_s () in
  let p =
    run_phase sys ~values ~next_value ~phase ~seconds:(3.0 *. seconds)
      ~max_ops:(ops_per_second_nominal * int_of_float (Float.ceil seconds))
      spans
  in
  let cpu = cpu_s () -. cpu0 in
  let majors = major_collections () - majors0 in
  let t0 = now_ns () in
  let checker = Checker.stop sys.checker in
  let checker_stop_s = secs_between t0 (now_ns ()) in
  let _, _, cells_total = Cluster.resident_space sys.cluster in
  {
    sys;
    phase = p;
    setup_s;
    checker;
    checker_stop_s;
    majors;
    cpu_s = cpu;
    histlog_bytes = Histlog.approx_bytes (Cluster.log sys.cluster);
    cells_total;
    stats = Cluster.stats sys.cluster;
  }

(* per op the cluster completed, warm-up included like its counters *)
let per_op r x = float_of_int x /. float_of_int (max 1 r.stats.Cluster.ops_completed)

let expected_cells = Regemu_bounds.Formulas.register_upper_bound params

let gates r =
  [
    ( "WS verdict holds (not vacuous, not violated)",
      r.checker.Checker.ws = Regemu_history.Ws_check.Holds && Checker.ok r.checker );
    ( Printf.sprintf "store_cells_total = kf+ceil(k/z)(f+1) = %d" expected_cells,
      r.cells_total = expected_cells );
    ("no operation failed", failed r.phase = 0);
    ("value pool not exhausted", not r.phase.writes.exhausted);
  ]

let notes r lat =
  [
    pct_note "op latency" lat;
    Printf.sprintf "ops: %d completed, %d failed in %.2f s; WS %s over %d ops, %d checks"
      (completed r.phase) (failed r.phase) r.phase.elapsed_s
      (Regemu_dst.Dst.verdict_class r.checker.Checker.ws)
      r.checker.Checker.ops_checked r.checker.Checker.checks;
  ]

(* CPU microseconds per op over the measured phase, every thread of
   the process included *)
let op_cpu_us r = r.cpu_s *. 1e6 /. float_of_int (max 1 (completed r.phase))

let run ~seed ~seconds spans =
  let r = measure ~seed ~seconds ~phase:1 spans in
  let lat = Pct.summarize (latencies r.phase) in
  let heap = Heap.peak_mb () in
  Cluster.shutdown r.sys.cluster;
  let ops = completed r.phase in
  {
    gates = gates r;
    attempted = ops + failed r.phase;
    failed = failed r.phase;
    metrics =
      [
        m "setup_s" "s" r.setup_s;
        m "op_cpu_us" "us" (op_cpu_us r);
        m "heap_peak_mb" "MB" heap;
        m "store_cells_total" "cells" (float_of_int r.cells_total);
        m "transitions_per_cpu_s" "1/cpu_s"
          (per_op r r.stats.Cluster.msgs_delivered /. (op_cpu_us r *. 1e-6));
      ];
    notes =
      notes r lat
      @ [
          Printf.sprintf "%.2f CPU s for %d ops: %.1f CPU us/op" r.cpu_s ops (op_cpu_us r);
        ];
  }

(* A traced run: an untraced half for the counters and the untraced
   median, then a traced half on a fresh cluster whose trace is joined
   by rid into the stages of each quorum round. *)
let traced_ops = 3000

let run_traced ~seed ~seconds spans =
  let half = Float.max 1.0 (seconds /. 2.0) in
  let r = measure ~seed ~seconds:half ~phase:1 spans in
  Cluster.shutdown r.sys.cluster;
  let lat = Pct.summarize (latencies r.phase) in
  let ops = completed r.phase in
  (* traced half: full sampling, rings large enough that nothing is
     overwritten (a client records ~15 events per op, a lane fewer) *)
  let trace = Sink.Trace.create ~ring_capacity:(traced_ops * 40) () in
  let metrics = Sink.Metrics.create () in
  let sink = Sink.make ~trace ~metrics () in
  let sys = build ~seed:(seed + 1) ~sink () in
  let values = gen_values ~seed:(seed + 1) (value_pool ~seconds:half) in
  let p =
    run_phase sys ~values ~next_value:(Atomic.make 0) ~phase:2 ~seconds:half
      ~max_ops:traced_ops spans
  in
  let tchk = Checker.stop sys.checker in
  let tstats = Cluster.stats sys.cluster in
  Cluster.shutdown sys.cluster;
  let events = Sink.Trace.events trace in
  let sends =
    Ridjoin.count_points events "send" + Ridjoin.count_points events "dup"
  in
  let j = Ridjoin.join events (Ridjoin.ops_of_trace events) in
  let ratio = Ridjoin.sum_ratio j in
  let per_op = per_op r in
  let g = gates r in
  {
    gates =
      g
      @ [
          ("traced run: WS verdict holds", tchk.Checker.ws = Regemu_history.Ws_check.Holds);
          ("trace: no event overwritten", Sink.Trace.dropped trace = 0);
          ( Printf.sprintf "trace: msg send points (%d) = transport.sent (%d)" sends
              tstats.Cluster.msgs_sent,
            sends = tstats.Cluster.msgs_sent );
          ( Printf.sprintf "stages.sum_ratio %.3f within [%.2f, %.2f]" ratio sum_ratio_lo
              sum_ratio_hi,
            ratio >= sum_ratio_lo && ratio <= sum_ratio_hi );
        ];
    attempted = ops + failed r.phase + completed p + failed p;
    failed = failed r.phase + failed p;
    metrics =
      stage_metrics j ~overhead:(overhead ~traced:(latencies p) ~untraced:(latencies r.phase))
      @ (let w = windowed r.phase in
         wall_metrics ~ops_per_s:w.rate ~p50:w.w_p50 ~p90:w.w_p90 lat)
      @ [
          m "transport.msgs_per_op" "msgs/op" (per_op r.stats.Cluster.msgs_sent);
          m "transport.delivered_ratio" "ratio"
            (float_of_int r.stats.Cluster.msgs_delivered
            /. float_of_int (max 1 r.stats.Cluster.msgs_sent));
          m "cluster.retries_per_op" "retries/op" (per_op r.stats.Cluster.retries);
          m "alg2.cells" "cells" (float_of_int (Alg2_live.cells r.sys.alg));
          m "histlog.bytes" "bytes" (float_of_int r.histlog_bytes);
          m "checker.checks" "count" (float_of_int r.checker.Checker.checks);
          m "checker.stop_s" "s" r.checker_stop_s;
          m "gc.major_collections" "count" (float_of_int r.majors);
          m "trace.events" "count" (float_of_int (List.length events));
        ]
      @ bypassed
          [
            ("kspace.server_cells_max", "cells");
            ("klog.bytes_peak", "bytes");
            ("kchecker.max_resident_ops", "ops");
            ("kchecker.checks", "count");
            ("kchecker.stop_s", "s");
            ("kchecker.vacuous_frac", "ratio");
            ("load.max_lateness_ms", "ms");
            ("load.late_frac", "ratio");
            ("load.due_p50_us", "us");
            ("load.due_p90_us", "us");
            ("dst.run_ms", "ms");
            ("dst.runs_per_cpu_s", "1/cpu_s");
            ("sched.steps_per_run", "steps");
            ("cgfuzz.novel_frac", "ratio");
            ("cgfuzz.edges", "count");
            ("dpor.explored", "count");
            ("dpor.replay_ratio", "ratio");
            ("dpor.pruned_ratio", "ratio");
          ];
    notes =
      notes r lat
      @ [
          Printf.sprintf "traced: %d ops joined of %d, %d rids, %d events, sum_ratio %.3f"
            j.joined j.ops j.rids (List.length events) ratio;
        ];
  }
