(* kv-open: keyed ABD ([Kspace]) over 10^5 keys, zipf 0.99, half
   writes, n=5, f=1, with the memory-bounded [Kchecker] on.  Two
   workers serve a Poisson arrival schedule in an open loop at a fixed
   rate well below saturation.

   Each op is timed twice: from its due time (what a user arriving on
   the schedule waits, stalls of the generator included) and from its
   start (the op's own service time).  The wall-clock view reports the
   service times as [client.*]: on a shared host the due-time tail
   follows how much CPU other tenants take (its p90 moved 0.63 -> 1.09
   ms between runs that lost 4% and 8% of their CPU, where the service
   p90 moved 0.48 -> 0.62 ms).  The due-time figures are [load.*], and a
   backlog at the end of the schedule fails the run. *)

open Regemu_objects
open Regemu_live
open Regemu_keyspace
open Perfbench_core
open Common

let n = 5
let f = 1
let keys = 100_000
let zipf = 0.99
let write_fraction = 0.5
let rate = 1000.0
let workers = 2
let budget_ops = 50_000

(* an op that starts this late after its due time counts as late *)
let late_threshold_ms = 1.0

(* The op stream, all drawn from the seed before timing starts. *)
type inputs = {
  due_ns : int64 array;  (** offset from the start of the schedule *)
  key : int array;
  is_write : bool array;
  value : int array;
}

(* cumulative zipf weights over ranks 1..keys *)
let zipf_cdf () =
  let c = Array.make keys 0.0 in
  let acc = ref 0.0 in
  for r = 0 to keys - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (r + 1)) zipf);
    c.(r) <- !acc
  done;
  Array.map (fun x -> x /. !acc) c

let sample_rank cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let gen_inputs ~seed ~total =
  let rng = Random.State.make [| seed; 0xc0ffee |] in
  let cdf = zipf_cdf () in
  (* rank -> key through an odd multiplier: a bijection on [0, keys)
     that scatters the hot ranks over the keyspace *)
  let mult = 7919 and off = Random.State.int rng keys in
  let t = ref 0.0 and v = ref 0 in
  let due_ns = Array.make total 0L and key = Array.make total 0 in
  let is_write = Array.make total false and value = Array.make total 0 in
  for i = 0 to total - 1 do
    t := !t -. (Float.log (1.0 -. Random.State.float rng 1.0) /. rate);
    due_ns.(i) <- Int64.of_float (!t *. 1e9);
    key.(i) <- ((sample_rank cdf (Random.State.float rng 1.0) * mult) + off) mod keys;
    is_write.(i) <- Random.State.float rng 1.0 < write_fraction;
    incr v;
    value.(i) <- !v
  done;
  { due_ns; key; is_write; value }

type sys = {
  cluster : Cluster.t;
  ks : Kspace.t;
  ws : Kspace.worker array;
  checker : Kchecker.t;
}

let build ~seed ?sink () =
  let cluster = Cluster.create ?sink (Cluster.default_config ~n ~seed) in
  let ks = Kspace.create cluster ~f () in
  let ws = Array.init workers (fun _ -> Kspace.new_worker ks) in
  Cluster.start cluster;
  let checker =
    Kchecker.spawn ?sink
      ~config:{ Kchecker.interval_s = 0.005; deep_sample = 512; deep_cap = 4096 }
      (Kspace.klog ks)
  in
  { cluster; ks; ws; checker }

let teardown s =
  ignore (Kchecker.stop s.checker);
  Cluster.shutdown s.cluster

type worker_result = {
  svc : Pct.Samples.t;  (** start -> done, microseconds *)
  lat : Pct.Samples.t;  (** due -> done, microseconds *)
  due_s : Pct.Samples.t;  (** their due times, seconds *)
  late_ms : Pct.Samples.t;  (** how late each started, milliseconds *)
  mutable failed : int;
  mutable spans : Spans.span list;
  mutable klog_peak : int;
}

(* Two workers pull the next op off the schedule, sleep until it is
   due, and run it; a worker that falls behind runs it late and the
   lateness counts against the latency. *)
let run_phase s inp ~phase spans =
  let total = Array.length inp.due_ns in
  let next = Atomic.make 0 in
  let t_start = Int64.add (now_ns ()) 1_000_000L in
  let work w =
    let r =
      {
        svc = Pct.Samples.create ~capacity:(total / workers + 1024) ();
        lat = Pct.Samples.create ~capacity:(total / workers + 1024) ();
        due_s = Pct.Samples.create ~capacity:(total / workers + 1024) ();
        late_ms = Pct.Samples.create ~capacity:(total / workers + 1024) ();
        failed = 0;
        spans = [];
        klog_peak = 0;
      }
    in
    let cid = Id.Client.to_int (Cluster.client_id (Kspace.worker_client w)) in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < total then begin
        let due = Int64.add t_start inp.due_ns.(i) in
        let wait = Int64.sub due (now_ns ()) in
        if Int64.compare wait 0L > 0 then Thread.delay (Int64.to_float wait *. 1e-9);
        let t0 = now_ns () in
        let lateness = Int64.sub t0 due in
        (match
           if inp.is_write.(i) then
             Kspace.write s.ks w ~key:inp.key.(i) (Value.Int inp.value.(i))
           else ignore (Kspace.read s.ks w ~key:inp.key.(i))
         with
        | () ->
            let t1 = now_ns () in
            Pct.Samples.push r.svc (us_between t0 t1);
            Pct.Samples.push r.lat (us_between due t1);
            Pct.Samples.push r.due_s (secs due);
            Pct.Samples.push r.late_ms (Int64.to_float lateness /. 1e6);
            r.spans <-
              {
                Spans.name = (if inp.is_write.(i) then "write" else "read");
                client = cid;
                t0;
                t1;
                parent = phase;
              }
              :: r.spans
        | exception (Cluster.Unavailable _ | Cluster.Timeout _) ->
            r.failed <- r.failed + 1);
        if i land 63 = 0 then begin
          Heap.sample ();
          r.klog_peak <- max r.klog_peak (Klog.approx_bytes (Kspace.klog s.ks))
        end;
        loop ()
      end
    in
    loop ();
    r
  in
  let results = Array.make workers None in
  let threads =
    Array.mapi
      (fun i w -> Thread.create (fun () -> results.(i) <- Some (work w)) ())
      s.ws
  in
  Array.iter Thread.join threads;
  let t_end = now_ns () in
  let rs = Array.to_list (Array.map Option.get results) in
  List.iter (fun r -> Spans.add_all spans r.spans; r.spans <- []) rs;
  (rs, t_start, secs_between t_start t_end)

let sum f rs = List.fold_left (fun a r -> a + f r) 0 rs

type measured = {
  sys : sys;
  rs : worker_result list;
  t_start : int64;  (** the schedule's origin *)
  schedule_s : float;  (** due time of the last op *)
  elapsed_s : float;
  setup_s : float;
  chk : Kchecker.result;
  chk_stop_s : float;
  majors : int;
  cpu_s : float;  (** process CPU seconds over the schedule *)
  cells_max : int;
  cells_total : int;
  stats : Cluster.stats;
  distinct_keys : int;
}

let measure ~seed ~seconds ~phase spans =
  let total = int_of_float (rate *. seconds) in
  let inp = gen_inputs ~seed ~total in
  let sys, setup_s = repeated_setup ~times:41 ~build:(fun () -> build ~seed ()) ~teardown in
  Heap.reset ();
  let majors0 = major_collections () and cpu0 = cpu_s () in
  let rs, t_start, elapsed_s = run_phase sys inp ~phase spans in
  let cpu = cpu_s () -. cpu0 in
  let majors = major_collections () - majors0 in
  let t0 = now_ns () in
  let chk = Kchecker.stop sys.checker in
  let chk_stop_s = secs_between t0 (now_ns ()) in
  let cells_max, cells_total = Kspace.server_cells sys.ks in
  let seen = Hashtbl.create 4096 in
  Array.iter (fun k -> Hashtbl.replace seen k ()) inp.key;
  {
    sys;
    rs;
    t_start;
    schedule_s = Int64.to_float inp.due_ns.(total - 1) *. 1e-9;
    elapsed_s;
    setup_s;
    chk;
    chk_stop_s;
    majors;
    cpu_s = cpu;
    cells_max;
    cells_total;
    stats = Cluster.stats sys.cluster;
    distinct_keys = Hashtbl.length seen;
  }

(* one per-op sample series, all workers *)
let cat f r = Array.concat (List.map (fun w -> Pct.Samples.to_array (f w)) r.rs)

let completed r = sum (fun w -> Pct.Samples.length w.lat) r.rs
let failed r = sum (fun w -> w.failed) r.rs
let lateness = cat (fun w -> w.late_ms)

let late_frac r =
  let l = lateness r in
  float_of_int (Array.fold_left (fun a x -> if x > late_threshold_ms then a + 1 else a) 0 l)
  /. float_of_int (max 1 (Array.length l))

let max_late_ms r = Array.fold_left Float.max 0.0 (lateness r)

(* The generator fell behind when a backlog is still there at the end
   of the schedule: the ops due in its last second started, at the
   median, more than this late.  A stall that the workers recover from
   (a GC pause, a descheduled vCPU) delays some ops but leaves the last
   second on time; a rate the system cannot serve does not. *)
let backlog_limit_ms = 50.0

let final_backlog_ms r =
  let last = ref [] in
  List.iter
    (fun w ->
      let due = Pct.Samples.to_array w.due_s and late = Pct.Samples.to_array w.late_ms in
      Array.iteri
        (fun i d -> if d >= secs r.t_start +. r.schedule_s -. 1.0 then last := late.(i) :: !last)
        due)
    r.rs;
  Pct.median (Array.of_list !last)

let gates r =
  [
    ("kchecker: no violation", r.chk.Kchecker.violations = 0);
    ("kchecker: no deep mismatch", r.chk.Kchecker.deep_mismatches = 0);
    ( Printf.sprintf "kchecker: resident ops %d within budget %d" r.chk.Kchecker.max_resident_ops
        budget_ops,
      r.chk.Kchecker.max_resident_ops <= budget_ops );
    ("no operation failed", failed r = 0);
    ( Printf.sprintf "generator kept up: median lateness in the last second %.3f ms <= %.0f ms"
        (final_backlog_ms r) backlog_limit_ms,
      final_backlog_ms r <= backlog_limit_ms );
  ]

let latencies = cat (fun w -> w.svc)
let due_latencies = cat (fun w -> w.lat)

(* per-window latency medians by due time, four windows a second of
   schedule (the achieved rate is whole-run: it should equal the
   offered rate) *)
let windowed r values =
  let t0 = secs r.t_start in
  Pct.windowed ~t_start:t0 ~t_end:(t0 +. r.schedule_s)
    ~windows:(max 1 (int_of_float (4.0 *. r.schedule_s)))
    ~times:(cat (fun w -> w.due_s) r) ~values

let notes r lat =
  [
    pct_note "op service time" lat;
    pct_note "op latency from due time" (Pct.summarize (due_latencies r));
    Printf.sprintf
      "ops: %d completed, %d failed in %.2f s at %.0f offered/s; late %.4f, max lateness %.2f ms; \
       %d checks, %d broken keys of %d"
      (completed r) (failed r) r.elapsed_s rate (late_frac r) (max_late_ms r)
      r.chk.Kchecker.checks r.chk.Kchecker.broken_keys r.distinct_keys;
  ]

(* CPU microseconds per op over the schedule, every thread included *)
let op_cpu_us r = r.cpu_s *. 1e6 /. float_of_int (max 1 (completed r))

let run ~seed ~seconds spans =
  let r = measure ~seed ~seconds ~phase:1 spans in
  let lat = Pct.summarize (latencies r) in
  let heap = Heap.peak_mb () in
  Cluster.shutdown r.sys.cluster;
  {
    gates = gates r;
    attempted = completed r + failed r;
    failed = failed r;
    metrics =
      [
        m "setup_s" "s" r.setup_s;
        m "op_cpu_us" "us" (op_cpu_us r);
        m "heap_peak_mb" "MB" heap;
        m "store_cells_total" "cells" (float_of_int r.cells_total);
        m "transitions_per_cpu_s" "1/cpu_s"
          (float_of_int r.stats.Cluster.msgs_delivered /. r.cpu_s);
      ];
    notes =
      notes r lat
      @ [
          Printf.sprintf "%.2f CPU s for %d ops: %.1f CPU us/op" r.cpu_s (completed r)
            (op_cpu_us r);
        ];
  }

let traced_seconds = 1.5

let run_traced ~seed ~seconds spans =
  let untraced_s = Float.max 1.0 (seconds -. traced_seconds) in
  let r = measure ~seed ~seconds:untraced_s ~phase:1 spans in
  Cluster.shutdown r.sys.cluster;
  let lat = Pct.summarize (latencies r) in
  let due = windowed r (due_latencies r) in
  let ops = completed r in
  let klog_peak = List.fold_left (fun a w -> max a w.klog_peak) 0 r.rs in
  (* traced phase: a fresh cluster, the same rate, a short schedule *)
  let total = int_of_float (rate *. traced_seconds) in
  let trace = Sink.Trace.create ~ring_capacity:(total * 40) () in
  let sink = Sink.make ~trace ~metrics:(Sink.Metrics.create ()) () in
  let sys = build ~seed:(seed + 1) ~sink () in
  let inp = gen_inputs ~seed:(seed + 1) ~total in
  let rs, _, _ = run_phase sys inp ~phase:2 spans in
  let tchk = Kchecker.stop sys.checker in
  let tstats = Cluster.stats sys.cluster in
  Cluster.shutdown sys.cluster;
  let events = Sink.Trace.events trace in
  let sends = Ridjoin.count_points events "send" + Ridjoin.count_points events "dup" in
  (* the keyspace records no op spans: join on the benchmark's own *)
  let j = Ridjoin.join events (Spans.to_ops spans ~parent:2) in
  let per_op x = float_of_int x /. float_of_int (max 1 ops) in
  let tfailed = sum (fun w -> w.failed) rs in
  {
    gates =
      gates r
      @ [
          ("traced run: kchecker no violation", tchk.Kchecker.violations = 0);
          ("trace: no event overwritten", Sink.Trace.dropped trace = 0);
          ( Printf.sprintf "trace: msg send points (%d) = transport.sent (%d)" sends
              tstats.Cluster.msgs_sent,
            sends = tstats.Cluster.msgs_sent );
        ];
    attempted = ops + failed r + sum (fun w -> Pct.Samples.length w.lat) rs + tfailed;
    failed = failed r + tfailed;
    metrics =
      stage_metrics j
        ~overhead:(overhead ~traced:(latencies { r with rs }) ~untraced:(latencies r))
      @ (let w = windowed r (latencies r) in
         wall_metrics
           ~ops_per_s:(float_of_int ops /. r.elapsed_s)
           ~p50:w.w_p50 ~p90:w.w_p90 lat)
      @ [
          m "transport.msgs_per_op" "msgs/op" (per_op r.stats.Cluster.msgs_sent);
          m "transport.delivered_ratio" "ratio"
            (float_of_int r.stats.Cluster.msgs_delivered
            /. float_of_int (max 1 r.stats.Cluster.msgs_sent));
          m "cluster.retries_per_op" "retries/op" (per_op r.stats.Cluster.retries);
          m "kspace.server_cells_max" "cells" (float_of_int r.cells_max);
          m "klog.bytes_peak" "bytes" (float_of_int klog_peak);
          m "kchecker.max_resident_ops" "ops" (float_of_int r.chk.Kchecker.max_resident_ops);
          m "kchecker.checks" "count" (float_of_int r.chk.Kchecker.checks);
          m "kchecker.stop_s" "s" r.chk_stop_s;
          m "kchecker.vacuous_frac" "ratio"
            (float_of_int r.chk.Kchecker.broken_keys /. float_of_int (max 1 r.distinct_keys));
          m "load.max_lateness_ms" "ms" (max_late_ms r);
          m "load.late_frac" "ratio" (late_frac r);
          m "load.due_p50_us" "us" due.w_p50;
          m "load.due_p90_us" "us" due.w_p90;
          m "gc.major_collections" "count" (float_of_int r.majors);
          m "trace.events" "count" (float_of_int (List.length events));
        ]
      @ bypassed
          [
            ("alg2.cells", "cells");
            ("histlog.bytes", "bytes");
            ("checker.checks", "count");
            ("checker.stop_s", "s");
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
            j.joined j.ops j.rids (List.length events) (Ridjoin.sum_ratio j);
        ];
  }
