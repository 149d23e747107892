(* What every workload shares: the clock, the heap sampler, repeated
   set-up, the benchmark's own spans, and the shape of a workload's
   report. *)

open Perfbench_core

(* The monotonic clock the live runtime's trace also reads, so the
   benchmark's spans and the trace's events share one time axis. *)
let now_ns () = Monotonic_clock.now ()

let secs t = Int64.to_float t *. 1e-9
let secs_between a b = Int64.to_float (Int64.sub b a) *. 1e-9
let us_between a b = Int64.to_float (Int64.sub b a) *. 1e-3

(* CPU seconds this process has run (user + system, all threads): time
   a descheduled vCPU loses to other tenants is not in it *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak major heap of this workload alone.  [top_heap_words] is exact
   but never resets within a process, so it serves only the first
   workload a process runs; later ones (the "all" mode) fall back to
   the largest [heap_words] their loops sampled, which can miss a
   short-lived peak. *)
module Heap = struct
  let peak = ref 0
  let first_workload = ref true

  let sample () =
    let w = (Gc.quick_stat ()).Gc.heap_words in
    if w > !peak then peak := w

  let reset () =
    Gc.compact ();
    peak := 0;
    sample ()

  let peak_mb () =
    sample ();
    let words =
      if !first_workload then (Gc.quick_stat ()).Gc.top_heap_words else !peak
    in
    first_workload := false;
    float_of_int (words * (Sys.word_size / 8)) /. 1048576.0
end

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* [build] [times] times, tearing down all but the last build; the
   median build time is the workload's set-up time *)
let repeated_setup ~times ~build ~teardown =
  let rec go i acc =
    let t0 = now_ns () in
    let x = build () in
    let dt = secs_between t0 (now_ns ()) in
    if i + 1 < times then begin
      teardown x;
      go (i + 1) (dt :: acc)
    end
    else (x, Pct.median (Array.of_list (dt :: acc)))
  in
  go 0 []

(* The benchmark's own spans, one per call into the program, kept in
   memory and written out when the run ends. *)
module Spans = struct
  type span = {
    name : string;
    client : int;
    t0 : int64;
    t1 : int64;
    parent : int;  (** id of the enclosing phase span *)
  }

  type t = { mutable spans : span list; m : Mutex.t }

  let create () = { spans = []; m = Mutex.create () }

  (* a loop keeps its spans in a local list and adds them once *)
  let add_all t l =
    Mutex.lock t.m;
    t.spans <- List.rev_append l t.spans;
    Mutex.unlock t.m

  let to_ops t ~parent =
    List.filter_map
      (fun s ->
        if s.parent = parent then
          Some { Ridjoin.client = s.client; t0 = s.t0; t1 = s.t1 }
        else None)
      t.spans

  (* phase 1 is the untraced measurement, 2 the traced one *)
  let phase_name = function 1 -> "untraced" | 2 -> "traced" | _ -> "other"

  let write t ~path ~machine =
    let spans = List.stable_sort (fun a b -> Int64.compare a.t0 b.t0) t.spans in
    let oc = open_out path in
    Printf.fprintf oc "%s\n" machine;
    List.iter
      (fun p ->
        let mine = List.filter (fun s -> s.parent = p) spans in
        let lo = List.fold_left (fun a s -> min a s.t0) Int64.max_int mine in
        let hi = List.fold_left (fun a s -> max a s.t1) Int64.min_int mine in
        Printf.fprintf oc
          "{\"id\": %d, \"name\": %S, \"start_ns\": %Ld, \"end_ns\": %Ld, \"parent\": null}\n"
          p (phase_name p) lo hi)
      (List.sort_uniq compare (List.map (fun s -> s.parent) spans));
    List.iteri
      (fun i s ->
        Printf.fprintf oc
          "{\"id\": %d, \"name\": %S, \"start_ns\": %Ld, \"end_ns\": %Ld, \"parent\": %d, \"op\": %d, \"client\": %d}\n"
          (1000 + i) s.name s.t0 s.t1 s.parent i s.client)
      spans;
    close_out oc
end

(* A workload's report: its gates, its counts, and its metrics.  A gate
   that fails makes the run incorrect; its numbers are still printed
   for diagnosis but the run exits non-zero. *)
type report = {
  gates : (string * bool) list;
  attempted : int;
  failed : int;
  metrics : Line.metric list;
  notes : string list;  (** human-readable lines printed before the result *)
}

let m name unit_ value = { Line.name; unit_; value }

(* the per-layer metrics of layers a workload does not load: it reads
   them as 0, which is what they measure there *)
let bypassed names = List.map (fun (n, u) -> m n u 0.0) names

let pct_note name (s : Pct.summary) =
  Printf.sprintf "%s: p50 %.1f us, p90 %.1f us, p99 %.1f us (n=%d)" name s.p50
    s.p90 s.p99 s.count

(* Stage metrics from a join, shared by every traced workload. *)
let stage_metrics (j : Ridjoin.t) ~overhead =
  let md = Pct.median in
  [
    m "transport.req_us" "us" (md j.req_us);
    m "transport.reply_us" "us" (md j.reply_us);
    m "proto.step_us" "us" (md j.step_us);
    m "cluster.await_us" "us" (md j.await_us);
    m "cluster.wake_us" "us" (md j.wake_us);
    m "client.op_self_us" "us" (md j.self_us);
    m "stages.client_us" "us" (md j.crit_client_us);
    m "stages.req_us" "us" (md j.crit_req_us);
    m "stages.step_us" "us" (md j.crit_step_us);
    m "stages.reply_us" "us" (md j.crit_reply_us);
    m "stages.wake_us" "us" (md j.crit_wake_us);
    m "stages.sum_ratio" "ratio" (Ridjoin.sum_ratio j);
    m "stages.joined_frac" "ratio"
      (if j.ops = 0 then 0.0 else float_of_int j.joined /. float_of_int j.ops);
    m "trace.overhead_frac" "ratio" overhead;
  ]

(* traced over untraced median, minus one *)
let overhead ~traced ~untraced = (Pct.median traced /. Pct.median untraced) -. 1.0

(* The wall-clock view of the ops, per layer: on a shared host it
   measures the neighbours as much as the code (see perfbench/README.md),
   so the end-to-end metrics are CPU costs instead. *)
let wall_metrics ~ops_per_s ~p50 ~p90 (s : Pct.summary) =
  [
    m "client.ops_per_s" "1/s" ops_per_s;
    m "client.op_p50_us" "us" p50;
    m "client.op_p90_us" "us" p90;
    m "client.op_p99_us" "us" s.p99;
    m "client.op_samples" "count" (float_of_int s.count);
  ]

(* The tolerance BENCHMARK.json states for [stages.sum_ratio]. *)
let sum_ratio_lo = 0.6
let sum_ratio_hi = 1.25
