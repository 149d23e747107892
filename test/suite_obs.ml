(* Tests for the observability layer: the overwrite ring, the tracing
   core and its sampling, the metrics registry and its snapshot schema,
   the Chrome/timeline exporters — and the agreements the docs promise:
   a fixed DST schedule yields a byte-identical trace, and the metrics
   snapshot agrees with the benchmark outcome's own counts. *)

open Regemu_obs
module Bench = Regemu_bench.Bench

let test name f = Alcotest.test_case name `Quick f

(* a deterministic fake clock: every reading advances 1 µs *)
let with_fake_clock f =
  let t = ref 0L in
  Clock.set_source (fun () ->
      t := Int64.add !t 1_000L;
      !t);
  Fun.protect ~finally:Clock.clear_source f

(* --- the overwrite ring --------------------------------------------------- *)

let ring_tests =
  [
    test "under capacity: fifo order, nothing dropped" (fun () ->
        let r = Ring.create ~capacity:4 ~dummy:0 in
        List.iter (Ring.push r) [ 1; 2; 3 ];
        Alcotest.(check (list int)) "held" [ 1; 2; 3 ] (Ring.to_list r);
        Alcotest.(check int) "length" 3 (Ring.length r);
        Alcotest.(check int) "pushed" 3 (Ring.pushed r);
        Alcotest.(check int) "dropped" 0 (Ring.dropped r));
    test "over capacity: oldest entries are overwritten" (fun () ->
        let r = Ring.create ~capacity:3 ~dummy:0 in
        List.iter (Ring.push r) [ 1; 2; 3; 4; 5 ];
        Alcotest.(check (list int)) "newest window" [ 3; 4; 5 ] (Ring.to_list r);
        Alcotest.(check int) "length capped" 3 (Ring.length r);
        Alcotest.(check int) "pushed counts everything" 5 (Ring.pushed r);
        Alcotest.(check int) "dropped = pushed - held" 2 (Ring.dropped r));
    test "wrap keeps working after many laps" (fun () ->
        let r = Ring.create ~capacity:2 ~dummy:0 in
        for i = 1 to 100 do
          Ring.push r i
        done;
        Alcotest.(check (list int)) "last two" [ 99; 100 ] (Ring.to_list r);
        Alcotest.(check int) "dropped" 98 (Ring.dropped r));
    test "clear forgets entries, keeps capacity" (fun () ->
        let r = Ring.create ~capacity:3 ~dummy:0 in
        List.iter (Ring.push r) [ 1; 2 ];
        Ring.clear r;
        Alcotest.(check (list int)) "empty" [] (Ring.to_list r);
        Alcotest.(check int) "capacity" 3 (Ring.capacity r);
        Ring.push r 9;
        Alcotest.(check (list int)) "usable again" [ 9 ] (Ring.to_list r));
    test "non-positive capacity is rejected" (fun () ->
        Alcotest.check_raises "zero"
          (Invalid_argument "Ring.create: capacity must be >= 1") (fun () ->
            ignore (Ring.create ~capacity:0 ~dummy:0)));
  ]

(* the ring against its model: a list cut to the newest [capacity]
   entries, with [pushed] counted separately.  Capacities straddle the
   initial allocation so growth, the first wrap, and capacity 1 are all
   exercised, and runs push well past capacity. *)
let ring_model_property =
  let gen =
    QCheck.Gen.(
      let* capacity = oneof [ return 1; int_range 1 8; int_range 60 200 ] in
      let* ops =
        list_size (int_range 0 600)
          (frequency
             [ (40, map (fun x -> Some x) small_nat); (1, return None) ])
      in
      return (capacity, ops))
  in
  let print (capacity, ops) =
    Fmt.str "capacity=%d ops=%d" capacity (List.length ops)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"ring matches a bounded-list model" ~count:200
       (QCheck.make gen ~print)
       (fun (capacity, ops) ->
         let r = Ring.create ~capacity ~dummy:(-1) in
         let keep_newest l =
           let n = List.length l in
           List.filteri (fun i _ -> i >= n - capacity) l
         in
         let model = ref [] and pushed = ref 0 in
         List.for_all
           (fun op ->
             (match op with
             | Some x ->
                 Ring.push r x;
                 model := keep_newest (!model @ [ x ]);
                 incr pushed
             | None ->
                 Ring.clear r;
                 model := [];
                 pushed := 0);
             Ring.to_list r = !model
             && Ring.length r = List.length !model
             && Ring.pushed r = !pushed
             && Ring.dropped r = !pushed - List.length !model
             && Ring.capacity r = capacity)
           ops))

(* --- the tracing core ----------------------------------------------------- *)

let phs r =
  List.map (fun (e : Event.t) -> e.Event.ph) (Trace.recorder_events r)

let trace_tests =
  [
    test "spans bracket and seq is a per-recorder monotone rank" (fun () ->
        with_fake_clock @@ fun () ->
        let tr = Trace.create () in
        let r = Trace.recorder tr ~name:"w" in
        Trace.span_begin r ~cat:"op" "outer";
        Trace.span_begin r ~cat:"op" "inner";
        Trace.instant r ~cat:"msg" "send";
        Trace.span_end r ~cat:"op" "inner";
        Trace.span_end r ~cat:"op" "outer";
        Alcotest.(check bool)
          "phases bracket" true
          (phs r
          = Event.[ Begin; Begin; Instant; End; End ]);
        let seqs =
          List.map (fun (e : Event.t) -> e.Event.seq) (Trace.recorder_events r)
        in
        Alcotest.(check (list int)) "seq ranks" [ 0; 1; 2; 3; 4 ] seqs);
    test "merged view orders by (ts, recorder id, seq)" (fun () ->
        with_fake_clock @@ fun () ->
        let tr = Trace.create () in
        let a = Trace.recorder tr ~name:"a" in
        let b = Trace.recorder tr ~name:"b" in
        Trace.instant b ~cat:"msg" "b0";
        (* ts 1000 *)
        Trace.instant a ~cat:"msg" "a0";
        (* ts 2000 *)
        Trace.instant b ~cat:"msg" "b1";
        (* ts 3000 *)
        Alcotest.(check (list string))
          "merged order" [ "b0"; "a0"; "b1" ]
          (List.map (fun (_, (e : Event.t)) -> e.Event.name) (Trace.events tr)));
    test "1-in-N sampling keeps every Nth decision, from the first" (fun () ->
        let tr = Trace.create ~ops_every:3 ~msgs_every:2 () in
        let r = Trace.recorder tr ~name:"c" in
        Alcotest.(check (list bool))
          "ops 1-in-3"
          [ true; false; false; true; false; false; true ]
          (List.init 7 (fun _ -> Trace.sample_op r));
        Alcotest.(check (list bool))
          "msgs 1-in-2"
          [ true; false; true; false ]
          (List.init 4 (fun _ -> Trace.sample_msg r)));
    test "full sampling never says no" (fun () ->
        let tr = Trace.create () in
        let r = Trace.recorder tr ~name:"c" in
        Alcotest.(check bool) "all yes" true
          (List.for_all Fun.id (List.init 20 (fun _ -> Trace.sample_op r))));
    test "non-positive knobs are rejected" (fun () ->
        Alcotest.check_raises "ops_every"
          (Invalid_argument "Trace.create: ops_every >= 1") (fun () ->
            ignore (Trace.create ~ops_every:0 ())));
    test "ring overwrite surfaces in recorded/dropped totals" (fun () ->
        with_fake_clock @@ fun () ->
        let tr = Trace.create ~ring_capacity:4 () in
        let r = Trace.recorder tr ~name:"w" in
        for _ = 1 to 10 do
          Trace.instant r ~cat:"msg" "send"
        done;
        Alcotest.(check int) "recorded" 10 (Trace.recorded tr);
        Alcotest.(check int) "dropped" 6 (Trace.dropped tr);
        Alcotest.(check int)
          "held" 4
          (List.length (Trace.recorder_events r)));
  ]

(* --- the metrics registry ------------------------------------------------- *)

let metric_value mx name =
  match Metrics.find mx name with
  | None -> Alcotest.failf "metric %S not in the registry" name
  | Some j -> (
      match Json.(member "value" j |> Option.map to_int_opt |> Option.join) with
      | Some v -> v
      | None -> Alcotest.failf "metric %S has no integer value" name)

let metrics_tests =
  [
    test "counters and gauges register, update, and snapshot" (fun () ->
        let mx = Metrics.create () in
        let c = Metrics.counter mx ~help:"h" "reqs" in
        let g = Metrics.gauge mx ~unit_:"bytes" "depth" in
        Metrics.incr c;
        Metrics.add c 4;
        Metrics.set g 17;
        Alcotest.(check int) "counter" 5 (metric_value mx "reqs");
        Alcotest.(check int) "gauge" 17 (metric_value mx "depth");
        match Metrics.validate_snapshot (Metrics.snapshot mx) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "snapshot failed validation: %s" e);
    test "registration is idempotent: same name, same handle" (fun () ->
        let mx = Metrics.create () in
        let c1 = Metrics.counter mx "reqs" in
        let c2 = Metrics.counter mx "reqs" in
        Metrics.incr c1;
        Metrics.incr c2;
        Alcotest.(check bool) "physically shared" true (c1 == c2);
        Alcotest.(check int) "one metric accumulates" 2 (metric_value mx "reqs");
        let n_metrics =
          match Json.member "metrics" (Metrics.snapshot mx) with
          | Some (Json.List l) -> List.length l
          | _ -> -1
        in
        Alcotest.(check int) "snapshot has one entry" 1 n_metrics);
    test "re-registering under a different kind is refused" (fun () ->
        let mx = Metrics.create () in
        ignore (Metrics.counter mx "reqs");
        Alcotest.check_raises "kind clash"
          (Invalid_argument "Metrics: \"reqs\" re-registered with a different kind")
          (fun () -> ignore (Metrics.gauge mx "reqs")));
    test "histograms bucket by inclusive upper bound, +inf implied" (fun () ->
        let mx = Metrics.create () in
        let h = Metrics.histogram mx ~edges:[| 10; 20 |] "lat" in
        List.iter (Metrics.observe h) [ 5; 10; 15; 25; 1000 ];
        Alcotest.(check (array int))
          "buckets" [| 2; 1; 2 |] (Metrics.hist_buckets h);
        Alcotest.(check int) "count" 5 (Metrics.hist_count h);
        Alcotest.(check int) "sum" 1055 (Metrics.hist_sum h);
        match Metrics.validate_snapshot (Metrics.snapshot mx) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "snapshot failed validation: %s" e);
    test "histogram re-registration must keep the same edges" (fun () ->
        let mx = Metrics.create () in
        let h1 = Metrics.histogram mx ~edges:[| 1; 2 |] "lat" in
        let h2 = Metrics.histogram mx ~edges:[| 1; 2 |] "lat" in
        Alcotest.(check bool) "same handle" true (h1 == h2);
        Alcotest.check_raises "edge clash"
          (Invalid_argument "Metrics: \"lat\" re-registered with a different kind")
          (fun () -> ignore (Metrics.histogram mx ~edges:[| 9 |] "lat")));
    test "polled gauges read at snapshot time; latest poller wins" (fun () ->
        let mx = Metrics.create () in
        let v = ref 1 in
        Metrics.gauge_fn mx "live" (fun () -> !v);
        v := 42;
        Alcotest.(check int) "polled late" 42 (metric_value mx "live");
        Metrics.gauge_fn mx "live" (fun () -> 7);
        Alcotest.(check int) "replaced" 7 (metric_value mx "live"));
    test "snapshot lists metrics sorted by name" (fun () ->
        let mx = Metrics.create () in
        ignore (Metrics.counter mx "zeta");
        ignore (Metrics.counter mx "alpha");
        let names =
          match Json.member "metrics" (Metrics.snapshot mx) with
          | Some (Json.List l) ->
              List.filter_map
                (fun m ->
                  Json.(member "name" m |> Option.map to_str_opt |> Option.join))
                l
          | _ -> []
        in
        Alcotest.(check (list string)) "sorted" [ "alpha"; "zeta" ] names);
    test "validate_snapshot rejects junk" (fun () ->
        let reject doc =
          match Metrics.validate_snapshot doc with
          | Error _ -> ()
          | Ok () -> Alcotest.fail "accepted a malformed snapshot"
        in
        reject (Json.Obj []);
        reject (Json.Obj [ ("schema", Json.Str "regemu-bench/1") ]);
        reject
          (Json.Obj
             [
               ("schema", Json.Str Metrics.schema);
               ( "metrics",
                 Json.List [ Json.Obj [ ("name", Json.Str "x") ] ] );
             ]);
        (* duplicate names *)
        let m =
          Json.Obj
            [
              ("name", Json.Str "x");
              ("type", Json.Str "counter");
              ("value", Json.Int 0);
            ]
        in
        reject
          (Json.Obj
             [
               ("schema", Json.Str Metrics.schema);
               ("metrics", Json.List [ m; m ]);
             ]));
  ]

(* --- the exporters -------------------------------------------------------- *)

let export_tests =
  [
    test "chrome export matches the golden document" (fun () ->
        with_fake_clock @@ fun () ->
        let tr = Trace.create () in
        let r = Trace.recorder tr ~name:"client-0" in
        Trace.span_begin r ~cat:"op"
          ~args:[ ("value", Event.S "v1") ]
          "write";
        Trace.instant r ~cat:"msg" ~args:[ ("rid", Event.I 7) ] "send";
        Trace.span_end r ~cat:"op" "write";
        let open Json in
        let ev ~name ~cat ~ph ~ts ~args =
          Obj
            [
              ("name", Str name);
              ("cat", Str cat);
              ("ph", Str ph);
              ("ts", Int ts);
              ("pid", Int 1);
              ("tid", Int 0);
              ("args", Obj args);
            ]
        in
        let expected =
          Obj
            [
              ("schema", Str "regemu-trace/1");
              ("displayTimeUnit", Str "ms");
              ("recorded", Int 3);
              ("dropped", Int 0);
              ( "traceEvents",
                List
                  [
                    Obj
                      [
                        ("name", Str "thread_name");
                        ("ph", Str "M");
                        ("pid", Int 1);
                        ("tid", Int 0);
                        ("args", Obj [ ("name", Str "client-0") ]);
                      ];
                    ev ~name:"write" ~cat:"op" ~ph:"B" ~ts:1
                      ~args:
                        [
                          ("tsns", Int 1000); ("seq", Int 0);
                          ("value", Str "v1");
                        ];
                    ev ~name:"send" ~cat:"msg" ~ph:"i" ~ts:2
                      ~args:[ ("tsns", Int 2000); ("seq", Int 1); ("rid", Int 7) ];
                    ev ~name:"write" ~cat:"op" ~ph:"E" ~ts:3
                      ~args:[ ("tsns", Int 3000); ("seq", Int 2) ];
                  ] );
            ]
        in
        Alcotest.(check string)
          "golden" (to_string expected)
          (to_string (Export.chrome_json tr)));
    test "an exported trace validates and round-trips exactly" (fun () ->
        with_fake_clock @@ fun () ->
        let tr = Trace.create () in
        let a = Trace.recorder tr ~name:"a" in
        let b = Trace.recorder tr ~name:"b" in
        Trace.span_begin a ~cat:"op" ~args:[ ("n", Event.I 3) ] "read";
        Trace.instant b ~cat:"fault" ~args:[ ("wiped", Event.B true) ] "restart";
        Trace.span_end a ~cat:"op" ~args:[ ("result", Event.S "v0") ] "read";
        let doc = Export.chrome_json tr in
        (match Export.validate_chrome doc with
        | Ok () -> ()
        | Error e -> Alcotest.failf "validation: %s" e);
        (* survive a serialization round trip too *)
        match Json.of_string (Json.to_string doc) with
        | Error e -> Alcotest.failf "reparse: %s" e
        | Ok doc' -> (
            match Export.of_chrome_json doc' with
            | Error e -> Alcotest.failf "import: %s" e
            | Ok rows ->
                Alcotest.(check bool)
                  "rows = original tagged events" true
                  (rows = Trace.events tr)));
    test "validate_chrome rejects wrong schemas and unknown phases" (fun () ->
        let reject doc =
          match Export.validate_chrome doc with
          | Error _ -> ()
          | Ok () -> Alcotest.fail "accepted a malformed trace"
        in
        reject (Json.Obj []);
        reject (Json.Obj [ ("schema", Json.Str "regemu-dst/1") ]);
        reject
          (Json.Obj
             [
               ("schema", Json.Str Export.schema);
               ( "traceEvents",
                 Json.List
                   [ Json.Obj [ ("ph", Json.Str "X"); ("tid", Json.Int 0) ] ] );
             ]));
    test "the text timeline indents span nesting and offsets times" (fun () ->
        with_fake_clock @@ fun () ->
        let tr = Trace.create () in
        let r = Trace.recorder tr ~name:"c0" in
        Trace.span_begin r ~cat:"op" "write";
        Trace.span_begin r ~cat:"op" "await";
        Trace.span_end r ~cat:"op" "await";
        Trace.span_end r ~cat:"op" "write";
        let s = Export.timeline tr in
        Alcotest.(check bool)
          "outer at depth 0" true
          (Astring_contains.contains s "c0  > op/write");
        Alcotest.(check bool)
          "inner indented" true
          (Astring_contains.contains s "c0    > op/await");
        Alcotest.(check bool)
          "first line at t=0" true
          (Astring_contains.contains s "0.000");
        Alcotest.(check string)
          "empty trace renders a placeholder" "(empty trace)\n"
          (Export.timeline_of_events []));
  ]

(* --- determinism under DST ------------------------------------------------ *)

let dst_trace () =
  let tr = Trace.create () in
  let mx = Metrics.create () in
  let sink = Regemu_live.Sink.make ~trace:tr ~metrics:mx () in
  let cfg =
    { (Regemu_dst.Dst.default_config ~seed:31) with
      Regemu_dst.Dst.ops_per_client = 4 }
  in
  let o = Regemu_dst.Dst.run ~sink cfg in
  (Json.to_string (Export.chrome_json tr),
   Json.to_string (Metrics.snapshot mx),
   o)

let determinism_tests =
  [
    test "one DST schedule exports a byte-identical trace and snapshot"
      (fun () ->
        let t1, m1, o1 = dst_trace () in
        let t2, m2, o2 = dst_trace () in
        Alcotest.(check string)
          "run digests" (Regemu_dst.Dst.run_digest o1)
          (Regemu_dst.Dst.run_digest o2);
        Alcotest.(check string) "chrome traces" t1 t2;
        Alcotest.(check string) "metrics snapshots" m1 m2);
    test "the committed counterexample replays to one exact trace" (fun () ->
        let path =
          if Sys.file_exists "dst_replay_sample.json" then
            "dst_replay_sample.json"
          else "test/dst_replay_sample.json"
        in
        match Regemu_dst.Dst_fuzz.read_replay path with
        | Error e -> Alcotest.failf "%s: %s" path e
        | Ok spec ->
            let traced () =
              let tr = Trace.create () in
              let sink = Regemu_live.Sink.make ~trace:tr () in
              let r = Regemu_dst.Dst_fuzz.replay ~sink spec in
              Alcotest.(check bool)
                "replay reproduced" true
                (Regemu_dst.Dst_fuzz.replay_matched r);
              Json.to_string (Export.chrome_json tr)
            in
            Alcotest.(check string) "byte-identical" (traced ()) (traced ()));
  ]

(* --- agreement with the benchmark's own counts ---------------------------- *)

(* the satellite bugfix guard: the trace and the metrics snapshot must
   agree with what lands in BENCH_live.json — each wire send counted
   exactly once (retransmissions included, duplicates as duplicates) *)
let agreement_tests =
  [
    test "metrics snapshot = outcome counts on a chaos run" (fun () ->
        let open Regemu_live in
        let mx = Metrics.create () in
        let sink = Sink.make ~metrics:mx () in
        let spec =
          {
            (Bench.closed ~algo:Live_bench.Abd ~seed:9
               { k = 1; readers = 3; ops_per_client = 15 })
            with
            chaos = true;
          }
        in
        let o = Bench.run ~sink spec in
        let st = o.stats in
        let pairs =
          [
            ("transport.sent", st.msgs_sent);
            ("transport.delivered", st.msgs_delivered);
            ("transport.duplicated", st.msgs_duplicated);
            ("transport.delayed", st.msgs_delayed);
            ("transport.dropped", st.msgs_dropped);
            ("transport.cut", st.msgs_cut);
            ("client.retries", st.retries);
            ("client.unavailable", st.unavailable);
            ("ops.completed", o.ops);
            ("cluster.crashes", st.crashes);
            ("cluster.restarts", st.restarts);
          ]
        in
        List.iter
          (fun (name, expect) ->
            Alcotest.(check int) name expect (metric_value mx name))
          pairs;
        match Metrics.validate_snapshot (Metrics.snapshot mx) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "snapshot failed validation: %s" e);
    test "full-sampling trace counts each wire send exactly once" (fun () ->
        let open Regemu_live in
        let tr = Trace.create () in
        let sink = Sink.make ~trace:tr () in
        let o =
          Bench.run ~sink
            (Bench.closed ~algo:Live_bench.Abd ~seed:4
               { k = 1; readers = 3; ops_per_client = 15 })
        in
        Alcotest.(check bool) "clean" true (Bench.clean o);
        Alcotest.(check int) "no ring overwrite" 0 (Trace.dropped tr);
        let count p =
          List.length (List.filter (fun (_, e) -> p e) (Trace.events tr))
        in
        let is name (e : Event.t) = e.Event.cat = "msg" && e.Event.name = name in
        Alcotest.(check int)
          "send events = msgs_sent" o.stats.msgs_sent (count (is "send"));
        Alcotest.(check int)
          "recv events = msgs_delivered" o.stats.msgs_delivered
          (count (is "recv"));
        let op_begin (e : Event.t) =
          e.Event.ph = Event.Begin && e.Event.cat = "op"
          && (e.Event.name = "write" || e.Event.name = "read")
        in
        Alcotest.(check int)
          "op spans = completed ops" o.ops (count op_begin));
  ]

(* --- the one validated write path ----------------------------------------- *)

let write_tests =
  let validate doc =
    Result.map ignore (Json.get "p99_us" Json.to_float_opt doc)
  in
  let with_tmp f =
    let path = Filename.temp_file "regemu-doc" ".json" in
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)
  in
  [
    test "write_checked validates, writes, and re-reads" (fun () ->
        with_tmp @@ fun path ->
        let doc = Json.Obj [ ("p99_us", Json.Float 12.5) ] in
        (match Json.write_checked ~validate (Some path) doc with
        | Ok () -> ()
        | Error m -> Alcotest.failf "rejected: %s" m);
        Alcotest.(check bool) "the file holds the document" true
          (Json.of_file path = Ok doc);
        match
          Json.write_checked ~validate None (Json.Obj [ ("p99_us", Json.Null) ])
        with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "an invalid document passed without a path");
    test "write_checked catches what only the bytes on disk show" (fun () ->
        with_tmp @@ fun path ->
        (* a non-finite float is a number in memory and null on disk *)
        let doc = Json.Obj [ ("p99_us", Json.Float Float.nan) ] in
        Alcotest.(check bool) "valid in memory" true (validate doc = Ok ());
        match Json.write_checked ~validate (Some path) doc with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "the read-back was not validated");
  ]

let suites =
  [
    ("obs.ring", ring_tests @ [ ring_model_property ]);
    ("obs.trace", trace_tests);
    ("obs.metrics", metrics_tests);
    ("obs.export", export_tests);
    ("obs.determinism", determinism_tests);
    ("obs.agreement", agreement_tests);
    ("obs.write", write_tests);
  ]
