(* Self-tests of the benchmark's pure helpers: percentile selection with
   sample counts, the rid join on hand-built event lists, and the
   validation of the result line. *)

open Perfbench_core
module Event = Regemu_obs.Event
module Json = Regemu_obs.Json

let feq = Alcotest.float 1e-9

(* --- percentiles ---------------------------------------------------------- *)

let test_rank () =
  let s = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "p50 of 1..100" 50.0 (Pct.rank s 0.5);
  Alcotest.check feq "p90 of 1..100" 90.0 (Pct.rank s 0.9);
  Alcotest.check feq "p99 of 1..100" 99.0 (Pct.rank s 0.99);
  Alcotest.check feq "p100 is the max" 100.0 (Pct.rank s 1.0);
  Alcotest.check feq "one sample" 7.0 (Pct.rank [| 7.0 |] 0.5);
  Alcotest.check_raises "empty" (Invalid_argument "Pct.rank: no samples") (fun () ->
      ignore (Pct.rank [||] 0.5))

let test_summarize () =
  let s = Pct.summarize [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  Alcotest.(check int) "count" 5 s.count;
  Alcotest.check feq "p50 unsorted input" 3.0 s.p50;
  Alcotest.check feq "p90 of 5 is the max" 5.0 s.p90;
  let e = Pct.summarize [||] in
  Alcotest.(check int) "empty count" 0 e.count;
  Alcotest.check feq "median of nothing" 0.0 (Pct.median [||])

let test_samples () =
  let b = Pct.Samples.create ~capacity:1 () in
  for i = 1 to 1000 do
    Pct.Samples.push b (float_of_int i)
  done;
  Alcotest.(check int) "grows" 1000 (Pct.Samples.length b);
  Alcotest.check feq "keeps order" 1000.0 (Pct.Samples.to_array b).(999)

let test_windowed () =
  (* four one-second windows; the third is slow and short of ops *)
  let times = ref [] and values = ref [] in
  let add t v =
    times := t :: !times;
    values := v :: !values
  in
  for w = 0 to 3 do
    let n, v = if w = 2 then (2, 900.0) else (10, 100.0) in
    for i = 0 to n - 1 do
      add (float_of_int w +. (float_of_int i /. float_of_int n)) v
    done
  done;
  let r =
    Pct.windowed ~t_start:0.0 ~t_end:4.0 ~windows:4
      ~times:(Array.of_list !times) ~values:(Array.of_list !values)
  in
  Alcotest.(check int) "windows" 4 r.windows;
  Alcotest.check feq "median window rate ignores the slow window" 10.0 r.rate;
  Alcotest.check feq "median window p50" 100.0 r.w_p50

(* --- the rid join ----------------------------------------------------------- *)

let ev ?(args = []) ts ph cat name =
  { Event.ts_ns = Int64.of_int ts; seq = 0; ph; name; cat; args }

let rpc ts rid = ("client-0", ev ts Event.Instant "msg" "rpc" ~args:[ ("rid", Event.I rid) ])

let lane name ts point rid dest =
  ( name,
    ev ts Event.Instant "msg" point
      ~args:[ ("src", Event.I 0); ("dest", Event.S dest); ("rid", Event.I rid) ] )

(* one request/reply on [rid]: request reaches server [s] at [rr], the
   reply is sent at [rs] and handled at [rv] *)
let leg ~rid ~s ~rr ~rs ~rv =
  [
    lane (Printf.sprintf "lane-s%d" s) rr "recv" rid (Printf.sprintf "s%d" s);
    lane (Printf.sprintf "lane-s%d" s) (rr + 1) "send" rid (Printf.sprintf "s%d" s);
    lane "lane-client" rs "send" rid "c0";
    lane "lane-client" rv "recv" rid "c0";
  ]

let sort evs =
  List.stable_sort (fun (_, a) (_, b) -> Int64.compare a.Event.ts_ns b.Event.ts_ns) evs

(* One op of two rounds with await spans, all times in ns:
   op [0, 10000]; round 1 rpcs at 100 (rid 1) and 110 (rid 2), await
   [200, 3000] whose critical reply is rid 2's at 2900; round 2 rpc at
   3100 (rid 3), await [3200, 9000], critical reply at 8800. *)
let two_round_events =
  sort
    ([
       ("client-0", ev 0 Event.Begin "op" "write");
       rpc 100 1;
       rpc 110 2;
       ("client-0", ev 200 Event.Begin "op" "await");
       ("client-0", ev 3000 Event.End "op" "await");
       rpc 3100 3;
       ("client-0", ev 3200 Event.Begin "op" "await");
       ("client-0", ev 9000 Event.End "op" "await");
       ("client-0", ev 10000 Event.End "op" "write");
     ]
    @ leg ~rid:1 ~s:0 ~rr:500 ~rs:1500 ~rv:1600
    @ leg ~rid:2 ~s:1 ~rr:600 ~rs:2700 ~rv:2900
    @ leg ~rid:3 ~s:2 ~rr:4100 ~rs:8000 ~rv:8800)

let test_join_awaits () =
  let ops = Ridjoin.ops_of_trace two_round_events in
  Alcotest.(check int) "one op span from the trace" 1 (List.length ops);
  let j = Ridjoin.join two_round_events ops in
  Alcotest.(check int) "joined" 1 j.joined;
  Alcotest.(check int) "rids" 3 j.rids;
  Alcotest.(check (array feq)) "await per round (us)" [| 2.8; 5.8 |] j.await_us;
  Alcotest.(check (array feq)) "wake per round (us)" [| 0.1; 0.2 |] j.wake_us;
  Alcotest.(check (array feq)) "self = op - awaits" [| 10.0 -. 8.6 |] j.self_us;
  (* critical path: rid 2 (110 -> 600 -> 2700 -> 2900 -> 3000) then rid 3
     (3100 -> 4100 -> 8000 -> 8800 -> 9000) *)
  Alcotest.(check (array feq)) "req" [| 0.49 +. 1.0 |] j.crit_req_us;
  Alcotest.(check (array feq)) "step" [| 2.1 +. 3.9 |] j.crit_step_us;
  Alcotest.(check (array feq)) "reply" [| 0.2 +. 0.8 |] j.crit_reply_us;
  Alcotest.(check (array feq)) "wake" [| 0.1 +. 0.2 |] j.crit_wake_us;
  let total =
    j.crit_client_us.(0) +. j.crit_req_us.(0) +. j.crit_step_us.(0)
    +. j.crit_reply_us.(0) +. j.crit_wake_us.(0)
  in
  Alcotest.check feq "stages add up to the op" 10.0 total;
  Alcotest.check feq "sum ratio of one op is 1" 1.0 (Ridjoin.sum_ratio j)

let test_join_reply_fast_path () =
  (* the courier delivered the reply (recv at 700) before the send point
     (710) was emitted: the reply leaves at the earlier of the two *)
  let evs =
    sort
      [
        rpc 100 9;
        lane "lane-s0" 300 "recv" 9 "s0";
        lane "lane-client" 700 "recv" 9 "c0";
        lane "lane-client" 710 "send" 9 "c0";
      ]
  in
  let ops = [ { Ridjoin.client = 0; t0 = 0L; t1 = 1000L } ] in
  let j = Ridjoin.join evs ops in
  Alcotest.(check int) "joined without await spans" 1 j.joined;
  Alcotest.(check (array feq)) "step ends at the recv" [| 0.4 |] j.step_us;
  Alcotest.(check (array feq)) "reply hop is 0" [| 0.0 |] j.reply_us;
  Alcotest.(check (array feq)) "last round ends at the op's end" [| 0.3 |] j.wake_us

let test_join_rounds_without_awaits () =
  (* keyspace style: no await spans; rid 2 is issued after rid 1's reply,
     so it opens the second round *)
  let evs =
    sort
      ([ rpc 100 1; rpc 2000 2 ]
      @ leg ~rid:1 ~s:0 ~rr:300 ~rs:900 ~rv:1000
      @ leg ~rid:2 ~s:1 ~rr:2200 ~rs:2800 ~rv:3000)
  in
  let j = Ridjoin.join evs [ { Ridjoin.client = 0; t0 = 0L; t1 = 3500L } ] in
  Alcotest.(check (array feq)) "two rounds" [| 1.9; 1.5 |] j.await_us;
  Alcotest.(check (array feq)) "wake to next rpc / op end" [| 1.0; 0.5 |] j.wake_us

let test_join_missing_event () =
  (* rid 1 never reached a server in the trace: the op cannot join *)
  let evs = sort [ rpc 100 1; lane "lane-client" 900 "recv" 1 "c0" ] in
  let j = Ridjoin.join evs [ { Ridjoin.client = 0; t0 = 0L; t1 = 1000L } ] in
  Alcotest.(check int) "offered" 1 j.ops;
  Alcotest.(check int) "not joined" 0 j.joined

let test_count_points () =
  (* per leg: the request's echo on the server lane, the reply's send *)
  Alcotest.(check int) "send points" 6 (Ridjoin.count_points two_round_events "send");
  Alcotest.(check int) "rpc points" 3 (Ridjoin.count_points two_round_events "rpc")

let test_merge () =
  let j = Ridjoin.join two_round_events (Ridjoin.ops_of_trace two_round_events) in
  let m = Ridjoin.merge [ j; j ] in
  Alcotest.(check int) "ops add" 2 m.ops;
  Alcotest.(check int) "rids add" 6 m.rids;
  Alcotest.(check int) "rounds concatenate" 4 (Array.length m.await_us)

(* --- the result line ------------------------------------------------------- *)

let bench_json =
  {|{"end_to_end": [{"name": "a_s", "unit": "s", "better": "lower", "bound": 0.1},
                    {"name": "b", "unit": "1/s", "better": "higher", "bound": 0.1}],
     "per_layer": [{"name": "c", "unit": "count", "better": "higher"}]}|}

let declared ~trace =
  match Json.of_string bench_json with
  | Error e -> Alcotest.fail e
  | Ok j -> ( match Line.declared j ~trace with Ok d -> d | Error e -> Alcotest.fail e)

let line metrics = { Line.correct = true; attempted = 10; failed = 0; metrics }
let mm name unit_ value = { Line.name; unit_; value }

let is_error = function Ok () -> false | Error _ -> true

let test_declared () =
  Alcotest.(check (list (pair string string)))
    "end to end" [ ("a_s", "s"); ("b", "1/s") ] (declared ~trace:false);
  Alcotest.(check (list (pair string string))) "per layer" [ ("c", "count") ] (declared ~trace:true)

let test_validate () =
  let d = declared ~trace:false in
  let ok = line [ mm "a_s" "s" 0.5; mm "b" "1/s" 2.0 ] in
  Alcotest.(check bool) "complete line passes" false (is_error (Line.validate ~declared:d ok));
  Alcotest.(check bool) "missing metric" true
    (is_error (Line.validate ~declared:d (line [ mm "a_s" "s" 0.5 ])));
  Alcotest.(check bool) "undeclared metric" true
    (is_error
       (Line.validate ~declared:d
          (line [ mm "a_s" "s" 0.5; mm "b" "1/s" 2.0; mm "z" "s" 1.0 ])));
  Alcotest.(check bool) "wrong unit" true
    (is_error (Line.validate ~declared:d (line [ mm "a_s" "ms" 0.5; mm "b" "1/s" 2.0 ])));
  Alcotest.(check bool) "duplicate" true
    (is_error
       (Line.validate ~declared:d
          (line [ mm "a_s" "s" 0.5; mm "a_s" "s" 0.5; mm "b" "1/s" 2.0 ])));
  Alcotest.(check bool) "not finite" true
    (is_error (Line.validate ~declared:d (line [ mm "a_s" "s" nan; mm "b" "1/s" 2.0 ])));
  Alcotest.(check bool) "nothing attempted" true
    (is_error (Line.validate ~declared:d { ok with attempted = 0 }));
  Alcotest.(check bool) "more failed than attempted" true
    (is_error (Line.validate ~declared:d { ok with failed = 11 }))

let test_to_line () =
  let l = line [ mm "a_s" "s" 0.1; mm "b" "1/s" 3.0 ] in
  match Json.of_string (Line.to_line l) with
  | Error e -> Alcotest.fail e
  | Ok j ->
      let keys = match j with Json.Obj kv -> List.map fst kv | _ -> [] in
      Alcotest.(check (list string)) "exactly the four keys"
        [ "correct"; "attempted"; "failed"; "metrics" ] keys;
      let value name =
        Option.bind (Json.member "metrics" j) (fun ms ->
            Option.bind (Json.member name ms) (fun m ->
                Option.bind (Json.member "value" m) Json.to_float_opt))
      in
      Alcotest.(check (option feq)) "0.1 round-trips" (Some 0.1) (value "a_s");
      Alcotest.(check (option feq)) "integers stay numbers" (Some 3.0) (value "b")

let () =
  Alcotest.run "perfbench"
    [
      ( "pct",
        [
          Alcotest.test_case "nearest rank" `Quick test_rank;
          Alcotest.test_case "summary with count" `Quick test_summarize;
          Alcotest.test_case "sample buffer" `Quick test_samples;
          Alcotest.test_case "windowed medians" `Quick test_windowed;
        ] );
      ( "ridjoin",
        [
          Alcotest.test_case "rounds from await spans" `Quick test_join_awaits;
          Alcotest.test_case "reply fast path" `Quick test_join_reply_fast_path;
          Alcotest.test_case "rounds without awaits" `Quick test_join_rounds_without_awaits;
          Alcotest.test_case "missing event" `Quick test_join_missing_event;
          Alcotest.test_case "count points" `Quick test_count_points;
          Alcotest.test_case "merge" `Quick test_merge;
        ] );
      ( "line",
        [
          Alcotest.test_case "declared metrics" `Quick test_declared;
          Alcotest.test_case "validation" `Quick test_validate;
          Alcotest.test_case "result line" `Quick test_to_line;
        ] );
    ]
