(* Tests for the hostile-network layer and the nemesis campaign
   machinery: config validation, seed determinism, the retry/backoff
   path under forced message loss, fail-fast unavailability, and the
   persist/amnesia recovery split. *)

open Regemu_objects
open Regemu_live
open Regemu_chaos

let test name f = Alcotest.test_case name `Quick f
let value = Alcotest.testable Value.pp Value.equal

let expect_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

(* a fast-retrying cluster for the loss tests *)
let quick_retry =
  { Retry.base_s = 0.02; cap_s = 0.15; deadline_s = 8.0; grace_s = 0.1 }

let mk_cluster ?(recovery = Recovery.Persist) ?(retry = quick_retry)
    ?(dup_prob = 0.0) ~seed () =
  Cluster.create
    {
      Cluster.n = 3;
      transport =
        {
          Transport.couriers = 2;
          delay_prob = 0.0;
          max_delay_us = 0;
          dup_prob;
          drop_prob = 0.0;
          reorder = true;
          backend = Transport.Threads;
          seed;
        };
      op_timeout_s = 20.0;
      recovery;
      retry = Some retry;
      hedge = None;
      deadline = None;
    }

let check_clean what (r : Checker.result) =
  match r.ws with
  | Regemu_history.Ws_check.Violated v ->
      Alcotest.failf "%s: WS-Regularity violated: %a" what
        Regemu_history.Ws_check.violation_pp v
  | Holds | Vacuous -> ()

(* --- construction-time validation --------------------------------------- *)

let validation_tests =
  [
    test "transport rejects out-of-range probabilities" (fun () ->
        let mk cfg = ignore (Transport.create cfg ~servers:1 ~deliver:ignore) in
        let base = Transport.default_config ~seed:1 in
        expect_invalid "drop_prob 1.5" (fun () ->
            mk { base with drop_prob = 1.5 });
        expect_invalid "dup_prob -0.1" (fun () ->
            mk { base with dup_prob = -0.1 });
        expect_invalid "delay_prob nan" (fun () ->
            mk { base with delay_prob = Float.nan });
        expect_invalid "couriers 0" (fun () -> mk { base with couriers = 0 });
        expect_invalid "max_delay_us < 0" (fun () ->
            mk { base with max_delay_us = -1 }));
    test "split rejects malformed partitions" (fun () ->
        let tr =
          Transport.create (Transport.default_config ~seed:2) ~servers:3
            ~deliver:ignore
        in
        expect_invalid "overlapping groups" (fun () ->
            Transport.split tr ~groups:[ [ 0; 1 ]; [ 1; 2 ] ] ~clients_with:0);
        expect_invalid "negative server" (fun () ->
            Transport.split tr ~groups:[ [ -1 ] ] ~clients_with:0);
        expect_invalid "clients_with out of range" (fun () ->
            Transport.split tr ~groups:[ [ 0 ]; [ 1 ] ] ~clients_with:2);
        expect_invalid "set_drop 2.0" (fun () ->
            Transport.set_drop tr ~requests:2.0 ()));
    test "retry config is validated" (fun () ->
        expect_invalid "cap < base" (fun () ->
            Retry.validate { quick_retry with cap_s = 0.001 });
        expect_invalid "non-positive base" (fun () ->
            Retry.validate { quick_retry with base_s = 0.0 });
        expect_invalid "non-positive deadline" (fun () ->
            Retry.validate { quick_retry with deadline_s = -1.0 }));
    test "fault injector rejects unservable configs" (fun () ->
        let cluster = mk_cluster ~seed:3 () in
        expect_invalid "pool < 2f+1" (fun () ->
            Fault.spawn cluster { (Fault.default_config ~f:1 ~pool:2 ~seed:4) with pool = 2 });
        expect_invalid "leave_crashed > f" (fun () ->
            Fault.spawn cluster
              { (Fault.default_config ~f:1 ~pool:3 ~seed:4) with leave_crashed = 2 });
        Cluster.shutdown cluster);
    test "schedules are validated against the cluster size" (fun () ->
        expect_invalid "server out of range" (fun () ->
            Schedule.validate ~n:3 [ { Schedule.at_ms = 0; ev = Crash 3 } ]);
        expect_invalid "negative time" (fun () ->
            Schedule.validate ~n:3 [ { Schedule.at_ms = -5; ev = Heal } ]);
        expect_invalid "drop rate > 1" (fun () ->
            Schedule.validate ~n:3 [ { Schedule.at_ms = 0; ev = Drop_rate 1.2 } ]);
        expect_invalid "overlapping partition groups" (fun () ->
            Schedule.validate ~n:3
              [ { Schedule.at_ms = 0; ev = Partition [ [ 0; 1 ]; [ 1 ] ] } ]);
        expect_invalid "beyond_f reach out of range" (fun () ->
            ignore (Schedule.beyond_f ~n:3 ~reach:3 ~at_ms:0 ~heal_at_ms:10)));
  ]

(* --- seed determinism ---------------------------------------------------- *)

let determinism_tests =
  [
    test "flapping schedules replay from their seed" (fun () ->
        let a = Schedule.flapping ~n:3 ~flips:6 ~gap_ms:50 ~seed:9 in
        let b = Schedule.flapping ~n:3 ~flips:6 ~gap_ms:50 ~seed:9 in
        let c = Schedule.flapping ~n:3 ~flips:6 ~gap_ms:50 ~seed:10 in
        Alcotest.(check bool) "same seed, same schedule" true (a = b);
        Alcotest.(check bool) "different seed, different schedule" true
          (a <> c);
        Schedule.validate ~n:3 a;
        Alcotest.(check int) "never exceeds one down" 1 (Schedule.max_down a));
    test "generators respect the fault bound" (fun () ->
        Alcotest.(check int) "rolling crashes: one at a time" 1
          (Schedule.max_down (Schedule.rolling_crashes ~n:3 ~rounds:2 ()));
        Alcotest.(check int) "wipe_all: one at a time" 1
          (Schedule.max_down (Schedule.wipe_all ~n:3 ()));
        Alcotest.(check bool) "durations are positive" true
          (Schedule.duration_ms (Schedule.wipe_all ~n:3 ()) > 0));
    test "a campaign scenario replays its fault counters" (fun () ->
        let s = List.hd (Campaign.smoke ~seed:5) in
        let o1 = Campaign.run s in
        let o2 = Campaign.run s in
        Alcotest.(check bool) "first run passes" true o1.Campaign.pass;
        Alcotest.(check bool) "second run passes" true o2.Campaign.pass;
        let nem o =
          List.map (fun p -> p.Campaign.nemesis) o.Campaign.phases
        in
        Alcotest.(check bool) "identical nemesis counters" true
          (nem o1 = nem o2);
        let completions o =
          List.map (fun p -> (p.Campaign.completed, p.Campaign.failed))
            o.Campaign.phases
        in
        Alcotest.(check bool) "identical completion counts" true
          (completions o1 = completions o2);
        Alcotest.(check int) "identical crash count"
          o1.Campaign.stats.Cluster.crashes o2.Campaign.stats.Cluster.crashes;
        Alcotest.(check int) "identical wipe count"
          o1.Campaign.stats.Cluster.wipes o2.Campaign.stats.Cluster.wipes);
    test "the keyspace-outage checker judges the keyed ops" (fun () ->
        let s =
          List.find
            (fun s -> s.Campaign.name = "keyspace-outage")
            (Campaign.smoke ~seed:5)
        in
        let o = Campaign.run s in
        Alcotest.(check bool) "passes" true o.Campaign.pass;
        let invoked =
          List.fold_left
            (fun a p -> a + p.Campaign.completed + p.Campaign.failed)
            0 o.Campaign.phases
        in
        Alcotest.(check bool) "ops were invoked" true (invoked > 0);
        Alcotest.(check int) "the checker counts every invoked op" invoked
          o.Campaign.check.Checker.ops_checked;
        check_clean "keyspace outage" o.Campaign.check);
  ]

(* --- the retry layer under forced loss ----------------------------------- *)

let run_loss_test ~seed ~drop =
  let cluster = mk_cluster ~seed () in
  let abd = Abd_live.create cluster ~f:1 () in
  let w = Cluster.new_client cluster in
  Cluster.start cluster;
  let checker = Checker.spawn cluster () in
  Abd_live.write abd w (Value.Str "before-loss");
  (match drop with
  | `Requests -> Cluster.set_drop cluster ~requests:1.0 ()
  | `Replies -> Cluster.set_drop cluster ~replies:1.0 ());
  let finished = Atomic.make false in
  let t =
    Thread.create
      (fun () ->
        Abd_live.write abd w (Value.Str "through-loss");
        Atomic.set finished true)
      ()
  in
  Thread.delay 0.15;
  Alcotest.(check bool)
    "op still blocked under total loss" false (Atomic.get finished);
  Cluster.set_drop cluster ~requests:0.0 ~replies:0.0 ();
  Thread.join t;
  Alcotest.(check bool) "op completed once loss healed" true
    (Atomic.get finished);
  let res = Checker.stop checker in
  let stats = Cluster.stats cluster in
  Cluster.shutdown cluster;
  check_clean "loss run" res;
  Alcotest.(check bool) "messages were dropped" true
    (stats.Cluster.msgs_dropped > 0);
  Alcotest.(check bool) "the client retransmitted" true
    (stats.Cluster.retries > 0)

let retry_tests =
  [
    test "a dropped request is retransmitted to completion" (fun () ->
        run_loss_test ~seed:21 ~drop:`Requests);
    test "a dropped reply is recovered by retransmission" (fun () ->
        run_loss_test ~seed:22 ~drop:`Replies);
    test "duplicate replies never double-count" (fun () ->
        let cluster = mk_cluster ~seed:23 ~dup_prob:1.0 () in
        let abd = Abd_live.create cluster ~f:1 () in
        let w = Cluster.new_client cluster in
        let r = Cluster.new_client cluster in
        Cluster.start cluster;
        let checker = Checker.spawn cluster () in
        for i = 1 to 15 do
          Abd_live.write abd w (Value.Str (Printf.sprintf "dup-%d" i));
          ignore (Abd_live.read abd r)
        done;
        let res = Checker.stop checker in
        let stats = Cluster.stats cluster in
        Cluster.shutdown cluster;
        check_clean "duplication run" res;
        Alcotest.(check int) "every op completed" 30
          stats.Cluster.ops_completed;
        Alcotest.(check bool) "replies really were duplicated" true
          (stats.Cluster.msgs_duplicated > 0));
    test "deadline exceeded under total blackout, then recovery" (fun () ->
        let retry = { quick_retry with deadline_s = 0.3; grace_s = 5.0 } in
        let cluster = mk_cluster ~seed:24 ~retry () in
        let abd = Abd_live.create cluster ~f:1 () in
        let w = Cluster.new_client cluster in
        Cluster.start cluster;
        let checker = Checker.spawn cluster () in
        Cluster.set_drop cluster ~requests:1.0 ~replies:1.0 ();
        (match Abd_live.write abd w (Value.Str "doomed") with
        | () -> Alcotest.fail "expected Unavailable under total blackout"
        | exception Cluster.Unavailable u ->
            (match u.Cluster.cause with
            | Cluster.Deadline_exceeded -> ()
            | Cluster.Quorum_lost ->
                Alcotest.fail "expected Deadline_exceeded, got Quorum_lost");
            Alcotest.(check bool) "failed only after the deadline" true
              (u.Cluster.elapsed_s >= 0.3));
        Cluster.set_drop cluster ~requests:0.0 ~replies:0.0 ();
        Abd_live.write abd w (Value.Str "revived");
        let res = Checker.stop checker in
        Cluster.shutdown cluster;
        check_clean "blackout run" res);
    test "beyond-f partition fails fast with Quorum_lost" (fun () ->
        let cluster = mk_cluster ~seed:25 () in
        let abd = Abd_live.create cluster ~f:1 () in
        let w = Cluster.new_client cluster in
        Cluster.start cluster;
        let checker = Checker.spawn cluster () in
        Abd_live.write abd w (Value.Str "reachable");
        (* clients keep only server 0: 1 < f+1 = 2 reachable *)
        Cluster.split cluster ~groups:[ [ 0 ]; [ 1; 2 ] ] ~clients_with:0;
        let t0 = Unix.gettimeofday () in
        (match Abd_live.write abd w (Value.Str "unreachable") with
        | () -> Alcotest.fail "expected Unavailable beyond f"
        | exception Cluster.Unavailable u ->
            (match u.Cluster.cause with
            | Cluster.Quorum_lost -> ()
            | Cluster.Deadline_exceeded ->
                Alcotest.fail "expected Quorum_lost, got Deadline_exceeded");
            Alcotest.(check int) "one server reachable" 1 u.Cluster.reachable;
            Alcotest.(check int) "quorum needs two" 2 u.Cluster.required);
        Alcotest.(check bool) "failed fast, not at the deadline" true
          (Unix.gettimeofday () -. t0 < 2.0);
        Cluster.heal cluster;
        Abd_live.write abd w (Value.Str "healed");
        let res = Checker.stop checker in
        let stats = Cluster.stats cluster in
        Cluster.shutdown cluster;
        check_clean "partition run" res;
        Alcotest.(check bool) "cut messages counted" true
          (stats.Cluster.msgs_cut > 0);
        Alcotest.(check bool) "unavailability counted" true
          (stats.Cluster.unavailable > 0));
  ]

(* --- crash-recovery modes ------------------------------------------------ *)

let wipe_everyone cluster =
  (* one server down at a time: within the fault bound throughout *)
  for s = 0 to 2 do
    Cluster.crash cluster s;
    Cluster.restart cluster s
  done

let recovery_tests =
  [
    test "persist: state survives a rolling restart of every server"
      (fun () ->
        let cluster = mk_cluster ~recovery:Recovery.Persist ~seed:26 () in
        let abd = Abd_live.create cluster ~f:1 () in
        let w = Cluster.new_client cluster in
        let r = Cluster.new_client cluster in
        Cluster.start cluster;
        let checker = Checker.spawn cluster () in
        Abd_live.write abd w (Value.Str "durable");
        wipe_everyone cluster;
        Alcotest.(check value) "read returns the written value"
          (Value.Str "durable") (Abd_live.read abd r);
        let res = Checker.stop checker in
        let stats = Cluster.stats cluster in
        Cluster.shutdown cluster;
        check_clean "persist run" res;
        Alcotest.(check int) "no store was wiped" 0 stats.Cluster.wipes);
    test "amnesia: the same schedule loses the write and is flagged"
      (fun () ->
        let cluster = mk_cluster ~recovery:Recovery.Amnesia ~seed:27 () in
        let abd = Abd_live.create cluster ~f:1 () in
        let w = Cluster.new_client cluster in
        let r = Cluster.new_client cluster in
        Cluster.start cluster;
        let checker = Checker.spawn cluster () in
        Abd_live.write abd w (Value.Str "volatile");
        wipe_everyone cluster;
        Alcotest.(check value) "read returns the initial value" Value.v0
          (Abd_live.read abd r);
        let res = Checker.stop checker in
        let stats = Cluster.stats cluster in
        Cluster.shutdown cluster;
        Alcotest.(check int) "every store was wiped" 3 stats.Cluster.wipes;
        match res.Checker.ws with
        | Regemu_history.Ws_check.Violated _ -> ()
        | Holds | Vacuous ->
            Alcotest.fail "checker should flag the amnesiac stale read");
  ]

let suites =
  [
    ("chaos.validation", validation_tests);
    ("chaos.determinism", determinism_tests);
    ("chaos.retry", retry_tests);
    ("chaos.recovery", recovery_tests);
  ]
