(* Tests for the gray-failure surface: the adaptive deadline
   estimator, the hedge policy, the transport's slow/freeze controls,
   the seeded gray injector modes, hedged quorum rounds end to end,
   and the keyed retry path.  Determinism of hedge decisions under the
   virtual scheduler lives in suite_dst. *)

open Regemu_objects
open Regemu_live

let test name f = Alcotest.test_case name `Quick f

let expect_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

(* wait for a counter to reach [target] (couriers are asynchronous) *)
let settle ?(deadline_s = 5.0) read target =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if read () >= target then true
    else if Unix.gettimeofday () -. t0 > deadline_s then false
    else (
      Thread.delay 0.001;
      go ())
  in
  go ()

(* --- the deadline estimator ---------------------------------------------- *)

(* a config whose clamp never masks the latency signal, so the
   properties below see the raw estimator *)
let open_cfg =
  {
    Deadline.window = 16;
    quantile = 0.95;
    ewma_alpha = 0.5;
    mult = 2.0;
    min_s = 1e-6;
    max_s = 10.0;
  }

let feed t = List.iter (Deadline.observe t)

(* sample lists: 1..80 latencies in [0, 500] ms *)
let arb_samples =
  QCheck.make
    ~print:(fun l -> Fmt.str "%a" Fmt.(Dump.list float) l)
    QCheck.Gen.(
      list_size (1 -- 80)
        (map (fun i -> float_of_int i /. 1000.0) (0 -- 500)))

(* two latency levels, the second strictly higher *)
let arb_shift =
  QCheck.make
    ~print:(fun (a, b) -> Fmt.str "%.3fs -> %.3fs" a b)
    QCheck.Gen.(
      let* lo = 1 -- 400 in
      let* d = 1 -- 400 in
      return (float_of_int lo /. 1000.0, float_of_int (lo + d) /. 1000.0))

let prop name arb p =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:200 arb p)

let deadline_tests =
  [
    test "no samples: estimate is the clamp ceiling" (fun () ->
        let t = Deadline.create Deadline.default_config in
        Alcotest.(check int) "no samples" 0 (Deadline.samples t);
        Alcotest.(check (float 0.0)) "ewma 0" 0.0 (Deadline.ewma t);
        Alcotest.(check (float 0.0)) "latency 0" 0.0 (Deadline.latency_s t);
        Alcotest.(check (float 0.0))
          "estimate = max_s" Deadline.default_config.Deadline.max_s
          (Deadline.estimate_s t));
    test "negative samples clip to zero" (fun () ->
        let t = Deadline.create open_cfg in
        Deadline.observe t (-5.0);
        Alcotest.(check int) "one sample" 1 (Deadline.samples t);
        Alcotest.(check (float 0.0)) "latency 0" 0.0 (Deadline.latency_s t);
        Alcotest.(check (float 0.0))
          "estimate clamps up to min_s" open_cfg.Deadline.min_s
          (Deadline.estimate_s t));
    test "config is validated" (fun () ->
        let base = Deadline.default_config in
        expect_invalid "window 0" (fun () ->
            Deadline.create { base with Deadline.window = 0 });
        expect_invalid "quantile 1.5" (fun () ->
            Deadline.create { base with Deadline.quantile = 1.5 });
        expect_invalid "alpha 0" (fun () ->
            Deadline.create { base with Deadline.ewma_alpha = 0.0 });
        expect_invalid "mult 0" (fun () ->
            Deadline.create { base with Deadline.mult = 0.0 });
        expect_invalid "min > max" (fun () ->
            Deadline.create { base with Deadline.min_s = 20.0 }));
    prop "the estimator is a pure fold over its samples" arb_samples
      (fun samples ->
        let a = Deadline.create open_cfg and b = Deadline.create open_cfg in
        feed a samples;
        feed b samples;
        Deadline.samples a = Deadline.samples b
        && Deadline.ewma a = Deadline.ewma b
        && Deadline.quantile a = Deadline.quantile b
        && Deadline.estimate_s a = Deadline.estimate_s b);
    prop "estimates stay inside the clamp" arb_samples (fun samples ->
        let t = Deadline.create Deadline.default_config in
        List.for_all
          (fun s ->
            Deadline.observe t s;
            let e = Deadline.estimate_s t in
            e >= Deadline.default_config.Deadline.min_s
            && e <= Deadline.default_config.Deadline.max_s)
          samples);
    prop "a level shift up strictly raises the estimate" arb_shift
      (fun (lo, hi) ->
        let t = Deadline.create open_cfg in
        feed t (List.init open_cfg.Deadline.window (fun _ -> lo));
        let before = Deadline.estimate_s t in
        feed t (List.init open_cfg.Deadline.window (fun _ -> hi));
        (* the window is now entirely at the new level: the quantile
           sits exactly at [hi] and the EWMA approaches it from below,
           so the estimate is exactly [mult * hi] *)
        Deadline.estimate_s t > before
        && Float.abs (Deadline.estimate_s t -. (open_cfg.Deadline.mult *. hi))
           < 1e-9);
    prop "a steady level is learned exactly" arb_samples (fun samples ->
        match samples with
        | [] -> true
        | s :: _ ->
            let t = Deadline.create open_cfg in
            feed t (List.init (2 * open_cfg.Deadline.window) (fun _ -> s));
            Float.abs (Deadline.latency_s t -. s) <= 1e-9 +. (s *. 1e-6));
  ]

(* --- the hedge policy ----------------------------------------------------- *)

let arb_select =
  QCheck.make
    ~print:(fun (n, quorum, spares, rot) ->
      Fmt.str "n=%d quorum=%d spares=%d rot=%d" n quorum spares rot)
    QCheck.Gen.(
      let* n = 1 -- 9 in
      let* quorum = 1 -- n in
      let* spares = 0 -- 3 in
      let* rot = 0 -- 30 in
      return (n, quorum, spares, rot))

let hedge_tests =
  [
    test "cold rounds hedge at the floor" (fun () ->
        let cfg = Hedge.default_config in
        Alcotest.(check (float 0.0))
          "no evidence -> min delay" cfg.Hedge.min_delay_s
          (Hedge.delay_s cfg ~latency_s:0.0));
    test "the delay tracks the latency level, clamped" (fun () ->
        let cfg = Hedge.default_config in
        Alcotest.(check (float 1e-9))
          "3x a 2ms level" 0.006
          (Hedge.delay_s cfg ~latency_s:0.002);
        Alcotest.(check (float 0.0))
          "ceiling" cfg.Hedge.max_delay_s
          (Hedge.delay_s cfg ~latency_s:10.0);
        Alcotest.(check (float 0.0))
          "floor" cfg.Hedge.min_delay_s
          (Hedge.delay_s cfg ~latency_s:1e-9));
    test "config is validated" (fun () ->
        let base = Hedge.default_config in
        expect_invalid "spares -1" (fun () ->
            Hedge.validate_config { base with Hedge.spares = -1 });
        expect_invalid "delay_mult 0" (fun () ->
            Hedge.validate_config { base with Hedge.delay_mult = 0.0 });
        expect_invalid "max < min" (fun () ->
            Hedge.validate_config { base with Hedge.max_delay_s = 1e-6 });
        expect_invalid "tick 0" (fun () ->
            Hedge.validate_config { base with Hedge.tick_s = 0.0 }));
    test "the slowest replica is deferred" (fun () ->
        let health s = if s = 1 then 0.5 else 0.0 in
        let initial, deferred =
          Hedge.select Hedge.default_config ~rot:0 ~health ~quorum:2
            [ 0; 1; 2 ]
        in
        Alcotest.(check (list int)) "healthy pair first" [ 0; 2 ] initial;
        Alcotest.(check (list int)) "straggler deferred" [ 1 ] deferred);
    test "equal health spreads load by rotation" (fun () ->
        let health _ = 0.0 in
        let initial, deferred =
          Hedge.select Hedge.default_config ~rot:1 ~health ~quorum:2
            [ 0; 1; 2 ]
        in
        Alcotest.(check (list int)) "rotated quorum" [ 1; 2 ] initial;
        Alcotest.(check (list int)) "rotated tail" [ 0 ] deferred);
    test "empty replica lists are fine" (fun () ->
        Alcotest.(check bool)
          "([], [])" true
          (Hedge.select Hedge.default_config ~rot:3 ~health:(fun _ -> 0.0)
             ~quorum:2 []
           = ([], [])));
    prop "select is a partition of its input" arb_select
      (fun (n, quorum, spares, rot) ->
        let cfg = { Hedge.default_config with Hedge.spares } in
        let replicas = List.init n (fun i -> i) in
        let health s = float_of_int (s mod 3) /. 10.0 in
        let initial, deferred =
          Hedge.select cfg ~rot ~health ~quorum replicas
        in
        List.length initial = min n (quorum + spares)
        && List.sort compare (initial @ deferred) = replicas);
  ]

(* --- transport gray controls ---------------------------------------------- *)

let query i = Regemu_netsim.Proto.Query { rid = i; key = 0 }

let mk_transport ?(seed = 71) ?(couriers = 2) ~backend ~servers deliver =
  let tr =
    Transport.create
      { (Transport.default_config ~seed) with couriers; backend }
      ~servers ~deliver
  in
  Transport.start tr;
  tr

let send_query tr ~server i =
  Transport.send tr
    { Transport.src = 0; dest = To_server server; payload = query i }

(* The controls run on every backend.  A [Socket] server is a child
   process that answers each query, so there [deliver] sees the
   replies — one per query, on the same link. *)
let transport_gray_tests backend =
  let test name = test (Transport.backend_name backend ^ ": " ^ name) in
  let mk_transport = mk_transport ~backend in
  [
    test "set_slow round-trips and validates" (fun () ->
        let tr = mk_transport ~servers:3 ignore in
        Alcotest.(check int) "initially clear" 0 (Transport.slow_us tr ~server:1);
        Transport.set_slow tr ~server:1 4000;
        Alcotest.(check int) "installed" 4000 (Transport.slow_us tr ~server:1);
        Alcotest.(check int) "others untouched" 0
          (Transport.slow_us tr ~server:0);
        Transport.set_slow tr ~server:1 0;
        Alcotest.(check int) "healed" 0 (Transport.slow_us tr ~server:1);
        expect_invalid "negative delay" (fun () ->
            Transport.set_slow tr ~server:1 (-1));
        expect_invalid "server out of range" (fun () ->
            Transport.set_slow tr ~server:3 1000);
        Transport.stop tr);
    test "a slow link holds envelopes and counts them" (fun () ->
        let delivered = Atomic.make 0 in
        let tr =
          mk_transport ~servers:1 (fun _ -> Atomic.incr delivered)
        in
        Transport.set_slow tr ~server:0 2000;
        let total = 20 in
        for i = 0 to total - 1 do
          send_query tr ~server:0 i
        done;
        Alcotest.(check bool)
          "all delivered despite the slow link" true
          (settle (fun () -> Atomic.get delivered) total);
        let held =
          match backend with Transport.Socket -> 2 * total | _ -> total
        in
        Alcotest.(check bool) "every envelope was held" true
          (settle (fun () -> Transport.slowed tr) held);
        Alcotest.(check int) "and none twice" held (Transport.slowed tr);
        Transport.stop tr);
    test "freeze queues requests, thaw releases the backlog" (fun () ->
        let delivered = Atomic.make 0 in
        let tr =
          mk_transport ~servers:2 (fun _ -> Atomic.incr delivered)
        in
        Transport.freeze tr ~server:0;
        Alcotest.(check bool) "frozen" true (Transport.frozen tr ~server:0);
        Alcotest.(check bool)
          "other lanes unaffected" false
          (Transport.frozen tr ~server:1);
        for i = 0 to 9 do
          send_query tr ~server:0 i
        done;
        Thread.delay 0.05;
        Alcotest.(check int) "nothing drains while frozen" 0
          (Atomic.get delivered);
        (* the backend's wake hook must rouse the parked lane *)
        Transport.thaw tr ~server:0;
        Alcotest.(check bool)
          "backlog delivered after thaw" true
          (settle (fun () -> Atomic.get delivered) 10);
        Alcotest.(check bool) "thawed" false (Transport.frozen tr ~server:0);
        Transport.stop tr);
    test "heal_gray clears every slow link and frozen lane" (fun () ->
        let tr = mk_transport ~servers:3 ignore in
        Transport.set_slow tr ~server:0 1000;
        Transport.set_slow tr ~server:2 9000;
        Transport.freeze tr ~server:1;
        Transport.heal_gray tr;
        for s = 0 to 2 do
          Alcotest.(check int)
            (Fmt.str "server %d link clear" s)
            0
            (Transport.slow_us tr ~server:s);
          Alcotest.(check bool)
            (Fmt.str "server %d lane thawed" s)
            false
            (Transport.frozen tr ~server:s)
        done;
        Transport.stop tr);
    test "split/heal and set_drop validate, cut and drop" (fun () ->
        let delivered = Atomic.make 0 in
        let tr =
          mk_transport ~servers:3 (fun _ -> Atomic.incr delivered)
        in
        let split groups clients_with () =
          Transport.split tr ~groups ~clients_with
        in
        expect_invalid "no groups" (split [] 0);
        expect_invalid "clients_with out of range" (split [ [ 0 ]; [ 1 ] ] 2);
        expect_invalid "overlapping groups" (split [ [ 0; 1 ]; [ 1; 2 ] ] 0);
        expect_invalid "negative server id" (split [ [ -1 ]; [ 0 ] ] 1);
        expect_invalid "request rate above 1" (fun () ->
            Transport.set_drop tr ~requests:1.5 ());
        expect_invalid "negative reply rate" (fun () ->
            Transport.set_drop tr ~replies:(-0.1) ());
        split [ [ 0 ]; [ 1; 2 ] ] 1 ();
        Alcotest.(check bool) "minority side cut off" false
          (Transport.reachable tr ~server:0);
        Alcotest.(check bool) "majority side reachable" true
          (Transport.reachable tr ~server:1);
        for i = 0 to 4 do
          send_query tr ~server:0 i
        done;
        Alcotest.(check bool) "sends across the cut are lost" true
          (settle (fun () -> Transport.cut tr) 5);
        Transport.heal tr;
        Alcotest.(check bool) "healed" true (Transport.reachable tr ~server:0);
        Transport.set_drop tr ~requests:1.0 ();
        for i = 0 to 4 do
          send_query tr ~server:1 i
        done;
        Alcotest.(check bool) "every request dropped" true
          (settle (fun () -> Transport.dropped tr) 5);
        Transport.set_drop tr ~requests:0.0 ();
        send_query tr ~server:0 99;
        Alcotest.(check bool) "traffic flows again" true
          (settle (fun () -> Atomic.get delivered) 1);
        Alcotest.(check int) "only the last send got through" 1
          (Atomic.get delivered);
        Transport.stop tr);
  ]

(* Replies from different servers travel in parallel, as the servers
   send them: a slow server holds its own replies and nobody else's.
   (Not [Socket]: there replies come from the server children.) *)
let slow_reply_test backend =
  test
    (Transport.backend_name backend
   ^ ": a slow server holds only its own replies")
    (fun () ->
      let t0 = Unix.gettimeofday () in
      let arrived = Array.init 3 (fun _ -> Atomic.make infinity) in
      let tr =
        mk_transport ~backend ~servers:3 (fun (e : Transport.envelope) ->
            Atomic.set arrived.(e.src) (Unix.gettimeofday () -. t0))
      in
      Transport.set_slow tr ~server:0 100_000;
      let reply s =
        Thread.create
          (fun () ->
            Transport.send tr
              {
                Transport.src = s;
                dest = To_client 0;
                payload =
                  Regemu_netsim.Proto.Query_reply
                    { rid = s; stored = Value.Int s };
              })
          ()
      in
      let slow = reply 0 in
      (* the slow reply is already held when the others are sent *)
      Thread.delay 0.005;
      List.iter Thread.join [ slow; reply 1; reply 2 ];
      Alcotest.(check bool) "all three replies arrive" true
        (settle
           (fun () ->
             Array.fold_left
               (fun n a -> if Atomic.get a < infinity then n + 1 else n)
               0 arrived)
           3);
      Transport.stop tr;
      Alcotest.(check bool) "the slow reply was held" true
        (Atomic.get arrived.(0) >= 0.09);
      for s = 1 to 2 do
        if Atomic.get arrived.(s) >= 0.05 then
          Alcotest.failf "server %d's reply waited %.1f ms behind server 0's"
            s
            (Atomic.get arrived.(s) *. 1e3)
      done)

(* --- the seeded gray injector --------------------------------------------- *)

let quick_retry =
  { Retry.base_s = 0.02; cap_s = 0.15; deadline_s = 8.0; grace_s = 0.1 }

let mk_cluster ?(hedge = None) ?(deadline = None) ~seed () =
  Cluster.create
    {
      Cluster.n = 3;
      transport =
        {
          Transport.couriers = 2;
          delay_prob = 0.0;
          max_delay_us = 0;
          dup_prob = 0.0;
          drop_prob = 0.0;
          reorder = true;
          backend = Transport.Threads;
          seed;
        };
      op_timeout_s = 20.0;
      recovery = Recovery.Persist;
      retry = Some quick_retry;
      hedge;
      deadline;
    }

(* spawn a crash-quiet injector running only the gray loop, wait for
   [steps] gray actions, and hand the live cluster to [observe] *)
let with_gray ~seed ~gray ~steps observe =
  let cluster = mk_cluster ~seed () in
  Cluster.start cluster;
  let inj =
    Fault.spawn cluster
      {
        (Fault.default_config ~f:1 ~pool:3 ~seed) with
        Fault.period_s = 60.0 (* no crash/restart churn during the test *);
        gray = Some gray;
        gray_period_s = 0.003;
      }
  in
  Alcotest.(check bool)
    "gray actions applied" true
    (settle (fun () -> Fault.grays inj) steps);
  let r = observe cluster in
  Fault.stop inj;
  (* stop clears every gray fault *)
  for s = 0 to 2 do
    Alcotest.(check int)
      (Fmt.str "server %d healed on stop" s)
      0
      (Cluster.slow_us cluster ~server:s);
    Alcotest.(check bool)
      (Fmt.str "server %d thawed on stop" s)
      false (Cluster.frozen cluster ~server:s)
  done;
  Cluster.shutdown cluster;
  r

let slowed_servers cluster =
  List.filter
    (fun s -> Cluster.slow_us cluster ~server:s > 0)
    [ 0; 1; 2 ]

let fault_gray_tests =
  [
    test "gray configs are validated" (fun () ->
        let cluster = mk_cluster ~seed:80 () in
        let base = Fault.default_config ~f:1 ~pool:3 ~seed:80 in
        expect_invalid "gray_period_s 0" (fun () ->
            Fault.spawn cluster
              { base with Fault.gray = Some (Fault.Straggler 1000);
                gray_period_s = 0.0 });
        expect_invalid "negative slowdown" (fun () ->
            Fault.spawn cluster
              { base with Fault.gray = Some (Fault.Straggler (-1)) });
        expect_invalid "creep step 0" (fun () ->
            Fault.spawn cluster
              { base with
                Fault.gray = Some (Fault.Creep { step_us = 0; max_us = 100 })
              });
        expect_invalid "creep step > max" (fun () ->
            Fault.spawn cluster
              { base with
                Fault.gray = Some (Fault.Creep { step_us = 200; max_us = 100 })
              });
        Cluster.shutdown cluster);
    test "straggler mode slows one seeded server, fixed for the run"
      (fun () ->
        let victim ~seed =
          with_gray ~seed ~gray:(Fault.Straggler 3000) ~steps:3
            (fun cluster ->
              match slowed_servers cluster with
              | [ s ] ->
                  Alcotest.(check int)
                    "the configured slowdown" 3000
                    (Cluster.slow_us cluster ~server:s);
                  s
              | l ->
                  Alcotest.failf "expected one straggler, found %d"
                    (List.length l))
        in
        Alcotest.(check int)
          "the victim replays from the seed" (victim ~seed:81)
          (victim ~seed:81));
    test "creep mode degrades stepwise up to its cap" (fun () ->
        with_gray ~seed:83
          ~gray:(Fault.Creep { step_us = 500; max_us = 1500 })
          ~steps:5
          (fun cluster ->
            match slowed_servers cluster with
            | [ s ] ->
                let us = Cluster.slow_us cluster ~server:s in
                Alcotest.(check bool)
                  (Fmt.str "0 < %d <= max" us)
                  true
                  (us > 0 && us <= 1500);
                Alcotest.(check int)
                  "a whole number of steps" 0 (us mod 500)
            | l ->
                Alcotest.failf "expected one creeping server, found %d"
                  (List.length l)));
    test "stutter mode freezes and always thaws" (fun () ->
        (* sampling mid-run races the freeze/thaw alternation, so only
           the invariants are checked: actions fire, and stop leaves
           nothing frozen (asserted by with_gray itself) *)
        with_gray ~seed:84 ~gray:Fault.Stutter ~steps:4 (fun _ -> ()));
  ]

(* --- hedged quorum rounds end to end --------------------------------------- *)

let check_clean what (r : Checker.result) =
  match r.ws with
  | Regemu_history.Ws_check.Violated v ->
      Alcotest.failf "%s: WS-Regularity violated: %a" what
        Regemu_history.Ws_check.violation_pp v
  | Holds | Vacuous -> ()

let hedged_run_tests =
  [
    test "hedges fire against a straggler and the history stays clean"
      (fun () ->
        let cluster =
          mk_cluster ~seed:90
            ~hedge:(Some Hedge.default_config)
            ~deadline:(Some Deadline.default_config)
            ()
        in
        let abd = Abd_live.create cluster ~f:1 () in
        let w = Cluster.new_client cluster in
        let r = Cluster.new_client cluster in
        Cluster.start cluster;
        let checker = Checker.spawn cluster () in
        Cluster.set_slow cluster ~server:2 8000;
        for i = 1 to 25 do
          Abd_live.write abd w (Value.Str (Printf.sprintf "gray-%d" i));
          ignore (Abd_live.read abd r)
        done;
        let res = Checker.stop checker in
        let stats = Cluster.stats cluster in
        Cluster.shutdown cluster;
        check_clean "hedged straggler run" res;
        Alcotest.(check int) "every op completed" 50
          stats.Cluster.ops_completed;
        Alcotest.(check bool) "the straggler held messages" true
          (stats.Cluster.msgs_slowed > 0);
        Alcotest.(check bool) "hedges fired" true (stats.Cluster.hedges > 0));
    test "hedging off is the old broadcast behaviour" (fun () ->
        let cluster = mk_cluster ~seed:91 () in
        let abd = Abd_live.create cluster ~f:1 () in
        let w = Cluster.new_client cluster in
        Cluster.start cluster;
        let checker = Checker.spawn cluster () in
        for i = 1 to 10 do
          Abd_live.write abd w (Value.Str (Printf.sprintf "plain-%d" i))
        done;
        let res = Checker.stop checker in
        let stats = Cluster.stats cluster in
        Cluster.shutdown cluster;
        check_clean "unhedged run" res;
        Alcotest.(check int) "no hedges" 0 stats.Cluster.hedges;
        Alcotest.(check int) "no wins" 0 stats.Cluster.hedge_wins);
  ]

(* --- the keyed retry path -------------------------------------------------- *)

let keyed_retry_tests =
  [
    test "a dropped keyed round is retransmitted to completion" (fun () ->
        let open Regemu_keyspace in
        let cluster = mk_cluster ~seed:95 () in
        let ks = Kspace.create cluster ~f:1 () in
        let w = Kspace.new_worker ks in
        Cluster.start cluster;
        Kspace.write ks w ~key:3 (Value.Str "before-loss");
        Cluster.set_drop cluster ~requests:1.0 ();
        let finished = Atomic.make false in
        let t =
          Thread.create
            (fun () ->
              Kspace.write ks w ~key:3 (Value.Str "through-loss");
              Atomic.set finished true)
            ()
        in
        Thread.delay 0.15;
        Alcotest.(check bool)
          "keyed op still blocked under total loss" false
          (Atomic.get finished);
        Cluster.set_drop cluster ~requests:0.0 ();
        Thread.join t;
        Alcotest.(check bool)
          "keyed op completed once loss healed" true (Atomic.get finished);
        Alcotest.(check bool)
          "the written value is readable" true
          (Value.equal (Kspace.read ks w ~key:3) (Value.Str "through-loss"));
        let stats = Cluster.stats cluster in
        Cluster.shutdown cluster;
        Alcotest.(check bool) "requests were dropped" true
          (stats.Cluster.msgs_dropped > 0);
        Alcotest.(check bool) "the keyed client retransmitted" true
          (stats.Cluster.retries > 0));
  ]

(* --- the tail A/B's arms through the bench runner ----------------------- *)

module Bench = Regemu_bench.Bench

let tail_arm_tests =
  [
    test "derived arms: slowed links, hedges only where they fire" (fun () ->
        (* no link floor, so only the straggler slows envelopes *)
        let spec =
          {
            (Bench.closed ~algo:Live_bench.Abd ~seed:21
               { k = 1; readers = 3; ops_per_client = 10 })
            with
            gray =
              Some
                {
                  base_us = 0;
                  straggler = Some (2, 2_000);
                  hedge_fires = true;
                };
          }
        in
        let tail = Bench.document "tail" in
        let outs = Bench.run_reps ~by:tail.by (Bench.tail_arms spec) in
        (* the validator pins the arm order: baseline, unhedged, hedged *)
        (match Bench.validate (Bench.to_json tail outs) with
        | Ok () -> ()
        | Error m -> Alcotest.failf "tail document rejected: %s" m);
        match outs with
        | [ baseline; unhedged; hedged ] ->
            List.iter
              (fun o ->
                Alcotest.(check bool) "arm is clean" true (Bench.clean o))
              outs;
            Alcotest.(check int) "the unhedged arm fires no hedge" 0
              unhedged.stats.hedges;
            Alcotest.(check int) "the baseline slows nothing" 0
              baseline.stats.msgs_slowed;
            Alcotest.(check bool) "the unhedged arm slows the straggler" true
              (unhedged.stats.msgs_slowed > 0);
            Alcotest.(check bool) "the hedged arm slows the straggler" true
              (hedged.stats.msgs_slowed > 0)
        | _ -> Alcotest.fail "expected three arms");
    test "malformed gray specs are rejected" (fun () ->
        let spec = List.hd (Bench.document "tail").smoke in
        expect_invalid "arms of a spec without a straggler" (fun () ->
            Bench.tail_arms { spec with gray = None });
        expect_invalid "straggler out of range" (fun () ->
            Bench.run
              {
                spec with
                gray =
                  Some
                    {
                      base_us = 0;
                      straggler = Some (spec.n, 1_000);
                      hedge_fires = true;
                    };
              }));
  ]

let suites =
  [
    ("gray.deadline", deadline_tests);
    ("gray.hedge", hedge_tests);
    ( "gray.transport",
      List.concat_map transport_gray_tests Transport.backends
      @ List.map slow_reply_test
          (List.filter (( <> ) Transport.Socket) Transport.backends) );
    ("gray.fault", fault_gray_tests);
    ("gray.hedged-runs", hedged_run_tests);
    ("gray.keyed-retry", keyed_retry_tests);
    ("gray.tail-arms", tail_arm_tests);
  ]
