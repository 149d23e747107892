(* Tests for the pluggable transport backends: the lock-free MPSC ring
   under the [Socket] backend's outboxes, the interruptible Alarm, the
   binary codec of the [Socket] backend, the backend list, and
   cluster-level smoke on both fabrics. *)

open Regemu_objects
open Regemu_live
module Json = Regemu_obs.Json
module Proto = Regemu_netsim.Proto

let test name f = Alcotest.test_case name `Quick f

(* wait for a counter to reach [target] (lanes are asynchronous) *)
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

(* --- mpsc --------------------------------------------------------------- *)

let mpsc_tests =
  [
    test "single producer is FIFO" (fun () ->
        let q = Mpsc.create () in
        List.iter (Mpsc.push q) [ 1; 2; 3; 4; 5 ];
        let rec drain acc =
          match Mpsc.try_pop q with
          | Some v -> drain (v :: acc)
          | None -> List.rev acc
        in
        Alcotest.(check (list int)) "pop order" [ 1; 2; 3; 4; 5 ] (drain []);
        Alcotest.(check bool) "empty after drain" true (Mpsc.is_empty q);
        Alcotest.(check int) "pushed" 5 (Mpsc.pushed q);
        Alcotest.(check int) "popped" 5 (Mpsc.popped q));
    test "park blocks until a push wakes the consumer" (fun () ->
        let q = Mpsc.create () in
        let got = Atomic.make 0 in
        let consumer =
          Domain.spawn (fun () ->
              let stop () = Atomic.get got < 0 in
              let rec go () =
                if not (stop ()) then begin
                  (match Mpsc.try_pop q with
                  | Some v -> Atomic.set got v
                  | None ->
                      Mpsc.park q ~ready:(fun () ->
                          (not (Mpsc.is_empty q)) || stop ()));
                  if Atomic.get got = 0 then go ()
                end
              in
              go ())
        in
        Thread.delay 0.02;  (* give the consumer time to park *)
        Mpsc.push q 42;
        Alcotest.(check bool) "woken and delivered" true
          (settle (fun () -> Atomic.get got) 42);
        Domain.join consumer);
    (* The list-model property: against N concurrent domain producers,
       the single consumer pops every element exactly once, and each
       producer's elements come out in its own push order. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:15
         ~name:"mpsc: exactly-once + per-producer FIFO under domain producers"
         (QCheck.make
            QCheck.Gen.(
              pair (int_range 1 4) (int_range 0 60)
              >|= fun (producers, per) -> (producers, per)))
         (fun (producers, per) ->
           let q = Mpsc.create () in
           let doms =
             List.init producers (fun p ->
                 Domain.spawn (fun () ->
                     for i = 0 to per - 1 do
                       Mpsc.push q (p, i)
                     done))
           in
           let total = producers * per in
           let seen = Array.make producers [] in
           let n = ref 0 in
           let t0 = Unix.gettimeofday () in
           while !n < total && Unix.gettimeofday () -. t0 < 10.0 do
             match Mpsc.try_pop q with
             | Some (p, i) ->
                 seen.(p) <- i :: seen.(p);
                 incr n
             | None -> Domain.cpu_relax ()
           done;
           List.iter Domain.join doms;
           if !n <> total then
             QCheck.Test.fail_reportf "popped %d of %d" !n total;
           Array.iteri
             (fun p l ->
               let got = List.rev l in
               let want = List.init per Fun.id in
               if got <> want then
                 QCheck.Test.fail_reportf
                   "producer %d out of order (or lost/duplicated)" p)
             seen;
           Mpsc.is_empty q));
  ]

(* --- alarm -------------------------------------------------------------- *)

let alarm_tests =
  [
    test "wait times out on its own" (fun () ->
        let a = Alarm.create () in
        let t0 = Unix.gettimeofday () in
        Alarm.wait a 0.02;
        let dt = Unix.gettimeofday () -. t0 in
        Alcotest.(check bool) "slept at least ~the period" true (dt >= 0.015);
        Alcotest.(check bool) "not rung" false (Alarm.rung a);
        Alarm.close a);
    test "ring interrupts a long wait and is sticky" (fun () ->
        let a = Alarm.create () in
        let ringer =
          Thread.create
            (fun () ->
              Thread.delay 0.02;
              Alarm.ring a)
            ()
        in
        let t0 = Unix.gettimeofday () in
        Alarm.wait a 10.0;
        let dt = Unix.gettimeofday () -. t0 in
        Alcotest.(check bool) "woken well before the deadline" true (dt < 5.0);
        (* sticky: every later wait returns immediately *)
        let t1 = Unix.gettimeofday () in
        Alarm.wait a 10.0;
        Alcotest.(check bool) "rung wait is immediate" true
          (Unix.gettimeofday () -. t1 < 1.0);
        Alcotest.(check bool) "rung" true (Alarm.rung a);
        Thread.join ringer;
        Alarm.close a);
  ]

(* --- codec -------------------------------------------------------------- *)

let values =
  [
    Value.Unit;
    Value.Bool true;
    Value.Bool false;
    Value.Int 0;
    Value.Int (-1);
    Value.Int max_int;
    Value.Int min_int;
    Value.Str "";
    Value.Str "hello";
    Value.Str (String.make 300 '\xff');
    Value.Pair (Value.Int 7, Value.Str "x");
    Value.Pair (Value.Pair (Value.Bool true, Value.Unit), Value.Int 3);
  ]

let payloads =
  let v = Value.Pair (Value.Int 42, Value.Str "ts") in
  [
    Proto.Query { rid = 0; key = 0 };
    Proto.Query { rid = max_int; key = 0 };
    Proto.Query_reply { rid = 1; stored = v };
    Proto.Update { rid = 2; key = 0; proposed = v };
    Proto.Update_reply { rid = 3 };
    Proto.Reg_read { rid = 4; reg = 9 };
    Proto.Reg_read_reply { rid = 5; stored = Value.Str "r" };
    Proto.Reg_write { rid = 6; reg = 0; proposed = Value.Unit };
    Proto.Reg_write_reply { rid = 7 };
    Proto.Query { rid = 8; key = 13 };
    Proto.Query { rid = 9; key = max_int };
    Proto.Update { rid = 10; key = 13; proposed = v };
    Proto.Update { rid = 11; key = max_int; proposed = Value.Bool false };
  ]

let msgs =
  Codec.Ensure_regs 0 :: Codec.Ensure_regs 17
  :: List.concat_map
       (fun payload ->
         List.concat_map
           (fun dest ->
             [ Codec.Env { Transport_intf.src = 3; dest; payload } ])
           [ Transport_intf.To_server 1; Transport_intf.To_client 2 ])
       payloads
  @ List.map
      (fun stored ->
        Codec.Env
          {
            Transport_intf.src = 0;
            dest = Transport_intf.To_client 0;
            payload = Proto.Query_reply { rid = 99; stored };
          })
      values

let codec_tests =
  [
    test "every message round-trips byte-identically" (fun () ->
        List.iter
          (fun m ->
            let s = Codec.encode m in
            let m' = Codec.decode s in
            Alcotest.(check bool) "decode inverts encode" true (m = m');
            (* canonical: exactly one byte representation per message *)
            Alcotest.(check string) "re-encode is byte-identical" s
              (Codec.encode m'))
          msgs);
    test "truncated bodies are rejected at every cut point" (fun () ->
        let update =
          Codec.Env
            {
              Transport_intf.src = 1;
              dest = Transport_intf.To_server 2;
              payload =
                Proto.Update
                  {
                    rid = 5;
                    key = 0;
                    proposed = Value.Pair (Value.Int 1, Value.Str "v");
                  };
            }
        in
        List.iter
          (fun m ->
            let s = Codec.encode m in
            for cut = 0 to String.length s - 1 do
              match Codec.decode (String.sub s 0 cut) with
              | exception Codec.Malformed _ -> ()
              | _ ->
                  Alcotest.failf "truncation to %d bytes decoded as a message"
                    cut
            done)
          (update :: msgs));
    test "garbage and trailing bytes are rejected" (fun () ->
        (match Codec.decode "\xde\xad\xbe\xef" with
        | exception Codec.Malformed _ -> ()
        | _ -> Alcotest.fail "garbage tag decoded");
        (match Codec.decode "" with
        | exception Codec.Malformed _ -> ()
        | _ -> Alcotest.fail "empty body decoded");
        let s = Codec.encode (Codec.Ensure_regs 3) in
        match Codec.decode (s ^ "\x00") with
        | exception Codec.Malformed _ -> ()
        | _ -> Alcotest.fail "trailing byte accepted");
    test "framing: write_msg/read_msg over a pipe, EOF at a boundary"
      (fun () ->
        let r, w = Unix.pipe ~cloexec:true () in
        let sent = [ List.nth msgs 0; List.nth msgs 3; List.nth msgs 9 ] in
        List.iter (Codec.write_msg w) sent;
        Unix.close w;
        let got =
          List.map (fun _ -> Option.get (Codec.read_msg r)) sent
        in
        Alcotest.(check bool) "frames round-trip in order" true (sent = got);
        Alcotest.(check bool) "clean EOF is None" true
          (Codec.read_msg r = None);
        Unix.close r);
    test "framing: mid-frame EOF is Malformed" (fun () ->
        let r, w = Unix.pipe ~cloexec:true () in
        let s = Codec.encode (List.nth msgs 5) in
        (* a frame header promising more bytes than ever arrive *)
        let hdr = Bytes.create 4 in
        Bytes.set_int32_be hdr 0 (Int32.of_int (String.length s));
        ignore (Unix.write w hdr 0 4);
        ignore (Unix.write_substring w s 0 (String.length s / 2));
        Unix.close w;
        (match Codec.read_msg r with
        | exception Codec.Malformed _ -> ()
        | _ -> Alcotest.fail "mid-frame EOF not rejected");
        Unix.close r);
  ]

(* --- the backend list -------------------------------------------------- *)

let query i = Proto.Query { rid = i; key = 0 }

let names_tests =
  [
    test "backend names round-trip over Transport.backends" (fun () ->
        List.iter
          (fun b ->
            Alcotest.(check bool)
              (Transport.backend_name b ^ " parses back")
              true
              (Transport.backend_of_name (Transport.backend_name b) = Some b))
          Transport.backends;
        Alcotest.(check bool) "domains is gone" true
          (Transport.backend_of_name "domains" = None));
    test "a scheduler forces Threads whatever the configured backend"
      (fun () ->
        let sched =
          {
            Sched_hook.spawn = (fun ~name:_ _ -> ());
            suspend = (fun ?timeout_s:_ ?mutex:_ _ -> ());
            sleep = ignore;
          }
        in
        List.iter
          (fun b ->
            let cfg = { (Transport.default_config ~seed:1) with backend = b } in
            Alcotest.(check bool)
              (Transport.backend_name b ^ " runs as configured")
              true
              (Transport.effective_backend cfg = b);
            Alcotest.(check bool)
              (Transport.backend_name b ^ " under a scheduler")
              true
              (Transport.effective_backend ~sched cfg = Transport.Threads))
          Transport.backends);
    test "lanes: servers + 1 on threads, one per server on socket"
      (fun () ->
        List.iter
          (fun b ->
            let tr =
              Transport.create
                { (Transport.default_config ~seed:2) with backend = b }
                ~servers:3 ~deliver:ignore
            in
            Alcotest.(check bool) "backend selected" true
              (Transport.backend tr = b);
            let want = match b with Transport.Threads -> 4 | Socket -> 3 in
            Alcotest.(check int)
              (Transport.backend_name b ^ " lanes")
              want (Transport.lanes tr);
            Alcotest.(check int)
              (Transport.backend_name b ^ " starts no thread before a send")
              0
              (Transport.threads_started tr);
            Transport.stop tr)
          Transport.backends);
    test "create rejects a bad configuration on every backend" (fun () ->
        let expect_invalid what f =
          match f () with
          | (_ : Transport.t) -> Alcotest.failf "%s: accepted" what
          | exception Invalid_argument _ -> ()
        in
        List.iter
          (fun b ->
            let base =
              { (Transport.default_config ~seed:3) with backend = b }
            in
            let mk ?(servers = 2) cfg () =
              Transport.create cfg ~servers ~deliver:ignore
            in
            let what s = Transport.backend_name b ^ ": " ^ s in
            expect_invalid (what "no server") (mk ~servers:0 base);
            expect_invalid (what "no courier") (mk { base with couriers = 0 });
            expect_invalid (what "dup_prob above 1")
              (mk { base with dup_prob = 1.5 });
            expect_invalid (what "negative drop_prob")
              (mk { base with drop_prob = -0.1 });
            expect_invalid (what "negative max_delay_us")
              (mk { base with max_delay_us = -1 }))
          Transport.backends);
  ]

(* --- socket faults -------------------------------------------------------- *)

let socket_tests =
  [
    test "socket: replies run the same fault decision as requests" (fun () ->
        (* every envelope is duplicated and every copy delayed: 5
           queries become 10 request copies, the child answers each,
           and the 10 replies become 20 copies *)
        let open Regemu_obs in
        let trace = Trace.create () in
        let got = Atomic.make 0 in
        let tr =
          Transport.create ~sink:(Sink.make ~trace ())
            {
              (Transport.default_config ~seed:21) with
              backend = Transport.Socket;
              reorder = false;
              dup_prob = 1.0;
              delay_prob = 1.0;
              max_delay_us = 200;
            }
            ~servers:1
            ~deliver:(fun _ -> Atomic.incr got)
        in
        Transport.start tr;
        for i = 0 to 4 do
          Transport.send tr
            { Transport.src = 0; dest = Transport.To_server 0; payload = query i }
        done;
        Alcotest.(check bool) "every reply copy delivered" true
          (settle (fun () -> Atomic.get got) 20);
        Thread.delay 0.02;
        Transport.stop tr;
        Alcotest.(check int) "no extra copies" 20 (Atomic.get got);
        Alcotest.(check int) "request and reply duplicates" (5 + 10)
          (Transport.duplicated tr);
        Alcotest.(check int) "one delay draw per copy" (10 + 20)
          (Transport.delayed tr);
        let delay_events =
          List.length
            (List.filter
               (fun (_, (e : Event.t)) -> e.name = "delay")
               (Trace.events trace))
        in
        Alcotest.(check int) "a delay event per held copy" (10 + 20)
          delay_events);
    test "socket: per-source FIFO when reorder=false" (fun () ->
        (* one writer thread, one stream and one reader per server:
           each server's replies come back in the order its queries
           were sent, even though the servers race each other *)
        let per_src : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
        let lock = Mutex.create () in
        let deliver (e : Transport.envelope) =
          Mutex.lock lock;
          let l =
            match Hashtbl.find_opt per_src e.src with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.replace per_src e.src l;
                l
          in
          l := Proto.rid_of e.payload :: !l;
          Mutex.unlock lock
        in
        let tr =
          Transport.create
            {
              (Transport.default_config ~seed:22) with
              backend = Transport.Socket;
              reorder = false;
            }
            ~servers:3 ~deliver
        in
        Transport.start tr;
        let total = 150 in
        for i = 0 to total - 1 do
          Transport.send tr
            {
              Transport.src = 0;
              dest = Transport.To_server (i mod 3);
              payload = query i;
            }
        done;
        Alcotest.(check bool) "every reply delivered" true
          (settle (fun () -> Transport.delivered tr) total);
        Transport.stop tr;
        Alcotest.(check int) "every server answered" 3 (Hashtbl.length per_src);
        Hashtbl.iter
          (fun _ l ->
            let got = List.rev !l in
            Alcotest.(check int) "a third of the replies each" (total / 3)
              (List.length got);
            Alcotest.(check (list int)) "per-source send order"
              (List.sort compare got) got)
          per_src);
    test "socket: a killed server's outbox waits; restart releases it"
      (fun () ->
        let delivered = Atomic.make 0 in
        let tr =
          Transport.create
            {
              (Transport.default_config ~seed:23) with
              backend = Transport.Socket;
              reorder = false;
            }
            ~servers:2
            ~deliver:(fun _ -> Atomic.incr delivered)
        in
        Transport.start tr;
        Transport.set_server_up tr ~server:0 false;
        for i = 0 to 19 do
          Transport.send tr
            { Transport.src = 0; dest = Transport.To_server 0; payload = query i }
        done;
        Thread.delay 0.05;
        Alcotest.(check int) "nothing answered while down" 0
          (Atomic.get delivered);
        (* the other server's outbox still flows *)
        Transport.send tr
          { Transport.src = 0; dest = Transport.To_server 1; payload = query 99 };
        Alcotest.(check bool) "other server unaffected" true
          (settle (fun () -> Atomic.get delivered) 1);
        Transport.set_server_up tr ~server:0 true;
        Alcotest.(check bool) "backlog answered by the fresh child" true
          (settle (fun () -> Atomic.get delivered) 21);
        Transport.stop tr;
        Alcotest.(check int) "nothing lost, nothing doubled" 21
          (Atomic.get delivered));
  ]

(* --- cluster-level smoke on both fabrics -------------------------------- *)

let run_spec backend ~chaos ~seed =
  let o =
    Regemu_bench.Bench.run
      {
        (Regemu_bench.Bench.closed ~backend ~algo:Live_bench.Abd ~seed
           { k = 1; readers = 2; ops_per_client = 40 })
        with
        chaos;
      }
  in
  match o.check with
  | Regemu_bench.Bench.Register r -> (o, r)
  | Regemu_bench.Bench.Keys _ -> Alcotest.fail "expected a register verdict"

let check_clean what (r : Checker.result) =
  if not (Checker.ok r) then
    Alcotest.failf "%s: checker found a violation: %a" what Checker.result_pp r

let cluster_tests =
  [
    test "socket: ABD quiet run completes clean over real processes"
      (fun () ->
        let o, check = run_spec Transport.Socket ~chaos:false ~seed:12 in
        check_clean "socket quiet" check;
        Alcotest.(check int) "every op completed" (3 * 40) o.ops;
        Alcotest.(check bool) "clean" true (Regemu_bench.Bench.clean o));
    test "socket: ABD under drop, dup and delay completes clean" (fun () ->
        (* no crash injector: socket restarts are amnesiac, and this
           test is about the message faults alone *)
        let cfg =
          let base = Cluster.default_config ~n:3 ~seed:14 in
          {
            base with
            Cluster.transport =
              {
                base.Cluster.transport with
                Transport.backend = Transport.Socket;
                drop_prob = 0.05;
                dup_prob = 0.1;
                delay_prob = 0.1;
                max_delay_us = 500;
              };
          }
        in
        let cluster = Cluster.create cfg in
        let abd = Abd_live.create cluster ~f:1 () in
        let w = Cluster.new_client cluster in
        let r = Cluster.new_client cluster in
        Cluster.start cluster;
        let checker = Checker.spawn cluster () in
        for i = 1 to 20 do
          Abd_live.write abd w (Value.Int i);
          ignore (Abd_live.read abd r)
        done;
        let res = Checker.stop checker in
        let st = Cluster.stats cluster in
        Cluster.shutdown cluster;
        check_clean "socket message faults" res;
        Alcotest.(check int) "all 40 ops completed" 40
          st.Cluster.ops_completed;
        Alcotest.(check bool) "every fault fired" true
          (st.Cluster.msgs_dropped > 0
          && st.Cluster.msgs_duplicated > 0
          && st.Cluster.msgs_delayed > 0));
    test "socket: one crash/restart (a fresh amnesiac child) stays \
          WS-regular at f=1" (fun () ->
        (* one wiped server of three: every f+1 quorum still touches an
           unwiped copy, so ABD remains WS-regular — the single-crash
           case the socket fabric must survive.  (Repeated wipes of
           different servers would not be, which is why the socket
           smoke suite runs quiet.) *)
        let cfg =
          let base = Cluster.default_config ~n:3 ~seed:13 in
          {
            base with
            Cluster.transport =
              {
                base.Cluster.transport with
                Transport.backend = Transport.Socket;
                reorder = false;
              };
          }
        in
        let cluster = Cluster.create cfg in
        let abd = Abd_live.create cluster ~f:1 () in
        let w = Cluster.new_client cluster in
        let r = Cluster.new_client cluster in
        Cluster.start cluster;
        let checker = Checker.spawn cluster () in
        Abd_live.write abd w (Value.Str "pre-crash");
        Cluster.crash cluster 0;
        for i = 1 to 10 do
          Abd_live.write abd w (Value.Str (Printf.sprintf "during-%d" i));
          ignore (Abd_live.read abd r)
        done;
        Cluster.restart cluster 0;
        for i = 1 to 10 do
          ignore (Abd_live.read abd r);
          Abd_live.write abd w (Value.Str (Printf.sprintf "after-%d" i))
        done;
        let res = Checker.stop checker in
        Cluster.shutdown cluster;
        check_clean "socket crash/restart" res;
        Alcotest.(check int) "all 41 ops completed" 41
          (Cluster.stats cluster).Cluster.ops_completed);
    test "threads: ABD with chaos completes clean" (fun () ->
        let o, check = run_spec Transport.Threads ~chaos:true ~seed:11 in
        check_clean "threads chaos" check;
        Alcotest.(check int) "every op completed" (3 * 40) o.ops;
        Alcotest.(check bool) "clean" true (Regemu_bench.Bench.clean o));
  ]

let suites =
  [
    ("backend.mpsc", mpsc_tests);
    ("backend.alarm", alarm_tests);
    ("backend.codec", codec_tests);
    ("backend.names", names_tests);
    ("backend.socket", socket_tests);
    ("backend.cluster", cluster_tests);
  ]
