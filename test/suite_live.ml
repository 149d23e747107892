(* Tests for the live cluster runtime: real threads, real faults,
   online checking. *)

open Regemu_objects
open Regemu_live
module Json = Regemu_obs.Json

let test name f = Alcotest.test_case name `Quick f

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

(* --- ringbuf ------------------------------------------------------------ *)

let ringbuf_tests =
  [
    test "fifo push/pop" (fun () ->
        let b = Ringbuf.create () in
        List.iter (Ringbuf.push b) [ 1; 2; 3 ];
        Alcotest.(check (list int)) "to_list front-to-back" [ 1; 2; 3 ]
          (Ringbuf.to_list b);
        Alcotest.(check int) "pop oldest" 1 (Ringbuf.pop b);
        Ringbuf.push b 4;
        Alcotest.(check (list int)) "order kept" [ 2; 3; 4 ]
          (Ringbuf.to_list b));
    test "take_at swaps the front into the hole" (fun () ->
        let b = Ringbuf.create () in
        List.iter (Ringbuf.push b) [ 0; 1; 2; 3; 4; 5 ];
        Alcotest.(check int) "take_at returns the i-th oldest" 3
          (Ringbuf.take_at b 3);
        (* O(1) removal: the front (0) now sits where 3 was *)
        Alcotest.(check (list int)) "front swapped in" [ 1; 2; 0; 4; 5 ]
          (Ringbuf.to_list b);
        Alcotest.(check int) "take_at 0 = pop" 1 (Ringbuf.take_at b 0);
        Alcotest.(check int) "length tracks" 4 (Ringbuf.length b));
    test "wraparound and growth keep order" (fun () ->
        let b = Ringbuf.create () in
        (* force the head past the backing array's start, then grow *)
        for i = 0 to 9 do Ringbuf.push b i done;
        for _ = 0 to 6 do ignore (Ringbuf.pop b) done;
        for i = 10 to 39 do Ringbuf.push b i done;
        Alcotest.(check (list int)) "contiguous after wrap+grow"
          (List.init 33 (fun i -> i + 7))
          (Ringbuf.to_list b);
        Ringbuf.clear b;
        Alcotest.(check bool) "clear empties" true (Ringbuf.is_empty b));
  ]

(* a list model of Ringbuf, mirroring take_at's documented swap: the
   front element moves into the vacated slot, then the front advances *)
let model_take_at l i =
  if i = 0 then (List.hd l, List.tl l)
  else
    let x = List.nth l i in
    let rest = List.filteri (fun j _ -> j <> 0 && j <> i) l in
    (* re-insert the old front where x sat (now position i-1 of rest) *)
    let rec insert j = function
      | ys when j = i - 1 -> (List.hd l) :: ys
      | [] -> [ List.hd l ]
      | y :: ys -> y :: insert (j + 1) ys
    in
    (x, insert 0 rest)

type ringbuf_op = R_push of int | R_pop | R_take_at of int | R_clear

let ringbuf_op_pp = function
  | R_push x -> Fmt.str "push %d" x
  | R_pop -> "pop"
  | R_take_at i -> Fmt.str "take_at %d" i
  | R_clear -> "clear"

let ringbuf_property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:
           "random push/pop/take_at/clear agree with the list model \
            (wraparound and growth included)"
         ~count:200
         (QCheck.make
            QCheck.Gen.(
              list_size (int_range 0 120)
                (let* tag = int_range 0 9 in
                 let* x = int_range 0 1_000 in
                 return
                   (match tag with
                   | 0 | 1 | 2 | 3 -> R_push x
                   | 4 | 5 | 6 -> R_pop
                   | 7 | 8 -> R_take_at x
                   | _ -> R_clear)))
            ~print:(fun ops ->
              String.concat "; " (List.map ringbuf_op_pp ops)))
         (fun ops ->
           let b = Ringbuf.create () in
           let model = ref [] in
           List.iter
             (fun op ->
               match op with
               | R_push x ->
                   Ringbuf.push b x;
                   model := !model @ [ x ]
               | R_pop ->
                   if !model = [] then (
                     match Ringbuf.pop b with
                     | exception Invalid_argument _ -> ()
                     | _ -> QCheck.Test.fail_report "pop on empty succeeded")
                   else begin
                     let got = Ringbuf.pop b in
                     if got <> List.hd !model then
                       QCheck.Test.fail_reportf "pop %d, model %d" got
                         (List.hd !model);
                     model := List.tl !model
                   end
               | R_take_at i ->
                   let len = List.length !model in
                   if len = 0 then ()
                   else begin
                     let i = i mod len in
                     let got = Ringbuf.take_at b i in
                     let want, model' = model_take_at !model i in
                     if got <> want then
                       QCheck.Test.fail_reportf "take_at %d: %d, model %d" i
                         got want;
                     model := model'
                   end
               | R_clear ->
                   Ringbuf.clear b;
                   model := [])
             ops;
           Ringbuf.to_list b = !model
           && Ringbuf.length b = List.length !model
           && Ringbuf.is_empty b = (!model = [])));
  ]

(* --- mailbox ------------------------------------------------------------ *)

let mailbox_tests =
  [
    test "fifo in the single-threaded case" (fun () ->
        let mb = Mailbox.create () in
        List.iter (Mailbox.push mb) [ 1; 2; 3 ];
        let pop1 = Mailbox.try_pop mb in
        let pop2 = Mailbox.try_pop mb in
        let pop3 = Mailbox.try_pop mb in
        let pop4 = Mailbox.try_pop mb in
        let pops = [ pop1; pop2; pop3; pop4 ] in
        Alcotest.(check (list (option int)))
          "popped in order"
          [ Some 1; Some 2; Some 3; None ]
          pops);
    test "exactly-once under contention" (fun () ->
        let mb = Mailbox.create () in
        let pushers = 4 and per_pusher = 250 in
        let threads =
          List.init pushers (fun i ->
              Thread.create
                (fun () ->
                  for j = 0 to per_pusher - 1 do
                    Mailbox.push mb ((i * per_pusher) + j)
                  done)
                ())
        in
        List.iter Thread.join threads;
        let seen = Hashtbl.create 64 in
        let rec drain () =
          match Mailbox.try_pop mb with
          | None -> ()
          | Some x ->
              Alcotest.(check bool)
                "no duplicate delivery" false (Hashtbl.mem seen x);
              Hashtbl.replace seen x ();
              drain ()
        in
        drain ();
        Alcotest.(check int)
          "every push delivered once" (pushers * per_pusher)
          (Hashtbl.length seen);
        Alcotest.(check int) "accounting agrees"
          (Mailbox.pushed mb) (Mailbox.popped mb));
    test "close wakes blocked poppers" (fun () ->
        let mb = Mailbox.create () in
        let got = ref (Some 99) in
        let t = Thread.create (fun () -> got := Mailbox.pop mb) () in
        Thread.delay 0.01;
        Mailbox.close mb;
        Thread.join t;
        Alcotest.(check (option int)) "pop returned None" None !got;
        Mailbox.push mb 1;
        Alcotest.(check (option int))
          "push after close is a no-op" None (Mailbox.try_pop mb));
    test "close wakes every blocked popper" (fun () ->
        let mb = Mailbox.create () in
        let done_ = Atomic.make 0 in
        let ts =
          List.init 4 (fun _ ->
              Thread.create
                (fun () ->
                  (match Mailbox.pop mb with
                  | None -> ()
                  | Some _ -> Alcotest.fail "popped from an empty closed box");
                  Atomic.incr done_)
                ())
        in
        Thread.delay 0.01;
        Mailbox.close mb;
        List.iter Thread.join ts;
        Alcotest.(check int) "all four poppers returned" 4 (Atomic.get done_));
    test "pop_batch drains oldest-first and concatenates in order" (fun () ->
        let mb = Mailbox.create () in
        for i = 1 to 100 do Mailbox.push mb i done;
        let rec batches acc =
          if Mailbox.length mb = 0 then List.rev acc
          else
            match Mailbox.pop_batch mb ~max:32 with
            | None -> List.rev acc
            | Some b ->
                Alcotest.(check bool) "batch bounded" true (List.length b <= 32);
                batches (List.rev_append b acc)
        in
        Alcotest.(check (list int)) "concatenation is 1..100"
          (List.init 100 (fun i -> i + 1))
          (batches []);
        Alcotest.(check bool) "pop_batch rejects max<1" true
          (match Mailbox.pop_batch mb ~max:0 with
          | exception Invalid_argument _ -> true
          | _ -> false));
    test "pop_batch returns None once closed, even mid-blocking" (fun () ->
        let mb = Mailbox.create () in
        let got = ref (Some [ 99 ]) in
        let t = Thread.create (fun () -> got := Mailbox.pop_batch mb ~max:8) () in
        Thread.delay 0.01;
        Mailbox.close mb;
        Thread.join t;
        Alcotest.(check bool) "blocked batch-popper got None" true (!got = None));
    (* regression: close used to clear the queue, losing accepted items.
       Drain-then-None: queued items stay poppable after close; only an
       empty closed mailbox reports end-of-stream. *)
    test "close is drain-then-None, not drop" (fun () ->
        let mb = Mailbox.create () in
        List.iter (Mailbox.push mb) [ 1; 2; 3 ];
        Mailbox.close mb;
        Alcotest.(check (list (option int)))
          "queued items survive the close, then None"
          [ Some 1; Some 2; Some 3; None; None ]
          (List.init 5 (fun _ -> Mailbox.pop mb)));
    test "pop_batch drains a closed mailbox before reporting None" (fun () ->
        let mb = Mailbox.create () in
        for i = 1 to 5 do Mailbox.push mb i done;
        Mailbox.close mb;
        Alcotest.(check bool)
          "whole backlog in one batch" true
          (Mailbox.pop_batch mb ~max:10 = Some [ 1; 2; 3; 4; 5 ]);
        Alcotest.(check bool)
          "then end-of-stream" true
          (Mailbox.pop_batch mb ~max:10 = None);
        Alcotest.(check (option int)) "try_pop agrees" None (Mailbox.try_pop mb));
  ]

(* --- transport ---------------------------------------------------------- *)

let query i = Regemu_netsim.Proto.Query { rid = i }

let transport_tests =
  [
    test "no loss: every send is delivered exactly once" (fun () ->
        let seen = Hashtbl.create 64 in
        let lock = Mutex.create () in
        let deliver (e : Transport.envelope) =
          Mutex.lock lock;
          let rid = Regemu_netsim.Proto.rid_of e.payload in
          Hashtbl.replace seen rid (1 + Option.value ~default:0 (Hashtbl.find_opt seen rid));
          Mutex.unlock lock
        in
        let tr =
          Transport.create
            { (Transport.default_config ~seed:7) with couriers = 3 }
            ~servers:1 ~deliver
        in
        Transport.start tr;
        let total = 500 in
        for i = 0 to total - 1 do
          Transport.send tr
            { Transport.src = 0; dest = To_server 0; payload = query i }
        done;
        Alcotest.(check bool)
          "all deliveries arrived" true
          (settle (fun () -> Transport.delivered tr) total);
        Transport.stop tr;
        Alcotest.(check int) "each rid seen" total (Hashtbl.length seen);
        Hashtbl.iter
          (fun _ c -> Alcotest.(check int) "exactly once" 1 c)
          seen);
    test "dup_prob=1 duplicates every send" (fun () ->
        let seen = Hashtbl.create 64 in
        let lock = Mutex.create () in
        let deliver (e : Transport.envelope) =
          Mutex.lock lock;
          let rid = Regemu_netsim.Proto.rid_of e.payload in
          Hashtbl.replace seen rid (1 + Option.value ~default:0 (Hashtbl.find_opt seen rid));
          Mutex.unlock lock
        in
        let tr =
          Transport.create
            { (Transport.default_config ~seed:11) with dup_prob = 1.0 }
            ~servers:1 ~deliver
        in
        Transport.start tr;
        let total = 100 in
        for i = 0 to total - 1 do
          Transport.send tr
            { Transport.src = 0; dest = To_server 0; payload = query i }
        done;
        Alcotest.(check bool)
          "both copies of everything arrived" true
          (settle (fun () -> Transport.delivered tr) (2 * total));
        Transport.stop tr;
        Hashtbl.iter
          (fun _ c -> Alcotest.(check int) "exactly twice" 2 c)
          seen;
        Alcotest.(check int) "duplications counted" total
          (Transport.duplicated tr));
    test "lane fault streams are deterministic under a fixed seed" (fun () ->
        (* run the same externally ordered traffic through two fabrics
           with the same seed: every per-rid delivery count and every
           fault counter must agree — each lane's RNG is a pure
           function of the seed and that lane's send order *)
        let one () =
          let seen = Hashtbl.create 64 in
          let lock = Mutex.create () in
          let deliver (e : Transport.envelope) =
            Mutex.lock lock;
            let rid = Regemu_netsim.Proto.rid_of e.payload in
            Hashtbl.replace seen rid
              (1 + Option.value ~default:0 (Hashtbl.find_opt seen rid));
            Mutex.unlock lock
          in
          let tr =
            Transport.create
              {
                (Transport.default_config ~seed:1234) with
                dup_prob = 0.3;
                drop_prob = 0.25;
                couriers = 2;
              }
              ~servers:2 ~deliver
          in
          Transport.start tr;
          for i = 0 to 399 do
            Transport.send tr
              {
                Transport.src = 0;
                dest = To_server (i mod 2);
                payload = query i;
              }
          done;
          (* [sent] counts accepted envelopes (duplicates in, drops
             out), so it is exactly the expected delivery count *)
          let expect = Transport.sent tr in
          Alcotest.(check bool) "all surviving envelopes delivered" true
            (settle (fun () -> Transport.delivered tr) expect);
          let counters =
            (Transport.sent tr, Transport.dropped tr, Transport.duplicated tr)
          in
          Transport.stop tr;
          let per_rid =
            List.sort compare
              (Hashtbl.fold (fun rid c acc -> (rid, c) :: acc) seen [])
          in
          (counters, per_rid)
        in
        let a = one () and b = one () in
        Alcotest.(check bool) "same counters" true (fst a = fst b);
        Alcotest.(check bool) "same per-rid delivery multiset" true
          (snd a = snd b);
        Alcotest.(check bool) "the fault stream actually fired" true
          (let _, dropped, dup = fst a in
           dropped > 0 && dup > 0));
    test "sharding preserves per-destination FIFO when reorder=false"
      (fun () ->
        let per_dest : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
        let lock = Mutex.create () in
        let deliver (e : Transport.envelope) =
          Mutex.lock lock;
          let key =
            match e.dest with
            | Transport.To_server s -> s
            | Transport.To_client c -> 100 + c
          in
          let l =
            match Hashtbl.find_opt per_dest key with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.replace per_dest key l;
                l
          in
          l := Regemu_netsim.Proto.rid_of e.payload :: !l;
          Mutex.unlock lock
        in
        let tr =
          Transport.create
            {
              (Transport.default_config ~seed:5) with
              reorder = false;
              couriers = 3;
            }
            ~servers:3 ~deliver
        in
        Transport.start tr;
        (* interleave traffic across the three server lanes and the
           client lane; each destination's stream must come out in its
           own send order even though the lanes race each other *)
        let total = 300 in
        for i = 0 to total - 1 do
          let dest =
            if i mod 4 = 3 then Transport.To_client (i mod 2)
            else Transport.To_server (i mod 4)
          in
          Transport.send tr { Transport.src = 0; dest; payload = query i }
        done;
        Alcotest.(check bool) "all delivered" true
          (settle (fun () -> Transport.delivered tr) total);
        Transport.stop tr;
        Alcotest.(check int) "four lanes" 4 (Transport.lanes tr);
        Hashtbl.iter
          (fun _ l ->
            let got = List.rev !l in
            Alcotest.(check (list int)) "per-destination send order"
              (List.sort compare got) got)
          per_dest);
  ]

(* --- histlog ------------------------------------------------------------- *)

let histlog_tests =
  [
    test "poll is a consistent incremental feed under live writers"
      (fun () ->
        let log = Histlog.create () in
        let nwriters = 4 and per = 300 in
        let ws =
          List.init nwriters (fun i ->
              Histlog.new_writer log ~client:(Id.Client.of_int i))
        in
        let stop = Atomic.make false in
        let writers =
          List.mapi
            (fun i w ->
              Thread.create
                (fun () ->
                  for j = 0 to per - 1 do
                    let v = Value.Str (Printf.sprintf "%d.%d" i j) in
                    let tk = Histlog.invoke w (Regemu_sim.Trace.H_write v) in
                    if j mod 7 = 0 then Thread.yield ();
                    Histlog.return tk v
                  done)
                ())
            ws
        in
        (* poll concurrently with cursors, checking the feed invariants:
           oldest-first, strictly increasing invoked_at per writer, and
           a completed cell always carries its result *)
        let cursors = Array.make nwriters 0 in
        let last_inv = Array.make nwriters 0 in
        while not (Atomic.get stop) do
          List.iteri
            (fun i w ->
              let cur = cursors.(i) in
              let fresh = ref 0 in
              let len =
                Histlog.poll w ~from:cur (fun cv ->
                    incr fresh;
                    Alcotest.(check bool) "invoked_at strictly increases" true
                      (cv.Histlog.v_invoked_at > last_inv.(i));
                    last_inv.(i) <- cv.Histlog.v_invoked_at;
                    match (cv.Histlog.v_returned_at, cv.Histlog.v_result) with
                    | Some _, None ->
                        Alcotest.fail "completed cell without a result"
                    | _ -> ())
              in
              Alcotest.(check int) "poll visits exactly the suffix" !fresh
                (len - cur);
              cursors.(i) <- len)
            ws;
          if List.for_all (fun l -> l >= per) (Array.to_list cursors) then
            Atomic.set stop true
          else Thread.yield ()
        done;
        List.iter Thread.join writers;
        Alcotest.(check int) "all ops complete"
          (nwriters * per)
          (Histlog.completed log);
        (* the final snapshot merges the shards into global real-time
           order with dense indexes *)
        let h = Histlog.snapshot log in
        Alcotest.(check int) "snapshot has everything" (nwriters * per)
          (List.length h);
        List.iteri
          (fun i (op : Regemu_history.History.op) ->
            Alcotest.(check int) "index is the rank" i op.index;
            if i > 0 then
              Alcotest.(check bool) "sorted by invocation" true
                ((List.nth h (i - 1)).Regemu_history.History.invoked_at
                < op.invoked_at))
          h);
    test "snapshot while writers are live is a per-client prefix" (fun () ->
        let log = Histlog.create () in
        let w = Histlog.new_writer log ~client:(Id.Client.of_int 0) in
        let n = 500 in
        let t =
          Thread.create
            (fun () ->
              for j = 0 to n - 1 do
                let v = Value.Str (string_of_int j) in
                let tk = Histlog.invoke w (Regemu_sim.Trace.H_write v) in
                Histlog.return tk v
              done)
            ()
        in
        (* snapshots race the writer: each must be internally consistent
           (completed ops have results; at most one pending op for a
           sequential client) *)
        for _ = 0 to 20 do
          let h = Histlog.snapshot log in
          let pending =
            List.filter
              (fun (op : Regemu_history.History.op) -> op.returned_at = None)
              h
          in
          Alcotest.(check bool) "at most one in-flight op" true
            (List.length pending <= 1);
          List.iter
            (fun (op : Regemu_history.History.op) ->
              match (op.returned_at, op.result) with
              | Some _, None -> Alcotest.fail "completed op lost its result"
              | _ -> ())
            h;
          Thread.yield ()
        done;
        Thread.join t;
        Alcotest.(check int) "final snapshot exact" n
          (List.length (Histlog.snapshot log)));
  ]

(* the merged-shards property: however client operations interleave,
   the snapshot is exactly the invocation-order sequence — same
   clients, same hops, same results, dense indexes.  The interleaving
   is randomized but applied deterministically, modelling each client
   as a well-formed sequential process (invoke, later return). *)
let histlog_property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:
           "snapshot equals the merged per-client chunks under random \
            writer interleavings"
         ~count:150
         (QCheck.make
            QCheck.Gen.(
              let* k = int_range 1 4 in
              let* steps = list_size (int_range 0 150) (int_range 0 (k - 1)) in
              return (k, steps))
            ~print:(fun (k, steps) ->
              Fmt.str "%d writers, schedule %a" k
                Fmt.(Dump.list int)
                steps))
         (fun (k, steps) ->
           let log = Histlog.create () in
           let ws =
             Array.init k (fun i ->
                 Histlog.new_writer log ~client:(Id.Client.of_int i))
           in
           (* per-writer sequential state: at most one op in flight *)
           let pending = Array.make k None in
           let counts = Array.make k 0 in
           let expected = ref [] in
           (* (client, hop, result option), invocation order *)
           List.iter
             (fun w ->
               match pending.(w) with
               | None ->
                   let j = counts.(w) in
                   counts.(w) <- j + 1;
                   let hop =
                     if j mod 2 = 0 then
                       Regemu_sim.Trace.H_write
                         (Value.Str (Printf.sprintf "w%d-%d" w j))
                     else Regemu_sim.Trace.H_read
                   in
                   let tk = Histlog.invoke ws.(w) hop in
                   let cell = ref None in
                   expected := (w, hop, cell) :: !expected;
                   pending.(w) <- Some (tk, hop, cell)
               | Some (tk, hop, cell) ->
                   let v =
                     match hop with
                     | Regemu_sim.Trace.H_write v -> v
                     | Regemu_sim.Trace.H_read ->
                         Value.Str (Printf.sprintf "r%d" w)
                   in
                   Histlog.return tk v;
                   cell := Some v;
                   pending.(w) <- None)
             steps;
           let expected = List.rev !expected in
           let h = Histlog.snapshot log in
           List.length h = List.length expected
           && List.for_all2
                (fun (op : Regemu_history.History.op) (w, hop, cell) ->
                  Id.Client.to_int op.client = w
                  && op.hop = hop
                  && op.result = !cell
                  && (op.returned_at = None) = (!cell = None))
                h expected
           && (let idxs =
                 List.map
                   (fun (op : Regemu_history.History.op) -> op.index)
                   h
               in
               idxs = List.init (List.length h) Fun.id)));
  ]

(* --- live cluster runs -------------------------------------------------- *)

let check_clean what (r : Checker.result) =
  (match r.ws with
  | Regemu_history.Ws_check.Violated v ->
      Alcotest.failf "%s: WS-Regularity violated: %a" what
        Regemu_history.Ws_check.violation_pp v
  | Holds | Vacuous -> ());
  match r.atomic with
  | Some false -> Alcotest.failf "%s: final history not linearizable" what
  | Some true | None -> ()

let cluster_tests =
  [
    test "ABD smoke: concurrent clients, checker-clean" (fun () ->
        let o =
          Live_bench.run
            {
              (Live_bench.default_spec ~algo:Live_bench.Abd_wb ~chaos:false
                 ~seed:1 ())
              with k = 1; readers = 2; ops_per_client = 60;
            }
        in
        check_clean "abd-wb smoke" o.check;
        Alcotest.(check int) "every op completed" (3 * 60) o.ops;
        Alcotest.(check bool) "outcome is clean" true (Live_bench.clean o));
    test "algorithm 2 smoke: checker-clean" (fun () ->
        let o =
          Live_bench.run
            {
              (Live_bench.default_spec ~algo:Live_bench.Alg2 ~chaos:false
                 ~seed:2 ())
              with readers = 2; ops_per_client = 50;
            }
        in
        check_clean "alg2 smoke" o.check;
        Alcotest.(check int) "every op completed" (3 * 50) o.ops);
    test "deterministic crashes: ops complete with <= f down" (fun () ->
        let cfg = Cluster.default_config ~n:3 ~seed:3 in
        let cluster = Cluster.create cfg in
        let abd = Abd_live.create cluster ~f:1 () in
        let w = Cluster.new_client cluster in
        let r = Cluster.new_client cluster in
        Cluster.start cluster;
        let checker = Checker.spawn cluster () in
        Abd_live.write abd w (Value.Str "pre-crash");
        Cluster.crash cluster 0;
        (* quorum f+1 = 2 of the remaining servers: still wait-free *)
        for i = 1 to 20 do
          Abd_live.write abd w (Value.Str (Printf.sprintf "during-%d" i));
          ignore (Abd_live.read abd r)
        done;
        Alcotest.(check int) "one server down" 1 (Cluster.crashed_count cluster);
        Cluster.restart cluster 0;
        Cluster.crash cluster 2;
        for i = 1 to 20 do
          ignore (Abd_live.read abd r);
          Abd_live.write abd w (Value.Str (Printf.sprintf "after-%d" i))
        done;
        Alcotest.(check bool)
          "never more than f down" true
          (Cluster.crashed_count cluster <= 1);
        let res = Checker.stop checker in
        Cluster.shutdown cluster;
        check_clean "crash run" res;
        Alcotest.(check int) "all 81 ops completed" 81
          ((Cluster.stats cluster).Cluster.ops_completed));
    test "chaos run survives injected faults" (fun () ->
        let o =
          Live_bench.run
            {
              (Live_bench.default_spec ~algo:Live_bench.Abd ~chaos:true ~seed:4 ())
              with readers = 2; ops_per_client = 40;
            }
        in
        check_clean "abd chaos" o.check;
        Alcotest.(check int) "every op completed" (3 * 40) o.ops);
  ]

(* --- rounds run on the calling thread ------------------------------------- *)

let metric mx name =
  match Regemu_obs.Metrics.find mx name with
  | None -> Alcotest.failf "metric %S not registered" name
  | Some j -> (
      match Json.(member "value" j |> Option.map to_int_opt |> Option.join) with
      | Some v -> v
      | None -> Alcotest.failf "metric %S has no integer value" name)

(* one client thread on a quiet default-config cluster: every request
   finds its lane idle and its server unclaimed, so each round runs to
   completion on the calling thread and no server mailbox is touched *)
let quiet_inline_run what ~setup () =
  let mx = Regemu_obs.Metrics.create () in
  let cluster =
    Cluster.create ~sink:(Sink.make ~metrics:mx ())
      (Cluster.default_config ~n:3 ~seed:21)
  in
  let c = Cluster.new_client cluster in
  let write, read = setup cluster c in
  Cluster.start cluster;
  for i = 1 to 20 do
    write (Value.Int i);
    Alcotest.(check bool)
      (what ^ ": read returns the last write")
      true
      (Value.equal (read ()) (Value.Int i))
  done;
  (* a bare quorum of queries: every reply handler runs on this thread
     before the sends return *)
  let me = Thread.id (Thread.self ()) in
  let ran_on = ref [] in
  Cluster.locked c (fun () ->
      for s = 0 to 2 do
        Cluster.rpc cluster ~src:c s
          ~make:(fun rid -> Regemu_netsim.Proto.Query { rid })
          ~handler:(fun _ -> ran_on := Thread.id (Thread.self ()) :: !ran_on)
      done);
  Alcotest.(check (list int)) (what ^ ": handlers ran in place") [ me; me; me ]
    !ran_on;
  let st = Cluster.stats cluster in
  let pushed = metric mx "mailbox.pushed" in
  let inline = metric mx "server.inline_steps" in
  Cluster.shutdown cluster;
  Alcotest.(check int) (what ^ ": ops completed") 40 st.Cluster.ops_completed;
  Alcotest.(check int) (what ^ ": mailbox.pushed") 0 pushed;
  Alcotest.(check int) (what ^ ": gauge = stats") st.Cluster.inline_steps inline;
  Alcotest.(check bool) (what ^ ": steps ran inline") true (inline > 0)

let inline_tests =
  [
    test "quiet ABD rounds never touch a server mailbox"
      (quiet_inline_run "abd" ~setup:(fun cluster c ->
           let abd = Abd_live.create cluster ~f:1 () in
           (Abd_live.write abd c, fun () -> Abd_live.read abd c)));
    test "quiet Algorithm 2 rounds never touch a server mailbox"
      (quiet_inline_run "alg2" ~setup:(fun cluster c ->
           let p = Regemu_bounds.Params.make_exn ~k:1 ~f:1 ~n:3 in
           let alg = Alg2_live.create cluster p ~writers:[ c ] () in
           (Alg2_live.write alg c, fun () -> Alg2_live.read alg c)));
    test "quiet CDS rounds never touch a server mailbox"
      (quiet_inline_run "cds" ~setup:(fun cluster c ->
           let cds = Cds_live.create cluster ~f:1 ~writers:[ c ] () in
           (Cds_live.write cds c, fun () -> Cds_live.read cds c)));
    test "a request is never stepped ahead of a server's backlog" (fun () ->
        (* plain-register writes: last stepped wins, so the cell's final
           value shows whether the last request overtook the queued
           ones.  No retry: a late retransmission would re-step an old
           write. *)
        let queued = 200 in
        let run ~what ~transport ~stall ~resume =
          let cluster =
            Cluster.create
              {
                (Cluster.default_config ~n:3 ~seed:31) with
                transport;
                retry = None;
              }
          in
          let c = Cluster.new_client cluster in
          let reg = Cluster.alloc_reg cluster ~server:0 in
          Cluster.start cluster;
          let acked = ref 0 in
          let write i =
            Cluster.locked c (fun () ->
                Cluster.rpc cluster ~src:c 0
                  ~make:(fun rid ->
                    Regemu_netsim.Proto.Reg_write
                      { rid; reg; proposed = Value.Int i })
                  ~handler:(fun _ -> incr acked))
          in
          stall cluster;
          for i = 1 to queued do
            write i
          done;
          resume cluster;
          write (queued + 1);
          Cluster.await cluster c (fun () -> !acked = queued + 1);
          let final = Cluster.peek_reg cluster ~server:0 reg in
          Cluster.shutdown cluster;
          Alcotest.(check bool)
            (what ^ ": the last request was stepped last")
            true
            (Value.equal final (Value.Int (queued + 1)))
        in
        (* one courier and no reordering: the lane itself is FIFO, so
           any overtaking would be the cluster's *)
        let transport =
          { (Transport.default_config ~seed:31) with couriers = 1; reorder = false }
        in
        run ~what:"crashed then restarted" ~transport
          ~stall:(fun cl -> Cluster.crash cl 0)
          ~resume:(fun cl -> Cluster.restart cl 0);
        run ~what:"frozen lane" ~transport
          ~stall:(fun cl -> Cluster.freeze cl ~server:0)
          ~resume:(fun cl -> Cluster.thaw cl ~server:0));
    test "Algorithm 2's stale-ack re-send completes inside an in-place reply"
      (fun () ->
        (* cut server 0 off so the writer's request to its cell there
           is lost: two writes complete on the other cells, and the
           cell's first request stays outstanding (sticky).  After the
           heal, the writer's own await retransmits it; the round runs
           on the writer's thread, the stale acknowledgement is
           dispatched in place under the writer's held lock, and its
           handler re-sends the current value. *)
        let p = Regemu_bounds.Params.make_exn ~k:1 ~f:1 ~n:3 in
        let cluster = Cluster.create (Cluster.default_config ~n:3 ~seed:41) in
        let w = Cluster.new_client cluster in
        let alg = Alg2_live.create cluster p ~writers:[ w ] () in
        Cluster.start cluster;
        Cluster.split cluster ~groups:[ [ 1; 2 ]; [ 0 ] ] ~clients_with:0;
        Alg2_live.write alg w (Value.Int 1);
        Alg2_live.write alg w (Value.Int 2);
        let cell0 () = Value.payload (Cluster.peek_reg cluster ~server:0 0) in
        Alcotest.(check bool) "server 0's cell missed both writes" true
          (Value.equal (cell0 ()) Value.v0);
        Cluster.heal cluster;
        (match
           Cluster.await cluster w (fun () ->
               Value.equal (cell0 ()) (Value.Int 2))
         with
        | () -> ()
        | exception e ->
            Alcotest.failf "await raised %s" (Printexc.to_string e));
        let st = Cluster.stats cluster in
        Cluster.shutdown cluster;
        Alcotest.(check bool) "the stale request was retransmitted" true
          (st.Cluster.retries > 0));
    test "traced quiet run: each rid's points are in causal order" (fun () ->
        let open Regemu_obs in
        let tr = Trace.create () in
        let cluster =
          Cluster.create ~sink:(Sink.make ~trace:tr ())
            (Cluster.default_config ~n:3 ~seed:51)
        in
        let abd = Abd_live.create cluster ~f:1 () in
        let clients = List.init 2 (fun _ -> Cluster.new_client cluster) in
        Cluster.start cluster;
        (* two client threads: some rounds nest inline, some queue *)
        let threads =
          List.mapi
            (fun i c ->
              Thread.create
                (fun () ->
                  for j = 1 to 50 do
                    Abd_live.write abd c (Value.Int ((100 * i) + j));
                    ignore (Abd_live.read abd c)
                  done)
                ())
            clients
        in
        List.iter Thread.join threads;
        Cluster.shutdown cluster;
        (* (rid, stage) -> earliest timestamp (events come sorted by
           time); stages in causal order: rpc, request send, request
           recv, reply send, reply recv *)
        let first : (int * int, int64) Hashtbl.t = Hashtbl.create 4096 in
        List.iter
          (fun (_, (e : Event.t)) ->
            let dest =
              match List.assoc_opt "dest" e.args with
              | Some (Event.S d) when d <> "" -> Some d.[0]
              | _ -> None
            in
            let stage =
              match (e.name, dest) with
              | "rpc", _ -> Some 0
              | "send", Some 's' -> Some 1
              | "recv", Some 's' -> Some 2
              | "send", Some 'c' -> Some 3
              | "recv", Some 'c' -> Some 4
              | _ -> None
            in
            match (e.ph, e.cat, stage, List.assoc_opt "rid" e.args) with
            | Event.Instant, "msg", Some k, Some (Event.I rid) ->
                if not (Hashtbl.mem first (rid, k)) then
                  Hashtbl.replace first (rid, k) e.ts_ns
            | _ -> ())
          (Trace.events tr);
        Alcotest.(check int) "no event overwritten" 0 (Trace.dropped tr);
        let complete = ref 0 in
        Hashtbl.iter
          (fun (rid, k) _ ->
            if k = 0 then begin
              let chain =
                List.filter_map
                  (fun k -> Hashtbl.find_opt first (rid, k))
                  [ 0; 1; 2; 3; 4 ]
              in
              if List.length chain = 5 then incr complete;
              if List.sort Int64.compare chain <> chain then
                Alcotest.failf
                  "rid %d: points out of causal order (rpc, request send, \
                   request recv, reply send, reply recv)"
                  rid
            end)
          first;
        (* 2 threads x 50 (write + read) = 300 rounds, each with at
           least a quorum of 2 replies *)
        Alcotest.(check bool) "every round's quorum rids joined" true
          (!complete >= 300 * 2));
  ]

(* --- the load generator's failure contract ------------------------------- *)

let with_clients f =
  let cluster = Cluster.create (Cluster.default_config ~n:3 ~seed:1) in
  let writers = List.init 2 (fun _ -> Cluster.new_client cluster) in
  let readers = List.init 2 (fun _ -> Cluster.new_client cluster) in
  Cluster.start cluster;
  Fun.protect
    ~finally:(fun () -> Cluster.shutdown cluster)
    (fun () -> f ~writers ~readers)

let load_tests =
  [
    test "an Unavailable op is counted and the run carries on" (fun () ->
        with_clients @@ fun ~writers ~readers ->
        let done_ops = Atomic.make 0 in
        let raised = Atomic.make false in
        let write cl _ =
          if Atomic.compare_and_set raised false true then
            raise
              (Cluster.Unavailable
                 {
                   Cluster.client = Cluster.client_id cl;
                   cause = Cluster.Quorum_lost;
                   elapsed_s = 0.0;
                   reachable = 1;
                   required = 2;
                 })
          else Atomic.incr done_ops
        in
        let read _ =
          Atomic.incr done_ops;
          Value.Str "x"
        in
        let failed =
          Load.run ~write ~read ~writers ~readers ~ops_per_client:5
        in
        Alcotest.(check int) "one failed op" 1 failed;
        Alcotest.(check int) "every other op ran" ((4 * 5) - 1)
          (Atomic.get done_ops));
    test "a Timeout counts as failed; a Failure still propagates" (fun () ->
        with_clients @@ fun ~writers ~readers ->
        Alcotest.(check int) "every read timed out" 10
          (Load.run
             ~write:(fun _ _ -> ())
             ~read:(fun _ -> raise (Cluster.Timeout "slow"))
             ~writers ~readers ~ops_per_client:5);
        match
          Load.run
            ~write:(fun _ _ -> failwith "boom")
            ~read:(fun _ -> Value.Str "x")
            ~writers ~readers ~ops_per_client:5
        with
        | exception Failure m -> Alcotest.(check string) "re-raised" "boom" m
        | _ -> Alcotest.fail "a Failure was swallowed");
  ]

(* --- saturation bench / regemu-bench schema ------------------------------ *)

let bench_tests =
  [
    test "saturate point is clean and its document passes the schema check"
      (fun () ->
        let spec =
          Live_bench.saturate_spec ~algo:Live_bench.Abd ~clients:2
            ~ops_per_client:10 ~seed:5 ()
        in
        let o =
          match
            Live_bench.run_reps ~reps:2 ~by:(fun o -> o.Live_bench.throughput)
              [ spec ]
          with
          | [ o ] -> o
          | _ -> Alcotest.fail "expected one outcome"
        in
        Alcotest.(check bool) "clean" true (Live_bench.clean o);
        let doc = Live_bench.saturate_json [ o ] in
        (match Live_bench.validate_bench_json doc with
        | Ok () -> ()
        | Error m -> Alcotest.failf "schema check failed: %s" m);
        (* the emitted names are the dashboard keys; keep them stable *)
        match doc with
        | Json.Obj kvs -> (
            match List.assoc "benchmarks" kvs with
            | Json.List [ Json.Obj b ] ->
                Alcotest.(check bool) "benchmark name" true
                  (List.assoc "name" b
                  = Json.Str "saturate/abd/threads/clients=2")
            | _ -> Alcotest.fail "expected one benchmark entry")
        | _ -> Alcotest.fail "expected an object");
    test "schema check rejects malformed documents" (fun () ->
        let reject doc =
          match Live_bench.validate_bench_json doc with
          | Error _ -> ()
          | Ok () -> Alcotest.fail "malformed document accepted"
        in
        reject (Json.Obj [ ("schema", Json.Str "regemu-bench/2") ]);
        reject
          (Json.Obj
             [
               ("schema", Json.Str "regemu-bench/1");
               ("benchmarks", Json.Str "not-a-list");
             ]);
        reject
          (Json.Obj
             [
               ("schema", Json.Str "regemu-bench/1");
               ( "benchmarks",
                 Json.List
                   [ Json.Obj [ ("name", Json.Str "x") ] (* no measure *) ] );
             ]);
        reject
          (Json.Obj
             [
               ("schema", Json.Str "regemu-bench/1");
               ( "benchmarks",
                 Json.List
                   [
                     Json.Obj
                       [
                         ("name", Json.Str "x");
                         ("measure", Json.Str "throughput");
                         ("ns_per_run", Json.Str "fast");
                         ("r_square", Json.Null);
                       ];
                   ] );
             ]));
    test "a live smoke document validates; malformed ones do not" (fun () ->
        let spec =
          {
            (Live_bench.default_spec ~algo:Live_bench.Abd ~chaos:false ~seed:6
               ())
            with
            ops_per_client = 10;
          }
        in
        let doc = Live_bench.to_json [ Live_bench.run spec ] in
        (match Live_bench.validate_live_json doc with
        | Ok () -> ()
        | Error m -> Alcotest.failf "real outcome rejected: %s" m);
        (* [edit k f] rewrites field [k] wherever it occurs *)
        let rec edit k f = function
          | Json.Obj kvs ->
              Json.Obj
                (List.filter_map
                   (fun (k', v) ->
                     if k' = k then Option.map (fun v -> (k', v)) (f v)
                     else Some (k', edit k f v))
                   kvs)
          | Json.List l -> Json.List (List.map (edit k f) l)
          | j -> j
        in
        let reject what doc =
          match Live_bench.validate_live_json doc with
          | Error _ -> ()
          | Ok () -> Alcotest.failf "%s accepted" what
        in
        reject "wrong schema id"
          (edit "schema" (fun _ -> Some (Json.Str "regemu-live-bench/2")) doc);
        reject "empty results"
          (edit "results" (fun _ -> Some (Json.List [])) doc);
        reject "no spec" (edit "spec" (fun _ -> None) doc);
        reject "unknown algo"
          (edit "algo" (fun _ -> Some (Json.Str "paxos")) doc);
        reject "unknown backend"
          (edit "backend" (fun _ -> Some (Json.Str "carrier-pigeon")) doc);
        reject "string ops_per_s"
          (edit "ops_per_s" (fun _ -> Some (Json.Str "fast")) doc);
        List.iter
          (fun k -> reject ("no " ^ k) (edit k (fun _ -> None) doc))
          [ "latency_p50_us"; "latency_p95_us"; "latency_p99_us" ];
        reject "non-boolean clean"
          (edit "clean" (fun _ -> Some (Json.Int 1)) doc));
    test "the committed BENCH documents pass their schema validators"
      (fun () ->
        List.iter
          (fun (file, validate) ->
            match Json.of_file (Filename.concat ".." file) with
            | Error m -> Alcotest.failf "%s does not parse: %s" file m
            | Ok doc -> (
                match validate doc with
                | Ok () -> ()
                | Error m -> Alcotest.failf "%s rejected: %s" file m))
          [
            ("BENCH_live.json", Live_bench.validate_bench_json);
            ("BENCH_tail.json", Tail_bench.validate_tail_json);
            ("BENCH_compare.json", Compare_bench.validate_compare_json);
            ( "BENCH_keyspace.json",
              Regemu_keyspace.Kbench.validate_keyspace_json );
          ]);
    test "saturate_spec rejects fewer than two clients" (fun () ->
        Alcotest.(check bool) "raises" true
          (match
             Live_bench.saturate_spec ~algo:Live_bench.Abd ~clients:1
               ~ops_per_client:10 ~seed:1 ()
           with
          | exception Invalid_argument _ -> true
          | _ -> false));
  ]

let suites =
  [
    ("live.ringbuf", ringbuf_tests @ ringbuf_property_tests);
    ("live.mailbox", mailbox_tests);
    ("live.transport", transport_tests);
    ("live.histlog", histlog_tests @ histlog_property_tests);
    ("live.cluster", cluster_tests);
    ("live.inline", inline_tests);
    ("live.load", load_tests);
    ("live.bench", bench_tests);
  ]
