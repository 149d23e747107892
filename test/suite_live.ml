(* Tests for the live cluster runtime: real threads, real faults,
   online checking. *)

open Regemu_objects
open Regemu_live
module Json = Regemu_obs.Json
module Bench = Regemu_bench.Bench

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

let query i = Regemu_netsim.Proto.Query { rid = i; key = 0 }

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
           fault counter must agree.  A lane's RNG serves both [send]'s
           admit draws and its couriers' reorder draws, so its stream
           is a pure function of the seed and the order in which sends
           and drains take the lane lock.  Both servers stay frozen
           while sending, so no courier drains between two sends and
           every admit draw comes first. *)
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
          Transport.freeze tr ~server:0;
          Transport.freeze tr ~server:1;
          for i = 0 to 399 do
            Transport.send tr
              {
                Transport.src = 0;
                dest = To_server (i mod 2);
                payload = query i;
              }
          done;
          Transport.thaw tr ~server:0;
          Transport.thaw tr ~server:1;
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

let write_hop v = Regemu_sim.Trace.H_write v

(* every cell of [w] from [from] on, as seen by one poll *)
let poll_all w ~from =
  let seen = ref [] in
  let len = Histlog.poll w ~from (fun cv -> seen := cv :: !seen) in
  (List.rev !seen, len)

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
                    let tk = Histlog.invoke w (write_hop v) in
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
                    match cv.Histlog.v_hop with
                    | Regemu_sim.Trace.H_write v
                      when cv.Histlog.v_returned_at > 0
                           && not (Value.equal v cv.Histlog.v_result) ->
                        Alcotest.fail "completed cell without its result"
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
        (* a store of every cell merges the shards into global real-time
           order with dense indexes *)
        let kept = Histlog.store () in
        List.iter
          (fun w ->
            ignore
              (Histlog.poll w ~from:0
                 (Histlog.keep kept ~client:(Histlog.writer_client w))))
          ws;
        let h = Histlog.history kept in
        Alcotest.(check int) "the store has everything" (nwriters * per)
          (List.length h);
        List.iteri
          (fun i (op : Regemu_history.History.op) ->
            Alcotest.(check int) "index is the rank" i op.index;
            if i > 0 then
              Alcotest.(check bool) "sorted by invocation" true
                ((List.nth h (i - 1)).Regemu_history.History.invoked_at
                < op.invoked_at))
          h);
    test "a poll racing a writer sees at most its newest cell pending"
      (fun () ->
        let log = Histlog.create () in
        let w = Histlog.new_writer log ~client:(Id.Client.of_int 0) in
        let n = 500 in
        let t =
          Thread.create
            (fun () ->
              for j = 0 to n - 1 do
                let v = Value.Str (string_of_int j) in
                Histlog.return (Histlog.invoke w (write_hop v)) v
              done)
            ()
        in
        for _ = 0 to 20 do
          let cells, len = poll_all w ~from:0 in
          Alcotest.(check int) "the poll sees every cell" len
            (List.length cells);
          List.iteri
            (fun i (cv : Histlog.cell_view) ->
              if cv.v_returned_at = 0 && i < len - 1 then
                Alcotest.fail "a pending cell that is not the newest")
            cells;
          Thread.yield ()
        done;
        Thread.join t;
        Alcotest.(check int) "every op completed" n (Histlog.completed log));
    test "invoke/return round trip with keys" (fun () ->
        let t = Histlog.create () in
        let w = Histlog.new_writer t ~client:(Id.Client.of_int 0) in
        let tk = Histlog.invoke w ~key:5 (write_hop (Value.Int 1)) in
        Histlog.return tk (Value.Int 9);
        match poll_all w ~from:0 with
        | [ c ], len ->
            Alcotest.(check int) "len" 1 len;
            Alcotest.(check int) "key" 5 c.Histlog.v_key;
            Alcotest.(check bool)
              "result" true
              (Value.equal c.Histlog.v_result (Value.Int 9));
            Alcotest.(check bool) "not aborted" false c.Histlog.v_aborted
        | _ -> Alcotest.fail "expected one cell");
    test "trim releases whole chunks and poll skips them" (fun () ->
        let t = Histlog.create () in
        let w = Histlog.new_writer t ~client:(Id.Client.of_int 0) in
        (* three full-size chunks' worth of completed ops *)
        let ops = 3 * 256 in
        for i = 0 to ops - 1 do
          let tk = Histlog.invoke w ~key:(i mod 7) (write_hop (Value.Int 1)) in
          Histlog.return tk (Value.Int i)
        done;
        let before = Histlog.approx_bytes t in
        Histlog.trim w ~upto:(2 * 256);
        let after = Histlog.approx_bytes t in
        Alcotest.(check bool)
          "trim released memory" true
          (after < before && after > 0);
        let cells, len = poll_all w ~from:(2 * 256) in
        Alcotest.(check int) "absolute length survives the trim" ops len;
        Alcotest.(check int) "a poll from the trim point sees the rest"
          (ops - (2 * 256))
          (List.length cells);
        (* cells below the trim point are gone, whole chunks at a time:
           a poll from 0 starts at the oldest chunk still held *)
        let all, _ = poll_all w ~from:0 in
        Alcotest.(check bool)
          (Fmt.str "trimmed prefix not revisited (%d cells)" (List.length all))
          true
          (List.length all < ops - 256 && List.length all >= ops - (2 * 256)));
    test "an aborted op is polled as aborted, not completed" (fun () ->
        let t = Histlog.create () in
        let w = Histlog.new_writer t ~client:(Id.Client.of_int 0) in
        let tk = Histlog.invoke w ~key:1 (write_hop (Value.Int 1)) in
        Histlog.abort tk;
        Alcotest.(check int) "invoked" 1 (Histlog.invoked t);
        Alcotest.(check int) "completed" 0 (Histlog.completed t);
        match poll_all w ~from:0 with
        | [ c ], _ ->
            Alcotest.(check bool) "cell marked aborted" true c.Histlog.v_aborted;
            Alcotest.(check int) "no return point" 0 c.Histlog.v_returned_at
        | _ -> Alcotest.fail "expected one cell");
    test "a 10k-op retained history holds at most 8 words per op, as \
          store_bytes says"
      (fun () ->
        let log = Histlog.create () in
        let client = Id.Client.of_int 0 in
        let w = Histlog.new_writer log ~client in
        let ops = 10_000 in
        let last = ref Value.v0 in
        for j = 1 to ops do
          if j mod 2 = 1 then begin
            let v = Value.Int j in
            Histlog.return (Histlog.invoke w (write_hop v)) v;
            last := v
          end
          else Histlog.return (Histlog.invoke w Regemu_sim.Trace.H_read) !last
        done;
        let kept = Histlog.store () in
        ignore (Histlog.poll w ~from:0 (Histlog.keep kept ~client));
        Alcotest.(check int) "every op kept" ops (Histlog.kept kept);
        let words = Obj.reachable_words (Obj.repr kept) in
        let per_op = float_of_int words /. float_of_int ops in
        Alcotest.(check bool)
          (Fmt.str "%.2f reachable words per op" per_op)
          true (per_op <= 8.0);
        let ratio =
          float_of_int (Histlog.store_bytes kept)
          /. float_of_int (words * (Sys.word_size / 8))
        in
        Alcotest.(check bool)
          (Fmt.str "store_bytes / reachable bytes = %.2f" ratio)
          true
          (ratio >= 0.75 && ratio <= 1.25));
  ]

(* the merged-shards property: however client operations interleave,
   a store of every polled cell rebuilds exactly the invocation-order
   sequence — same clients, same hops, same results, dense indexes.
   The interleaving is randomized but applied deterministically,
   modelling each client as a well-formed sequential process (invoke,
   later return). *)
let histlog_property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:
           "a store's history equals the merged per-client logs under \
            random writer interleavings"
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
                       write_hop (Value.Str (Printf.sprintf "w%d-%d" w j))
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
           let kept = Histlog.store () in
           Array.iter
             (fun w ->
               ignore
                 (Histlog.poll w ~from:0
                    (Histlog.keep kept ~client:(Histlog.writer_client w))))
             ws;
           let h = Histlog.history kept in
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

(* --- the online checker's incremental core ------------------------------ *)

let verdict_class = function
  | Regemu_history.Ws_check.Holds -> "holds"
  | Regemu_history.Ws_check.Vacuous -> "vacuous"
  | Regemu_history.Ws_check.Violated _ -> "violated"

(* key 0 retained up to [cap] ops *)
let retaining cap =
  { Checker.default_config with deep_sample = 1; deep_cap = cap }

(* [ops] sequential reads through the cluster, with a checker tick every
   [every] ops and one at the end; the log's bytes then *)
let log_bytes_after ~ops ~every =
  let cluster = Cluster.create (Cluster.default_config ~n:3 ~seed:7) in
  let c = Cluster.new_client cluster in
  let o = Checker.online (Cluster.log cluster) in
  for j = 1 to ops do
    ignore
      (Cluster.invoke cluster c Regemu_sim.Trace.H_read (fun () -> Value.v0));
    if j mod every = 0 then ignore (Checker.tick o)
  done;
  Alcotest.(check string) "reads of v0 hold" "holds"
    (verdict_class (Checker.tick o));
  let bytes = Histlog.approx_bytes (Cluster.log cluster) in
  Cluster.shutdown cluster;
  bytes

let online_checker_tests =
  [
    test "an aborted op does not stall the checker's cursor" (fun () ->
        let cluster = Cluster.create (Cluster.default_config ~n:3 ~seed:7) in
        let c = Cluster.new_client cluster in
        let o = Checker.online ~config:(retaining 1000) (Cluster.log cluster) in
        (match
           Cluster.invoke cluster c (write_hop (Value.Int 0)) (fun () ->
               raise Exit)
         with
        | _ -> Alcotest.fail "the body's exception was swallowed"
        | exception Exit -> ());
        let ops = 400 and ticks = 40 in
        for _ = 1 to ticks do
          for _ = 1 to ops / ticks do
            ignore
              (Cluster.invoke cluster c Regemu_sim.Trace.H_read (fun () ->
                   Value.v0))
          done;
          Alcotest.(check string) "reads of v0 hold" "holds"
            (verdict_class (Checker.tick o))
        done;
        (* a cursor stuck at the aborted write re-polls every later op on
           every tick: ~ops*ticks/2 cells instead of ops+1 *)
        Alcotest.(check bool)
          (Fmt.str "O(ops + ticks) cells polled (%d)" (Checker.cells_polled o))
          true
          (Checker.cells_polled o <= 1 + ops + ticks);
        ignore (Checker.finish o);
        Cluster.shutdown cluster;
        (match Checker.full_pass o with
        | Some (h, _) ->
            Alcotest.(check bool) "the aborted write is pending in the history"
              true
              ((List.hd h).Regemu_history.History.returned_at = None)
        | None -> Alcotest.fail "the history was not retained");
        Alcotest.(check int) "only the reads completed" ops
          (Histlog.completed (Cluster.log cluster)));
    test "the log stays one chunk apart over 20k and 80k checked ops"
      (fun () ->
        let short = log_bytes_after ~ops:20_000 ~every:1000 in
        let long = log_bytes_after ~ops:80_000 ~every:1000 in
        (* one writer; a full chunk is six 256-slot arrays *)
        let chunk = ((6 * 257) + 8) * (Sys.word_size / 8) in
        Alcotest.(check bool)
          (Fmt.str "log bytes %d after 20k ops, %d after 80k" short long)
          true
          (abs (long - short) <= chunk));
    test "a register checker past its cap retains no history" (fun () ->
        let run ~ops =
          let cluster = Cluster.create (Cluster.default_config ~n:3 ~seed:7) in
          let c = Cluster.new_client cluster in
          let checker = Checker.spawn cluster ~retain:100 () in
          for j = 1 to ops do
            let v = Value.Int j in
            ignore (Cluster.invoke cluster c (write_hop v) (fun () -> Value.Unit))
          done;
          let r = Checker.stop checker in
          Cluster.shutdown cluster;
          Alcotest.(check int) "every op checked" ops r.Checker.ops_checked;
          ( Option.map (fun (h, _) -> List.length h) (Checker.full_pass checker),
            Option.map List.length (Checker.latencies_ns checker) )
        in
        Alcotest.(check (pair (option int) (option int)))
          "at the cap, the whole history" (Some 100, Some 100) (run ~ops:100);
        Alcotest.(check (pair (option int) (option int)))
          "past it, none" (None, None) (run ~ops:101));
    test "aborted writes on distinct keys stay resident until their key \
          breaks"
      (fun () ->
        let log = Histlog.create () in
        let w = Histlog.new_writer log ~client:(Id.Client.of_int 0) in
        let o = Checker.online log in
        let keys = 1000 in
        let each f = for key = 0 to keys - 1 do f key done in
        let complete key hop v = Histlog.return (Histlog.invoke w ~key hop) v in
        each (fun key ->
            Histlog.abort (Histlog.invoke w ~key (write_hop (Value.Int key))));
        Alcotest.(check string) "one aborted write per key holds" "holds"
          (verdict_class (Checker.tick o));
        Alcotest.(check int) "each is counted" keys (Checker.resident_ops o);
        (* its effect may land: a later read may return it *)
        each (fun key ->
            complete key Regemu_sim.Trace.H_read (Value.Int key));
        Alcotest.(check string) "reads of the aborted values hold" "holds"
          (verdict_class (Checker.tick o));
        Alcotest.(check int) "still in flight" keys (Checker.resident_ops o);
        (* a write after it is unordered with it: the key is vacuous for
           good and drops its state *)
        each (fun key ->
            if key mod 2 = 0 then
              complete key (write_hop (Value.Int (-key))) Value.Unit);
        Alcotest.(check string) "half the keys break" "vacuous"
          (verdict_class (Checker.tick o));
        Alcotest.(check int) "the other half stay" (keys / 2)
          (Checker.resident_ops o);
        ignore (Checker.finish o);
        Alcotest.(check int) "broken keys" (keys / 2)
          (Checker.stats o).Checker.Stats.broken_keys);
    test "stop waits out no interval" (fun () ->
        (* the passes run on the completing clients' threads: no
           checker thread sleeps through its interval at stop *)
        let cluster = Cluster.create (Cluster.default_config ~n:3 ~seed:8) in
        let abd = Abd_live.create cluster ~f:1 () in
        let w = Cluster.new_client cluster in
        let r = Cluster.new_client cluster in
        Cluster.start cluster;
        let checker = Checker.spawn cluster ~interval_s:5.0 () in
        (* time for a checker thread, were there one, to start its
           interval's sleep *)
        Thread.delay 0.05;
        for i = 1 to 100 do
          Abd_live.write abd w (Value.Int i);
          ignore (Abd_live.read abd r)
        done;
        let t0 = Clock.now_s () in
        let res = Checker.stop checker in
        let took = Clock.now_s () -. t0 in
        Cluster.shutdown cluster;
        Alcotest.(check string) "holds" "holds" (verdict_class res.Checker.ws);
        Alcotest.(check int) "every op checked" 200 res.Checker.ops_checked;
        Alcotest.(check bool)
          (Fmt.str "stop took %.3f s of a 5 s interval" took)
          true (took < 0.5));
  ]

(* A reference log: one record per operation, the shape the history had
   before the log went columnar.  The clock mirrors the log's: every
   invocation and return takes a tick, an abort none. *)
type ref_op = {
  r_client : int;
  r_hop : Regemu_sim.Trace.hop;
  r_inv : int;
  r_inv_ns : int;
  mutable r_ret : int option;
  mutable r_result : Value.t option;
  mutable r_lat : int;
  mutable r_done : bool;  (* returned or aborted *)
}

let ref_snapshot ops =
  List.mapi
    (fun index r ->
      {
        Regemu_history.History.index;
        client = Id.Client.of_int r.r_client;
        hop = r.r_hop;
        invoked_at = r.r_inv;
        returned_at = r.r_ret;
        result = r.r_result;
      })
    ops

let ref_latencies ops =
  List.filter_map (fun r -> Option.map (fun _ -> r.r_lat) r.r_ret) ops

(* one scheduling step: a checker tick, or client [c] moves — invokes
   if idle (a write with [write]), else returns or aborts ([abort]);
   a read returns the newest invoked write's value, or with [stale] an
   arbitrary earlier one *)
type step = Tick | Move of { c : int; write : bool; abort : bool; pick : int }

let step_gen k =
  QCheck.Gen.(
    frequency
      [
        (1, return Tick);
        ( 6,
          let* c = int_range 0 (k - 1) in
          (* client 0 mostly writes, the others mostly read, so many
             histories stay write-sequential and the checks bite *)
          let* write =
            map (fun x -> x < if c = 0 then 7 else 1) (int_bound 9)
          in
          let* abort = map (fun x -> x = 0) (int_bound 9) in
          let* pick = int_bound 1000 in
          return (Move { c; write; abort; pick }) );
      ])

let step_print = function
  | Tick -> "tick"
  | Move { c; write; abort; pick } ->
      Fmt.str "c%d%s%s/%d" c
        (if write then "w" else "")
        (if abort then "!" else "")
        pick

let online_checker_property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:
           "the online checker agrees with the offline WS check, the log \
            with a list-of-records log"
         ~count:300
         (QCheck.make
            QCheck.Gen.(
              let* k = int_range 1 4 in
              let* steps = list_size (int_range 0 120) (step_gen k) in
              return (k, steps))
            ~print:(fun (k, steps) ->
              Fmt.str "%d clients: %s" k
                (String.concat " " (List.map step_print steps))))
         (fun (k, steps) ->
           let now = ref 0 in
           Clock.set_source (fun () -> Int64.of_int !now);
           Fun.protect ~finally:Clock.clear_source @@ fun () ->
           let log = Histlog.create () in
           let ws =
             Array.init k (fun i ->
                 Histlog.new_writer log ~client:(Id.Client.of_int i))
           in
           let o = Checker.online ~config:(retaining 1000) log in
           let clock = ref 1 and next_value = ref 0 in
           let refs = ref [] (* newest first *) and written = ref [] in
           let busy = Array.make k None in
           let violated = ref false in
           let agrees () =
             let v = Checker.tick o in
             (match v with
             | Regemu_history.Ws_check.Violated _ -> violated := true
             | _ -> ());
             let online =
               match v with
               | Regemu_history.Ws_check.Vacuous -> "vacuous"
               | _ -> if !violated then "violated" else "holds"
             in
             let h = ref_snapshot (List.rev !refs) in
             let offline =
               verdict_class (Regemu_history.Ws_check.check_ws_regular h)
             in
             if online <> offline then
               QCheck.Test.fail_reportf "online %a, offline %s on@.%a"
                 Regemu_history.Ws_check.verdict_pp v offline
                 Regemu_history.History.pp h
           in
           List.iteri
             (fun i step ->
               now := 1000 * (i + 1);
               match step with
               | Tick -> agrees ()
               | Move { c; write; abort; pick } -> (
                   match busy.(c) with
                   | None ->
                       let hop =
                         if write then begin
                           incr next_value;
                           let v = Value.Int !next_value in
                           written := v :: !written;
                           Regemu_sim.Trace.H_write v
                         end
                         else Regemu_sim.Trace.H_read
                       in
                       let tk = Histlog.invoke ws.(c) hop in
                       let r =
                         {
                           r_client = c;
                           r_hop = hop;
                           r_inv = !clock;
                           r_inv_ns = !now;
                           r_ret = None;
                           r_result = None;
                           r_lat = 0;
                           r_done = false;
                         }
                       in
                       incr clock;
                       refs := r :: !refs;
                       busy.(c) <- Some (tk, r)
                   | Some (tk, r) ->
                       busy.(c) <- None;
                       r.r_done <- true;
                       if abort then Histlog.abort tk
                       else begin
                         let v =
                           match r.r_hop with
                           | Regemu_sim.Trace.H_write v -> v
                           | Regemu_sim.Trace.H_read -> (
                               let all = Value.v0 :: List.rev !written in
                               match !written with
                               | newest :: _ when pick mod 4 <> 0 -> newest
                               | _ -> List.nth all (pick mod List.length all))
                         in
                         Histlog.return tk v;
                         r.r_ret <- Some !clock;
                         r.r_result <- Some v;
                         r.r_lat <- !now - r.r_inv_ns;
                         incr clock
                       end))
             steps;
           agrees ();
           (* the checker retained every op it consumed: the returned
              and aborted ones *)
           ignore (Checker.finish o);
           let ops = List.filter (fun r -> r.r_done) (List.rev !refs) in
           match (Checker.full_pass o, Checker.latencies_ns o) with
           | Some (h, _), Some lats ->
               h = ref_snapshot ops && lats = ref_latencies ops
           | _ -> false));
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

let register (o : Bench.row) =
  match o.check with
  | Bench.Register r -> r
  | Bench.Keys _ -> Alcotest.fail "a closed-loop run carries a register verdict"

let cluster_tests =
  [
    test "ABD smoke: concurrent clients, checker-clean" (fun () ->
        let o =
          Bench.run
            (Bench.closed ~algo:Live_bench.Abd_wb ~seed:1
               { k = 1; readers = 2; ops_per_client = 60 })
        in
        check_clean "abd-wb smoke" (register o);
        Alcotest.(check int) "every op completed" (3 * 60) o.ops;
        Alcotest.(check bool) "outcome is clean" true (Bench.clean o));
    test "algorithm 2 smoke: checker-clean" (fun () ->
        let o =
          Bench.run
            (Bench.closed ~algo:Live_bench.Alg2 ~seed:2
               { k = 1; readers = 2; ops_per_client = 50 })
        in
        check_clean "alg2 smoke" (register o);
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
          Bench.run
            {
              (Bench.closed ~algo:Live_bench.Abd ~seed:4
                 { k = 1; readers = 2; ops_per_client = 40 })
              with
              chaos = true;
            }
        in
        check_clean "abd chaos" (register o);
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
   completion on the calling thread, no server mailbox is touched, and
   no server, courier or heartbeat thread ever starts *)
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
          ~make:(fun rid -> Regemu_netsim.Proto.Query { rid; key = 0 })
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
  Alcotest.(check bool) (what ^ ": steps ran inline") true (inline > 0);
  Alcotest.(check int) (what ^ ": no thread started") 0
    st.Cluster.threads_started

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

(* --- threads start on first use ------------------------------------------ *)

let threads_started cluster = (Cluster.stats cluster).Cluster.threads_started

let query_rpc cluster c server ~handler =
  Cluster.locked c (fun () ->
      Cluster.rpc cluster ~src:c server
        ~make:(fun rid -> Regemu_netsim.Proto.Query { rid; key = 0 })
        ~handler)

(* entries of a /proc/self directory; [None] where there is no /proc *)
let proc_entries dir =
  let dir = "/proc/self/" ^ dir in
  if Sys.file_exists dir then Some (Array.length (Sys.readdir dir)) else None

let first_use_tests =
  [
    test "a build opens no descriptor and starts no thread" (fun () ->
        match proc_entries "fd" with
        | Some fd0 ->
            let cluster =
              Cluster.create (Cluster.default_config ~n:5 ~seed:56)
            in
            let abd = Abd_live.create cluster ~f:1 () in
            let c = Cluster.new_client cluster in
            Cluster.start cluster;
            (* counted right around the spawn, so that no thread left
               by an earlier test can exit in between *)
            let task0 = proc_entries "task" in
            let checker = Checker.spawn cluster () in
            let task1 = proc_entries "task" in
            Alcotest.(check (option int)) "unscheduled: no descriptor"
              (Some fd0) (proc_entries "fd");
            Alcotest.(check (option int)) "unscheduled: no checker thread"
              task0 task1;
            Alcotest.(check int) "unscheduled: no cluster thread" 0
              (threads_started cluster);
            Abd_live.write abd c (Value.Int 1);
            ignore (Checker.stop checker);
            Cluster.shutdown cluster;
            let module Sched = Regemu_dst.Sched in
            let built, _ =
              Sched.run (Sched.default_config ~seed:56) (fun s ->
                  let hook = Sched.hook s in
                  let cluster =
                    Cluster.create ~sched:hook
                      (Cluster.default_config ~n:5 ~seed:56)
                  in
                  ignore (Cluster.new_client cluster);
                  Cluster.start cluster;
                  let checker = Checker.spawn ~sched:hook cluster () in
                  let fds = proc_entries "fd" in
                  ignore (Checker.stop checker);
                  Cluster.shutdown cluster;
                  fds)
            in
            Alcotest.(check (option (option int)))
              "scheduled: no descriptor" (Some (Some fd0)) built;
            ignore (Regemu_dst.Dst.run (Regemu_dst.Dst.default_config ~seed:21));
            Alcotest.(check (option int)) "none left by a Dst run" (Some fd0)
              (proc_entries "fd")
        | _ -> ());
    test "a request to a crashed server starts only that server's thread"
      (fun () ->
        let mx = Regemu_obs.Metrics.create () in
        let cluster =
          Cluster.create ~sink:(Sink.make ~metrics:mx ())
            (Cluster.default_config ~n:3 ~seed:52)
        in
        let c = Cluster.new_client cluster in
        Cluster.start cluster;
        Cluster.crash cluster 1;
        let replied = Atomic.make 0 in
        query_rpc cluster c 1 ~handler:(fun _ -> Atomic.incr replied);
        Alcotest.(check int) "the request waits in server 1's mailbox" 1
          (metric mx "mailbox.pushed");
        Alcotest.(check int) "only that server's thread started" 1
          (threads_started cluster);
        Alcotest.(check int) "not served while crashed" 0 (Atomic.get replied);
        Cluster.restart cluster 1;
        Alcotest.(check bool) "served after restart" true
          (settle (fun () -> Atomic.get replied) 1);
        (* the reply came back inline on the server's thread *)
        Alcotest.(check int) "still one thread" 1 (threads_started cluster);
        Cluster.shutdown cluster);
    test "a lane with delay_prob > 0 starts its couriers on its first send"
      (fun () ->
        let delivered = Atomic.make 0 in
        let tr =
          Transport.create
            {
              (Transport.default_config ~seed:53) with
              delay_prob = 0.5;
              max_delay_us = 200;
              couriers = 2;
            }
            ~servers:2
            ~deliver:(fun _ -> Atomic.incr delivered)
        in
        Transport.start tr;
        Alcotest.(check int) "none at start" 0 (Transport.threads_started tr);
        let send i s =
          Transport.send tr
            { Transport.src = 0; dest = To_server s; payload = query i }
        in
        send 0 0;
        Alcotest.(check int) "server 0's lane started its two" 2
          (Transport.threads_started tr);
        for i = 1 to 20 do
          send i 0
        done;
        Alcotest.(check int) "later sends on that lane start none" 2
          (Transport.threads_started tr);
        send 21 1;
        Alcotest.(check int) "server 1's lane started its own" 4
          (Transport.threads_started tr);
        Alcotest.(check bool) "all delivered" true
          (settle (fun () -> Atomic.get delivered) 22);
        Transport.stop tr);
    test "shutdown starts no thread, during it or after" (fun () ->
        let unused = Cluster.create (Cluster.default_config ~n:5 ~seed:54) in
        ignore (Cluster.new_client unused);
        Cluster.start unused;
        Cluster.shutdown unused;
        Alcotest.(check int) "an unused cluster started nothing" 0
          (threads_started unused);
        (* a request held 100 ms on a slow link reaches its crashed
           server while shutdown joins the lane's couriers: it is
           queued, and starts no server thread *)
        let cluster = Cluster.create (Cluster.default_config ~n:3 ~seed:54) in
        let c = Cluster.new_client cluster in
        Cluster.start cluster;
        Cluster.crash cluster 0;
        Cluster.set_slow cluster ~server:0 100_000;
        query_rpc cluster c 0 ~handler:ignore;
        Alcotest.(check bool) "the courier holds the request" true
          (settle (fun () -> (Cluster.stats cluster).Cluster.msgs_slowed) 1);
        Alcotest.(check int) "the lane's couriers started" 2
          (threads_started cluster);
        Cluster.shutdown cluster;
        let st = Cluster.stats cluster in
        Alcotest.(check int) "delivered during shutdown" 1
          st.Cluster.msgs_delivered;
        Alcotest.(check int) "no server thread started" 2
          st.Cluster.threads_started;
        query_rpc cluster c 1 ~handler:ignore;
        query_rpc cluster c 0 ~handler:ignore;
        Alcotest.(check int) "sends after shutdown start none" 2
          (threads_started cluster));
    test "shutdown cuts a courier's hold short" (fun () ->
        let cluster = Cluster.create (Cluster.default_config ~n:3 ~seed:55) in
        let c = Cluster.new_client cluster in
        Cluster.start cluster;
        let hold_s = 5.0 in
        Cluster.set_slow cluster ~server:0 (int_of_float (hold_s *. 1e6));
        query_rpc cluster c 0 ~handler:ignore;
        Alcotest.(check bool) "the courier holds the request" true
          (settle (fun () -> (Cluster.stats cluster).Cluster.msgs_slowed) 1);
        let t0 = Clock.now_s () in
        Cluster.shutdown cluster;
        let took = Clock.now_s () -. t0 in
        Alcotest.(check bool)
          (Fmt.str "shutdown took %.3f s of a %.0f s hold" took hold_s)
          true
          (took < hold_s /. 10.0);
        Alcotest.(check int) "the held request was handed over" 1
          (Cluster.stats cluster).Cluster.msgs_delivered);
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

(* --- the bench runner and its regemu-bench/3 documents ------------------ *)

(* [edit k f] rewrites field [k] wherever it occurs; [f] returning
   [None] drops it *)
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

let set k v = edit k (fun _ -> Some v)
let drop k = edit k (fun _ -> None)

(* The table behind the [Bench.validate] tests: real rows from one small
   closed-loop run and one keyspace smoke run, shared by every case. *)
let fixtures =
  lazy
    (let row =
       Bench.row_json
         (Bench.run
            (Bench.closed ~algo:Live_bench.Abd ~seed:6
               { k = 1; readers = 3; ops_per_client = 10 }))
     in
     let krow =
       match (Bench.document "keyspace").smoke with
       | ({ load = Bench.Keyspace ks; _ } as s) :: _ ->
           Bench.row_json
             (Bench.run
                { s with load = Bench.Keyspace { ks with total_ops = 40 } })
       | _ -> Alcotest.fail "the keyspace smoke runs keys"
     in
     (row, krow))

let doc name rows =
  Json.Obj
    [
      ("schema", Json.Str "regemu-bench/3");
      ("doc", Json.Str name);
      ("commit", Json.Str "0123456789ab");
      ( "machine",
        Json.Obj [ ("nproc", Json.Int 2); ("ocaml", Json.Str "5.1.1") ] );
      ("rows", Json.List rows);
      ("summary", Json.Obj []);
      ("clean", Json.Bool true);
    ]

let row () = fst (Lazy.force fixtures)
let krow () = snd (Lazy.force fixtures)
let suite () = doc "suite" [ row () ]
let cell algo label =
  set "algo" (Json.Str algo) (set "label" (Json.Str label) (row ()))
let cells () = List.map (fun a -> cell a "k2-f1") [ "abd"; "algorithm2"; "cds" ]
let arms () = List.map (cell "abd") [ "baseline"; "unhedged"; "hedged" ]

let validate_tests =
  List.map
    (fun (what, d) ->
      test ("Bench.validate accepts " ^ what) (fun () ->
          match Bench.validate (d ()) with
          | Ok () -> ()
          | Error m -> Alcotest.failf "%s rejected: %s" what m))
    [
      ("a real suite row", suite);
      ("a real keyspace row", fun () -> doc "keyspace" [ krow () ]);
      ("one compare cell per algorithm", fun () -> doc "compare" (cells ()));
      ("the tail arms in order", fun () -> doc "tail" (arms ()));
    ]
  @ List.map
      (fun (what, d) ->
        test ("Bench.validate rejects " ^ what) (fun () ->
            match Bench.validate (d ()) with
            | Error _ -> ()
            | Ok () -> Alcotest.failf "%s accepted" what))
      ([
         ( "the /2 schema",
           fun () -> set "schema" (Json.Str "regemu-bench/2") (suite ()) );
         ("no schema", fun () -> drop "schema" (suite ()));
         ( "an unknown document",
           fun () -> set "doc" (Json.Str "perf") (suite ()) );
         ("no commit", fun () -> drop "commit" (suite ()));
         ("an empty commit", fun () -> set "commit" (Json.Str "") (suite ()));
         ("no machine", fun () -> drop "machine" (suite ()));
         ("a zero nproc", fun () -> set "nproc" (Json.Int 0) (suite ()));
         ("no rows", fun () -> doc "suite" []);
         ( "an unknown algo",
           fun () -> set "algo" (Json.Str "paxos") (suite ()) );
         ( "an unknown backend",
           fun () -> set "backend" (Json.Str "pigeon") (suite ()) );
         ( "the domains backend",
           fun () -> set "backend" (Json.Str "domains") (suite ()) );
         ( "a string ops_per_s",
           fun () -> set "ops_per_s" (Json.Str "fast") (suite ()) );
         ("a non-boolean clean", fun () -> set "clean" (Json.Int 1) (suite ()));
         ( "tail arms out of order",
           fun () -> doc "tail" (List.map (List.nth (arms ())) [ 0; 2; 1 ]) );
         ( "a missing compare cell",
           fun () -> doc "compare" (List.tl (cells ())) );
         ( "a doubled compare cell",
           fun () ->
             let c = cells () in
             doc "compare" (List.hd c :: c) );
         ( "a socket row in compare",
           fun () ->
             let c = cells () in
             doc "compare"
               (set "backend" (Json.Str "socket") (List.hd c) :: List.tl c) );
         ( "a compare row without space_cells_total",
           fun () ->
             let c = cells () in
             doc "compare" (drop "space_cells_total" (List.hd c) :: List.tl c)
         );
         ( "a compare row without a formula",
           fun () ->
             let c = cells () in
             doc "compare"
               (set "space_formula_cells_total" Json.Null (List.hd c)
               :: List.tl c) );
         ( "a zero keyspace budget",
           fun () -> doc "keyspace" [ set "budget_ops" (Json.Int 0) (krow ()) ]
         );
         ( "a keyspace row without a budget",
           fun () -> doc "keyspace" [ row () ] );
       ]
      @ List.map
          (fun k -> ("no " ^ k, fun () -> drop k (suite ())))
          [
            "latency_mean_us"; "latency_p50_us"; "latency_p95_us";
            "latency_p99_us"; "retries"; "unavailable"; "threads_started";
            "inline_steps"; "violations"; "label";
          ])

let bench_tests =
  [
    test "saturate point is clean and its document passes the schema check"
      (fun () ->
        let d = Bench.document "saturate" in
        let spec =
          match (List.hd d.smoke).load with
          | Bench.Clients c ->
              {
                (List.hd d.smoke) with
                load = Bench.Clients { c with ops_per_client = 10 };
              }
          | Bench.Keyspace _ -> Alcotest.fail "saturate runs clients"
        in
        let o =
          match Bench.run_reps ~reps:2 ~by:d.by [ spec ] with
          | [ o ] -> o
          | _ -> Alcotest.fail "expected one row"
        in
        Alcotest.(check bool) "clean" true (Bench.clean o);
        let doc = Bench.to_json d [ o ] in
        (match Bench.validate doc with
        | Ok () -> ()
        | Error m -> Alcotest.failf "schema check failed: %s" m);
        match Json.member "rows" doc with
        | Some (Json.List [ row ]) ->
            Alcotest.(check (option string))
              "row label" (Some "clients=2")
              (Option.bind (Json.member "label" row) Json.to_str_opt)
        | _ -> Alcotest.fail "expected one row");
  ]
  @ validate_tests
  @ [
    test "the committed BENCH documents pass their schema validators"
      (fun () ->
        List.iter
          (fun (d : Bench.document) ->
            Option.iter
              (fun file ->
                match Json.of_file (Filename.concat ".." file) with
                | Error m -> Alcotest.failf "%s does not parse: %s" file m
                | Ok doc -> (
                    (match Bench.validate doc with
                    | Ok () -> ()
                    | Error m -> Alcotest.failf "%s rejected: %s" file m);
                    Alcotest.(check (option string))
                      (file ^ " is its document") (Some d.name)
                      (Option.bind (Json.member "doc" doc) Json.to_str_opt);
                    match
                      Option.bind (Json.member "commit" doc) Json.to_str_opt
                    with
                    | Some c
                      when c <> "" && c <> "unknown"
                           && not (String.ends_with ~suffix:"-dirty" c) ->
                        ()
                    | _ -> Alcotest.failf "%s records no clean commit" file))
              d.file)
          Bench.documents);
  ]

let suites =
  [
    ("live.ringbuf", ringbuf_tests @ ringbuf_property_tests);
    ("live.mailbox", mailbox_tests);
    ("live.transport", transport_tests);
    ("live.histlog", histlog_tests @ histlog_property_tests);
    ("live.checker", online_checker_tests @ online_checker_property_tests);
    ("live.cluster", cluster_tests);
    ("live.inline", inline_tests);
    ("live.first-use", first_use_tests);
    ("live.load", load_tests);
    ("live.bench", bench_tests);
  ]
