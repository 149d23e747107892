(* Tests for the CDS multi-writer data store (Cds_live,
   arXiv:1508.03762): the wire codec of its message shapes, the
   per-writer slot semantics in the protocol core, quorum rounds and
   multi-writer ordering on a tiny live cluster, resident-space
   accounting, the chaos arms (including the seeded amnesia violation
   the checker must catch), DST determinism, and the regemu-compare/1
   document validator. *)

open Regemu_objects
open Regemu_live
module Proto = Regemu_netsim.Proto
module Json = Regemu_obs.Json

let test name f = Alcotest.test_case name `Quick f
let value = Alcotest.testable Value.pp Value.equal

(* --- codec --------------------------------------------------------------- *)

let cds_payloads =
  let v = Value.Pair (Value.Int 2049, Value.Str "w1") in
  [
    Proto.Cquery { rid = 0 };
    Proto.Cquery { rid = max_int };
    Proto.Cquery_reply { rid = 1; slots = [] };
    Proto.Cquery_reply { rid = 2; slots = [ (0, v) ] };
    Proto.Cquery_reply
      { rid = 3; slots = [ (0, Value.Unit); (1, v); (5, Value.Str "") ] };
    Proto.Cwrite { rid = 4; slot = 0; proposed = v };
    Proto.Cwrite { rid = 5; slot = 1023; proposed = Value.Unit };
    Proto.Cwrite_reply { rid = 6; slot = 7 };
  ]

let env payload =
  Codec.Env { Transport_intf.src = 3; dest = Transport_intf.To_client 2; payload }

let codec_tests =
  [
    test "CDS payloads round-trip byte-identically" (fun () ->
        List.iter
          (fun p ->
            let m = env p in
            let s = Codec.encode m in
            let m' = Codec.decode s in
            Alcotest.(check bool) "decode inverts encode" true (m = m');
            Alcotest.(check string) "re-encode is byte-identical" s
              (Codec.encode m'))
          cds_payloads);
    test "truncated Cquery_reply is rejected at every cut point" (fun () ->
        let s =
          Codec.encode
            (env
               (Proto.Cquery_reply
                  {
                    rid = 9;
                    slots =
                      [ (0, Value.Pair (Value.Int 1024, Value.Str "a"));
                        (1, Value.Pair (Value.Int 2049, Value.Str "b")) ];
                  }))
        in
        for cut = 0 to String.length s - 1 do
          match Codec.decode (String.sub s 0 cut) with
          | exception Codec.Malformed _ -> ()
          | _ ->
              Alcotest.failf "truncation to %d bytes decoded as a message" cut
        done);
    test "trailing bytes after a Cwrite are rejected" (fun () ->
        let s =
          Codec.encode
            (env (Proto.Cwrite { rid = 1; slot = 0; proposed = Value.Unit }))
        in
        match Codec.decode (s ^ "\x00") with
        | exception Codec.Malformed _ -> ()
        | _ -> Alcotest.fail "trailing byte accepted");
  ]

(* --- the protocol core's slot store -------------------------------------- *)

let ts v = Value.Pair (Value.Int v, Value.Str "x")

let store_tests =
  [
    test "Cwrite is per-slot write-max, allocated on first touch" (fun () ->
        let st = Proto.store_create () in
        Alcotest.(check int) "no slots initially" 0 (Proto.num_slots st);
        ignore (Proto.step st (Proto.Cwrite { rid = 0; slot = 0; proposed = ts 5 }));
        ignore (Proto.step st (Proto.Cwrite { rid = 1; slot = 0; proposed = ts 3 }));
        Alcotest.check value "stale write lost the max" (ts 5)
          (Proto.peek_slot st 0);
        ignore (Proto.step st (Proto.Cwrite { rid = 2; slot = 3; proposed = ts 1 }));
        Alcotest.(check int) "two resident slots" 2 (Proto.num_slots st);
        Alcotest.check value "slots are independent" (ts 1)
          (Proto.peek_slot st 3);
        Alcotest.check value "untouched slot reads v0" Value.v0
          (Proto.peek_slot st 9));
    test "Cquery collects every resident slot, sorted" (fun () ->
        let st = Proto.store_create () in
        ignore (Proto.step st (Proto.Cwrite { rid = 0; slot = 2; proposed = ts 7 }));
        ignore (Proto.step st (Proto.Cwrite { rid = 1; slot = 0; proposed = ts 4 }));
        match Proto.step st (Proto.Cquery { rid = 5 }) with
        | [ Proto.Cquery_reply { rid = 5; slots } ] ->
            Alcotest.(check bool) "sorted (slot, value) pairs" true
              (slots = [ (0, ts 4); (2, ts 7) ])
        | _ -> Alcotest.fail "expected exactly one Cquery_reply");
    test "resident cells and bytes count the slot store" (fun () ->
        let st = Proto.store_create () in
        Alcotest.(check int) "fresh store holds nothing" 0
          (Proto.resident_cells st);
        ignore
          (Proto.step st
             (Proto.Cwrite { rid = 0; slot = 0; proposed = Value.Str "abc" }));
        Alcotest.(check int) "one resident cell" 1 (Proto.resident_cells st);
        Alcotest.(check int) "canonical encoding size" (5 + 3)
          (Proto.resident_bytes st);
        Alcotest.(check int) "value_bytes: pair of int and str"
          (1 + 9 + (5 + 1))
          (Proto.value_bytes (Value.Pair (Value.Int 3, Value.Str "y"))));
    test "reset wipes the slot store" (fun () ->
        let st = Proto.store_create () in
        ignore (Proto.step st (Proto.Cwrite { rid = 0; slot = 1; proposed = ts 9 }));
        Proto.reset st;
        Alcotest.(check int) "no slots after reset" 0 (Proto.num_slots st);
        Alcotest.check value "slot reads v0 after reset" Value.v0
          (Proto.peek_slot st 1));
  ]

(* --- quorum rounds on a tiny live cluster -------------------------------- *)

let mk_cluster ?(n = 3) ~seed () =
  Cluster.create
    {
      (Cluster.default_config ~n ~seed) with
      Cluster.retry =
        Some { Retry.base_s = 0.02; cap_s = 0.15; deadline_s = 8.0; grace_s = 0.1 };
    }

let live_tests =
  [
    test "create validates the replica and writer bounds" (fun () ->
        let cluster = mk_cluster ~seed:11 () in
        let w = Cluster.new_client cluster in
        (match Cds_live.create cluster ~f:2 ~writers:[ w ] () with
        | _ -> Alcotest.fail "f=2 on 3 servers accepted"
        | exception Invalid_argument _ -> ());
        let cds = Cds_live.create cluster ~f:1 ~writers:[ w ] () in
        Alcotest.(check int) "quorum system spans 2f+1" 3
          (Cds_live.replicas cds);
        Alcotest.(check int) "one slot per writer" 1
          (Cds_live.writer_slots cds);
        let stranger = Cluster.new_client cluster in
        (match Cds_live.write cds stranger Value.Unit with
        | () -> Alcotest.fail "unregistered writer accepted"
        | exception Invalid_argument _ -> ());
        Cluster.shutdown cluster);
    test "two writers interleave with lexicographic (seq, slot) order"
      (fun () ->
        let cluster = mk_cluster ~seed:12 () in
        let w0 = Cluster.new_client cluster in
        let w1 = Cluster.new_client cluster in
        let r = Cluster.new_client cluster in
        let cds = Cds_live.create cluster ~f:1 ~writers:[ w0; w1 ] () in
        Cluster.start cluster;
        let checker = Checker.spawn cluster () in
        Alcotest.check value "empty register reads v0" Value.v0
          (Cds_live.read cds r);
        Cds_live.write cds w0 (Value.Str "a");
        Alcotest.check value "w0's write visible" (Value.Str "a")
          (Cds_live.read cds r);
        Cds_live.write cds w1 (Value.Str "b");
        Alcotest.check value "w1 collected w0's seq and went past it"
          (Value.Str "b") (Cds_live.read cds r);
        Cds_live.write cds w0 (Value.Str "c");
        Alcotest.check value "w0 wins back with a higher seq" (Value.Str "c")
          (Cds_live.read cds r);
        let check = Checker.stop checker in
        Alcotest.(check bool) "online checker stayed quiet" true
          (Checker.ok check);
        (* every replica now holds exactly one cell per writer *)
        let cells_max, _, cells_total = Cluster.resident_space cluster in
        Alcotest.(check int) "k cells per server" 2 cells_max;
        Alcotest.(check int) "k(2f+1) cells total" 6 cells_total;
        Cluster.shutdown cluster);
    test "a write survives f crashed servers" (fun () ->
        let cluster = mk_cluster ~seed:13 () in
        let w = Cluster.new_client cluster in
        let r = Cluster.new_client cluster in
        let cds = Cds_live.create cluster ~f:1 ~writers:[ w ] () in
        Cluster.start cluster;
        Cds_live.write cds w (Value.Str "durable");
        Cluster.crash cluster 0;
        Alcotest.check value "read completes on the surviving quorum"
          (Value.Str "durable") (Cds_live.read cds r);
        Cds_live.write cds w (Value.Str "still-writable");
        Alcotest.check value "write completes on the surviving quorum"
          (Value.Str "still-writable") (Cds_live.read cds r);
        Cluster.shutdown cluster);
  ]

(* --- chaos arms ----------------------------------------------------------- *)

let scenario ~seed name =
  match Regemu_chaos.Campaign.by_name ~seed name with
  | Some s -> s
  | None -> Alcotest.failf "scenario %s missing from the campaign" name

let chaos_tests =
  [
    test "rolling-crashes-cds passes the campaign judgment" (fun () ->
        let o = Regemu_chaos.Campaign.run (scenario ~seed:31 "rolling-crashes-cds") in
        Alcotest.(check bool)
          (Fmt.str "pass (failure: %s)"
             (Option.value ~default:"none" o.Regemu_chaos.Campaign.failure))
          true o.Regemu_chaos.Campaign.pass);
    test "amnesia-cds: the checker catches the seeded violation" (fun () ->
        let o = Regemu_chaos.Campaign.run (scenario ~seed:32 "amnesia-cds") in
        Alcotest.(check bool) "scenario passes (violation expected)" true
          o.Regemu_chaos.Campaign.pass;
        Alcotest.(check bool) "the WS checker actually flagged it" false
          (Checker.ok o.Regemu_chaos.Campaign.check));
  ]

(* --- DST determinism ------------------------------------------------------ *)

let dst_tests =
  [
    test "same config twice: byte-identical run digests" (fun () ->
        let cfg =
          {
            (Regemu_dst.Dst.default_config ~seed:41) with
            Regemu_dst.Dst.algo = Live_bench.Cds;
            writers = 2;
          }
        in
        let o1 = Regemu_dst.Dst.run cfg and o2 = Regemu_dst.Dst.run cfg in
        Alcotest.(check string) "digest"
          (Regemu_dst.Dst.run_digest o1)
          (Regemu_dst.Dst.run_digest o2);
        Alcotest.(check bool) "clean" true (Regemu_dst.Dst.passed o1));
    test "different seeds diverge" (fun () ->
        let cfg seed =
          {
            (Regemu_dst.Dst.default_config ~seed) with
            Regemu_dst.Dst.algo = Live_bench.Cds;
          }
        in
        Alcotest.(check bool) "digests differ" true
          (Regemu_dst.Dst.run_digest (Regemu_dst.Dst.run (cfg 42))
          <> Regemu_dst.Dst.run_digest (Regemu_dst.Dst.run (cfg 43))));
  ]

(* --- the compare document's formula column ------------------------------ *)

let compare_tests =
  [
    test "formula column matches the paper-side bounds" (fun () ->
        let cells algo =
          Regemu_bench.Bench.formula_cells_total
            {
              (Regemu_bench.Bench.closed ~algo ~seed:1
                 { k = 6; readers = 1; ops_per_client = 1 })
              with
              f = 2;
              n = 7;
            }
        in
        Alcotest.(check (option int))
          "ABD: 2f+1" (Some 5) (cells Live_bench.Abd);
        Alcotest.(check (option int)) "CDS: k(2f+1)" (Some 30)
          (cells Live_bench.Cds);
        Alcotest.(check (option int)) "Alg2: the register_upper_bound formula"
          (Some
             (Regemu_bounds.Formulas.register_upper_bound
                (Regemu_bounds.Params.make_exn ~k:6 ~f:2 ~n:7)))
          (cells Live_bench.Alg2));
  ]

let suites =
  [
    ("cds codec", codec_tests);
    ("cds slot store", store_tests);
    ("cds live", live_tests);
    ("cds chaos", chaos_tests);
    ("cds dst", dst_tests);
    ("cds compare", compare_tests);
  ]
