(* Tests for the keyspace stack: the servers' keyed max-register table,
   placement, the open-loop generator,
   the memory-bounded checker on keyed operations (GC soundness via
   DST), and the bench JSON schema gate.  The operation log's own tests
   are in suite_live ([live.histlog]). *)

open Regemu_keyspace

let test name f = Alcotest.test_case name `Quick f
let check_int = Alcotest.(check int)

(* --- the server store's max-register table ------------------------- *)

let store_tests =
  let open Regemu_objects in
  let module Proto = Regemu_netsim.Proto in
  let value = Alcotest.testable Value.pp Value.equal in
  let query st key =
    match Proto.step st (Proto.Query { rid = 1; key }) with
    | [ Proto.Query_reply { rid = 1; stored } ] -> stored
    | _ -> Alcotest.fail "expected exactly one Query_reply"
  in
  let update st key v =
    match Proto.step st (Proto.Update { rid = 2; key; proposed = v }) with
    | [ Proto.Update_reply { rid = 2 } ] -> ()
    | _ -> Alcotest.fail "expected exactly one Update_reply"
  in
  [
    test "one table: keys are independent, resident once non-v0" (fun () ->
        let st = Proto.store_create () in
        let ts n = Value.with_ts n (Value.Int n) in
        Alcotest.check value "never-written key reads v0" Value.v0
          (query st 7);
        update st 3 Value.v0;
        check_int "a Query or a v0 Update allocates nothing" 0
          (Proto.num_keys st);
        check_int "no resident cell" 0 (Proto.resident_cells st);
        check_int "no resident byte" 0 (Proto.resident_bytes st);
        update st 0 (ts 2);
        update st 7 (ts 5);
        update st 7 (ts 4);
        Alcotest.check value "key 0 keeps its own max" (ts 2) (query st 0);
        Alcotest.check value "key 7 keeps its own max" (ts 5) (query st 7);
        check_int "two resident keys" 2 (Proto.num_keys st);
        check_int "two resident cells" 2 (Proto.resident_cells st);
        check_int "bytes of both cells"
          (Proto.value_bytes (ts 2) + Proto.value_bytes (ts 5))
          (Proto.resident_bytes st);
        Proto.reset st;
        check_int "reset wipes every key" 0 (Proto.num_keys st);
        check_int "nothing resident after reset" 0 (Proto.resident_cells st);
        Alcotest.check value "key 0 reads v0 after reset" Value.v0
          (query st 0);
        Alcotest.check value "key 7 reads v0 after reset" Value.v0
          (query st 7));
  ]

(* --- Placement ---------------------------------------------------- *)

let arb_nf =
  QCheck.make
    ~print:(fun (n, f, key) -> Fmt.str "n=%d f=%d key=%d" n f key)
    QCheck.Gen.(
      let* f = 1 -- 4 in
      let* n = (2 * f) + 1 -- 24 in
      let* key = 0 -- 1_000_000 in
      return (n, f, key))

let prop name p =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:500 arb_nf p)

let placement_tests =
  [
    prop "replica set has 2f+1 distinct in-range servers" (fun (n, f, key) ->
        let p = Placement.create ~n ~f in
        let reps = Placement.replicas p key in
        List.length reps = (2 * f) + 1
        && List.length (List.sort_uniq compare reps) = (2 * f) + 1
        && List.for_all (fun s -> s >= 0 && s < n) reps);
    prop "any two quorums of one key intersect" (fun (n, f, key) ->
        (* every quorum is f+1 of the same 2f+1 replicas, so any two
           must share a server — check the worst case: a prefix quorum
           against a suffix quorum *)
        let p = Placement.create ~n ~f in
        let reps = Placement.replicas p key in
        let q = Placement.quorum p in
        let prefix = List.filteri (fun i _ -> i < q) reps in
        let suffix = List.filteri (fun i _ -> i >= List.length reps - q) reps in
        List.exists (fun s -> List.mem s suffix) prefix);
    prop "placement is a pure function of (n, f, key)" (fun (n, f, key) ->
        let a = Placement.create ~n ~f in
        let b = Placement.create ~n ~f in
        Placement.replicas a key = Placement.replicas b key);
    test "hash matches golden values (no process/seed dependence)"
      (fun () ->
        (* FNV-1a over decimal digits, masked to 62 bits: these values
           must never change, or every recorded placement shifts *)
        List.iter
          (fun (key, expect) -> check_int (Fmt.str "hash %d" key) expect
              (Placement.hash key))
          [
            (0, 3414763486654340271);
            (1, 3414762387142712060);
            (7, 3414760188119455638);
            (42, 571532774284038691);
            (12345, 2699319223499327992);
            (99999, 3420389540986028976);
          ]);
    test "hash is non-negative over a dense range" (fun () ->
        for key = 0 to 20_000 do
          if Placement.hash key < 0 then
            Alcotest.failf "hash %d is negative" key
        done);
    test "n < 2f+1 rejected" (fun () ->
        Alcotest.check_raises "too few servers"
          (Invalid_argument
             "Placement.create: need n >= 2f+1 = 5 servers, have 4")
          (fun () -> ignore (Placement.create ~n:4 ~f:2)));
    test "load spreads across servers" (fun () ->
        (* with 10^4 keys over 8 servers, r=3: every server holds some
           keys, and no server holds more than twice its fair share *)
        let p = Placement.create ~n:8 ~f:1 in
        let keys = 10_000 in
        let fair = keys * 3 / 8 in
        for s = 0 to 7 do
          let l = Placement.server_load p ~keys s in
          if l = 0 || l > 2 * fair then
            Alcotest.failf "server %d holds %d keys (fair share %d)" s l fair
        done);
  ]

open Regemu_objects
module Histlog = Regemu_live.Histlog
module Checker = Regemu_live.Checker

(* --- Openload determinism ----------------------------------------- *)

let openload_tests =
  [
    test "op stream is a pure function of (seed, i)" (fun () ->
        let cfg = { Openload.default_config with seed = 99; keys = 64 } in
        for i = 0 to 499 do
          check_int
            (Fmt.str "key of op %d" i)
            (Openload.key_of_op cfg i)
            (Openload.key_of_op cfg i);
          Alcotest.(check bool)
            (Fmt.str "kind of op %d" i)
            (Openload.is_write_op cfg i)
            (Openload.is_write_op cfg i)
        done);
    test "different seeds give different streams" (fun () ->
        let cfg s = { Openload.default_config with seed = s; keys = 1024 } in
        let keys s = List.init 200 (Openload.key_of_op (cfg s)) in
        Alcotest.(check bool) "streams differ" true (keys 1 <> keys 2));
    test "zipf skew concentrates on few keys, uniform does not" (fun ()
      ->
        let draw zipf =
          let cfg =
            { Openload.default_config with seed = 5; keys = 1000; zipf }
          in
          let hits = Hashtbl.create 64 in
          for i = 0 to 4_999 do
            let k = Openload.key_of_op cfg i in
            Hashtbl.replace hits k (1 + Option.value ~default:0
                                          (Hashtbl.find_opt hits k))
          done;
          hits
        in
        let top hits =
          Hashtbl.fold (fun _ c best -> max c best) hits 0
        in
        let skewed = draw 1.2 and uniform = draw 0.0 in
        Alcotest.(check bool)
          "hot key dominates under skew" true
          (top skewed > 10 * top uniform);
        Alcotest.(check bool)
          "uniform touches most of the keyspace" true
          (Hashtbl.length uniform > 900));
  ]

(* --- the checker's open-key tracking on keyed ops ----------------------- *)

let write w ~key v =
  Histlog.return
    (Histlog.invoke w ~key Regemu_sim.Trace.(H_write (Value.Int v)))
    Value.Unit

let read w ~key got =
  Histlog.return (Histlog.invoke w ~key Regemu_sim.Trace.H_read) got

(* no deep sample: these tests count the incremental checks only *)
let every interval_s = { Kchecker.interval_s; deep_sample = 0; deep_cap = 1 }

let kchecker_tests =
  [
    test "a stale read is flagged mid-run by a completing thread" (fun () ->
        let klog = Histlog.create () in
        let w = Histlog.new_writer klog ~client:(Id.Client.of_int 0) in
        let k = Kchecker.spawn ~config:(every 0.001) klog in
        write w ~key:7 1;
        write w ~key:7 2;
        read w ~key:7 (Value.Int 1);
        (* later completions on another key run the passes: the read
           is held one pass, then judged *)
        let rec more i =
          if Checker.violations_so_far k = 0 && i <= 1000 then begin
            Thread.delay 0.002;
            write w ~key:8 i;
            more (i + 1)
          end
        in
        more 1;
        check_int "flagged before stop" 1 (Checker.violations_so_far k);
        let r = Kchecker.stop k in
        check_int "violations" 1 r.Kchecker.violations);
    test "two threads' completions share the passes without deadlock"
      (fun () ->
        let klog = Histlog.create () in
        let k = Kchecker.spawn ~config:(every 1e-4) klog in
        let ops = 20_000 in
        (* thread [c] writes then reads back keys [c], [c + 2], ... *)
        let run c =
          let w = Histlog.new_writer klog ~client:(Id.Client.of_int c) in
          for i = 1 to ops / 2 do
            let key = c + (2 * (i mod 100)) in
            write w ~key i;
            read w ~key (Value.Int i)
          done
        in
        let threads = List.init 2 (Thread.create run) in
        List.iter Thread.join threads;
        Alcotest.(check bool) "passes ran before stop" true
          (Checker.cells_polled k > 0);
        let r = Kchecker.stop k in
        check_int "every read checked" ops r.Kchecker.checks;
        check_int "violations" 0 r.Kchecker.violations);
    test "a quiesced burst leaves no open key behind" (fun () ->
        (* every key ever touched keeps its state, but once the writers
           are idle every window settles: the set a round walks is
           empty again *)
        let distinct = 10_000 in
        let klog = Histlog.create () in
        let w = Histlog.new_writer klog ~client:(Id.Client.of_int 0) in
        let k = Kchecker.spawn klog in
        for key = 0 to distinct - 1 do
          write w ~key (key + 1);
          read w ~key (Value.Int (key + 1))
        done;
        let r = Kchecker.stop k in
        check_int "keys" distinct (Checker.keys k);
        check_int "open keys" 0 (Checker.open_keys k);
        check_int "settled" distinct r.Kchecker.settled_writes;
        check_int "checks" distinct r.Kchecker.checks;
        check_int "violations" 0 r.Kchecker.violations);
    test "a re-written settled key is settled again and flags a stale read"
      (fun () ->
        (* settle key 7 to floor = 2, write 3 (the window re-opens),
           let it settle, then read the stale 2 *)
        let module Sched = Regemu_dst.Sched in
        let obs, report =
          Sched.run (Sched.default_config ~seed:1) (fun s ->
              let hook = Sched.hook s in
              let klog = Histlog.create () in
              let w = Histlog.new_writer klog ~client:(Id.Client.of_int 0) in
              let k =
                Kchecker.spawn ~sched:hook
                  ~config:
                    {
                      Kchecker.interval_s = 0.001;
                      deep_sample = 0;
                      deep_cap = 1;
                    }
                  klog
              in
              let snap () =
                hook.Regemu_live.Sched_hook.sleep 0.01;
                (Checker.settled k, Checker.open_keys k)
              in
              write w ~key:7 1;
              write w ~key:7 2;
              let first = snap () in
              (* a read in flight on a second writer holds the frontier
                 below the next write, so a round consumes it without
                 settling it *)
              let w2 = Histlog.new_writer klog ~client:(Id.Client.of_int 1) in
              let inflight = Histlog.invoke w2 ~key:7 Regemu_sim.Trace.H_read in
              write w ~key:7 3;
              let reopened = snd (snap ()) in
              Histlog.return inflight (Value.Int 3);
              let second = snap () in
              read w ~key:7 (Value.Int 2);
              ignore (snap ());
              let flagged = Checker.violations_so_far k in
              (first, reopened, second, flagged, Kchecker.stop k))
        in
        match obs with
        | None ->
            Alcotest.failf "run did not finish (%d steps)" report.Sched.steps
        | Some ((s1, o1), reopened, (s2, o2), seen, r) ->
            check_int "first settle" 2 s1;
            check_int "closed after the first settle" 0 o1;
            check_int "re-written key is open again" 1 reopened;
            check_int "the re-opened window settled" 3 s2;
            check_int "closed after the second settle" 0 o2;
            check_int "stale read flagged online" 1 seen;
            check_int "violations" 1 r.Kchecker.violations;
            check_int "both reads decided" 2 r.Kchecker.checks;
            match r.Kchecker.first_violation with
            | Some v -> check_int "violating key" 7 v.Kchecker.v_key
            | None -> Alcotest.fail "no first violation");
  ]

(* --- end-to-end: live smoke + checker GC soundness under DST ------- *)

let dst_gc_test profile =
  test
    (Fmt.str "GC'd checker still catches a post-settle wipe (%s)"
       (Regemu_dst.Dst_keyspace.profile_name profile))
    (fun () ->
      let cfg = Regemu_dst.Dst_keyspace.default_config ~profile ~seed:2026 in
      let o = Regemu_dst.Dst_keyspace.run cfg in
      (match o.Regemu_dst.Dst_keyspace.problems with
      | [] -> ()
      | ps -> Alcotest.failf "harness problems: %s" (String.concat "; " ps));
      Alcotest.(check bool)
        "a prefix was settled before the wipe" true
        (o.Regemu_dst.Dst_keyspace.settled_at_wipe > 0);
      Alcotest.(check bool)
        "the checker caught the wipe" true o.Regemu_dst.Dst_keyspace.caught;
      Alcotest.(check bool)
        "gc_soundness_holds" true
        (Regemu_dst.Dst_keyspace.gc_soundness_holds o))

(* A few seeds of both profiles, wiped and clean: the settle step only
   visits open keys, so these runs cover windows that settle, re-open
   and break under drops, duplicates and reordering. *)
let dst_sweep_test =
  test "DST sweep: wipes caught, clean runs fully deep-checked" (fun () ->
      let module D = Regemu_dst.Dst_keyspace in
      List.iter
        (fun profile ->
          for seed = 1 to 15 do
            let base = D.default_config ~profile ~seed in
            let where = Fmt.str "%s seed %d" (D.profile_name profile) seed in
            let o = D.run base in
            if not (D.gc_soundness_holds o) then
              Alcotest.failf "%s wiped: %a" where D.outcome_pp o;
            let o = D.run { base with wipe_frac = 0.0; deep_sample = 1 } in
            match (o.D.problems, o.D.result) with
            | [], Some r ->
                check_int (where ^ " violations") 0 r.Kchecker.violations;
                check_int (where ^ " deep mismatches") 0
                  r.Kchecker.deep_mismatches;
                Alcotest.(check bool)
                  (where ^ " deep-checked") true (r.Kchecker.deep_keys > 0)
            | _ -> Alcotest.failf "%s clean: %a" where D.outcome_pp o
          done)
        [ D.Quiet; D.Chaos ])

let e2e_tests =
  [
    test "clean DST run checks clean" (fun () ->
        let cfg =
          {
            (Regemu_dst.Dst_keyspace.default_config ~profile:Regemu_dst.Dst_keyspace.Quiet ~seed:7)
            with
            wipe_frac = 0.0;
          }
        in
        let o = Regemu_dst.Dst_keyspace.run cfg in
        (match o.Regemu_dst.Dst_keyspace.problems with
        | [] -> ()
        | ps ->
            Alcotest.failf "harness problems: %s" (String.concat "; " ps));
        match o.Regemu_dst.Dst_keyspace.result with
        | None -> Alcotest.fail "no result"
        | Some r ->
            check_int "no violations" 0 r.Kchecker.violations;
            check_int "no deep mismatches" 0 r.Kchecker.deep_mismatches;
            Alcotest.(check bool) "checks ran" true (r.Kchecker.checks > 0));
    dst_gc_test Regemu_dst.Dst_keyspace.Quiet;
    dst_gc_test Regemu_dst.Dst_keyspace.Chaos;
    dst_sweep_test;
    test "live smoke run stays within its memory budget" (fun () ->
        let module Bench = Regemu_bench.Bench in
        let o =
          match (Bench.document "keyspace").smoke with
          | ({ load = Bench.Keyspace ks; _ } as s) :: _ ->
              Bench.run
                {
                  s with
                  load = Bench.Keyspace { ks with zipf = 0.9; total_ops = 300 };
                }
          | _ -> Alcotest.fail "the keyspace smoke runs keys"
        in
        check_int "all completed" 300 (o.ops + o.failed);
        match o.check with
        | Bench.Keys k ->
            check_int "no violations" 0 k.violations;
            check_int "no deep mismatches" 0 k.deep_mismatches;
            Alcotest.(check bool) "within budget" true (Bench.clean o)
        | Bench.Register _ -> Alcotest.fail "expected per-key counts");
  ]

let suites =
  [
    ("keyspace.store", store_tests);
    ("keyspace.placement", placement_tests);
    ("keyspace.openload", openload_tests);
    ("keyspace.kchecker", kchecker_tests);
    ("keyspace.e2e", e2e_tests);
  ]
