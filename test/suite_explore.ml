(* Tests for the systematic-exploration layer: the DPOR engine
   (lib/mcheck/dpor.ml) against brute force, the regemu-cert/1
   certificate, the coverage bitmap, and the coverage-guided fuzzer
   against the committed regression corpus under test/corpus/. *)

open Regemu_bounds
open Regemu_objects
open Regemu_mcheck
open Regemu_explore

let test name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

let qcheck ~name ~count arb p =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb p)

(* Params.make enforces n >= 2f+1 and f >= 1, so the smallest legal
   config is (k=1, f=1, n=3) — the issue's "n=2" does not exist in
   this model. *)
let p1 = Params.make_exn ~k:1 ~f:1 ~n:3
let p2 = Params.make_exn ~k:2 ~f:1 ~n:3

let scenario ?(mode = Explore.Sequential) ?(p = p1) factory ~writer_ops
    ~readers ~reads_each () =
  Explore.emulation_scenario factory p ~mode ~writer_ops ~readers ~reads_each
    ()

(* DPOR must reach exactly the terminal/verdict states the brute-force
   search reaches, while firing no more transitions (its replays
   included).  Shared with the Net differentials. *)
let check_reduction name (b : Explore.result) (d : Dpor.stats) =
  Alcotest.(check bool) (name ^ ": dpor exhaustive") true d.Dpor.exhaustive;
  Alcotest.(check bool) (name ^ ": brute exhaustive") true b.Explore.exhaustive;
  Alcotest.(check (list string))
    (name ^ ": identical terminal states")
    b.Explore.state_fingerprints d.Dpor.state_fingerprints;
  Alcotest.(check bool)
    (name ^ ": dpor fires no more transitions")
    true
    (d.Dpor.explored + d.Dpor.replayed <= b.Explore.fired_events)

let check_dpor_vs_brute name factory ~writer_ops ~readers ~reads_each
    ~max_explored =
  let sc () = scenario factory ~writer_ops ~readers ~reads_each () in
  let d = Dpor.run ~check_invariants:false (sc ()) ~max_explored in
  let b = Explore.run (sc ()) ~max_fired:max_explored in
  check_reduction name b d;
  (d, b)

let dpor_tests =
  [
    slow "dpor = brute force terminal states (algorithm2, 1w+1r)" (fun () ->
        let d, b =
          check_dpor_vs_brute "alg2" Regemu_core.Algorithm2.factory
            ~writer_ops:[ [ Value.Str "a" ] ]
            ~readers:1 ~reads_each:1 ~max_explored:3_000_000
        in
        Alcotest.(check bool)
          "dpor strictly smaller" true
          (d.Dpor.explored + d.Dpor.replayed < b.Explore.fired_events);
        Alcotest.(check int) "no ws-safe violations" 0 d.Dpor.ws_safe_violations;
        Alcotest.(check int)
          "no ws-regular violations" 0 d.Dpor.ws_regular_violations);
    slow "dpor = brute force terminal states (abd-max, 1w+1r)" (fun () ->
        ignore
          (check_dpor_vs_brute "abd" Regemu_baselines.Abd_max.factory
             ~writer_ops:[ [ Value.Str "a" ] ]
             ~readers:1 ~reads_each:1 ~max_explored:3_000_000));
    qcheck ~name:"dpor = brute force on random tiny scenarios" ~count:3
      QCheck.(
        pair (bool : bool arbitrary) (string_gen_of_size (Gen.return 3) Gen.printable))
      (fun (use_alg2, v) ->
        let factory =
          if use_alg2 then Regemu_core.Algorithm2.factory
          else Regemu_baselines.Abd_max.factory
        in
        let d, _ =
          check_dpor_vs_brute "qcheck" factory
            ~writer_ops:[ [ Value.Str v ] ]
            ~readers:1 ~reads_each:1 ~max_explored:3_000_000
        in
        d.Dpor.ws_safe_violations = 0 && d.Dpor.ws_regular_violations = 0);
    test "eager mode distinguishes read-old from read-new" (fun () ->
        let r =
          Dpor.run ~check_invariants:false
            (scenario Regemu_baselines.Abd_max.factory ~mode:Explore.Eager
               ~writer_ops:[ [ Value.Str "a" ] ]
               ~readers:1 ~reads_each:1 ())
            ~max_explored:500_000
        in
        Alcotest.(check bool) "exhaustive" true r.Dpor.exhaustive;
        Alcotest.(check bool)
          "a concurrent read reaches at least two outcomes" true
          (r.Dpor.distinct_states >= 2);
        Alcotest.(check int) "clean" 0
          (r.Dpor.ws_safe_violations + r.Dpor.ws_regular_violations));
    test "dpor finds the naive-register violations" (fun () ->
        (* exact counts: a verdict table that dropped or double-counted
           a run, or reused a violating verdict for a clean history,
           would move them *)
        let sc () =
          scenario Regemu_baselines.Naive_reg.factory ~p:p2
            ~writer_ops:[ [ Value.Str "a" ]; [ Value.Str "b" ] ]
            ~readers:1 ~reads_each:1 ()
        in
        let r = Dpor.run ~check_invariants:false (sc ()) ~max_explored:2_000_000 in
        Alcotest.(check bool) "exhaustive" true r.Dpor.exhaustive;
        Alcotest.(check (list (pair string int)))
          "dpor verdict counts"
          [
            ("explored", 12291);
            ("terminal_runs", 3362);
            ("distinct_states", 2);
            ("ws_safe_violations", 152);
            ("ws_regular_violations", 152);
            ("judged", 2);
          ]
          [
            ("explored", r.Dpor.explored);
            ("terminal_runs", r.Dpor.terminal_runs);
            ("distinct_states", r.Dpor.distinct_states);
            ("ws_safe_violations", r.Dpor.ws_safe_violations);
            ("ws_regular_violations", r.Dpor.ws_regular_violations);
            ("judged", r.Dpor.judged);
          ];
        Alcotest.(check (option string))
          "the witness"
          (Some
             "ws-safe: read #2 c2 read() [27,35] -> \"a\" returned \"a\" but \
              only {\"b\"} allowed: WS-Safe: read with no concurrent write \
              must return the last preceding write")
          r.Dpor.first_violation;
        let b = Explore.run (sc ()) ~max_fired:2_000_000 in
        Alcotest.(check (option int))
          "brute force: fired when the first violation surfaced" (Some 655_324)
          b.Explore.first_violation_at;
        Alcotest.(check int) "brute force: distinct" 2
          b.Explore.distinct_histories;
        Alcotest.(check (pair int int))
          "brute force: violating histories kept" (3, 3)
          ( List.length b.Explore.ws_safe_violations,
            List.length b.Explore.ws_regular_violations ));
    test "an exact budget covers the whole space, on both engines" (fun () ->
        (* abd-max, 1 write + 1 read, sequential: brute force fires
           251,424 transitions and DPOR explores 191 *)
        let sc () =
          scenario Regemu_baselines.Abd_max.factory
            ~writer_ops:[ [ Value.Str "a" ] ]
            ~readers:1 ~reads_each:1 ()
        in
        let brute budget =
          let b = Explore.run (sc ()) ~max_fired:budget in
          (b.Explore.terminal_runs, b.Explore.exhaustive)
        in
        let dpor budget =
          let d = Dpor.run (sc ()) ~max_explored:budget in
          (d.Dpor.terminal_runs, d.Dpor.exhaustive)
        in
        let outcome = Alcotest.(pair int bool) in
        Alcotest.check outcome "brute force at its exact budget"
          (22_248, true) (brute 251_424);
        Alcotest.check outcome "brute force one short" (22_247, false)
          (brute 251_423);
        Alcotest.check outcome "dpor at its exact budget" (50, true)
          (dpor 191);
        Alcotest.check outcome "dpor one short" (49, false) (dpor 190));
    test "pruning is substantial on the certificate config" (fun () ->
        (* the acceptance config: 1 writer x 2 ops, 1 reader x 2 reads *)
        let r =
          Dpor.run ~check_invariants:false
            (scenario Regemu_baselines.Abd_max.factory
               ~writer_ops:[ [ Value.Str "a"; Value.Str "b" ] ]
               ~readers:1 ~reads_each:2 ())
            ~max_explored:30_000_000
        in
        Alcotest.(check bool) "exhaustive" true r.Dpor.exhaustive;
        let ratio =
          float_of_int r.Dpor.pruned
          /. float_of_int (r.Dpor.pruned + r.Dpor.explored)
        in
        Alcotest.(check bool)
          (Fmt.str "pruning ratio %.3f >= 0.3" ratio)
          true (ratio >= 0.3));
    test "search is pinned on the capped one-crash Algorithm 2 scenario"
      (fun () ->
        (* n=3, f=1, one crash, 1 writer x 2 writes, capped at 10000
           transitions, invariants on.  Fingerprint equality with brute
           force cannot see a clock bug that loses pruning or plants
           extra backtrack points; these counters can.  Algorithm 2 (1
           reader x 2 reads, sequential) keeps the invariants; the naive
           register (1 reader x 1 read, eager) double-pends a register
           on 1881 terminal runs, so the invariant checks cannot go
           quiet unnoticed. *)
        let pinned ~name factory ~mode ~writer_ops ~reads_each ~want
            ~want_first =
          let r =
            Dpor.run
              (Explore.emulation_scenario factory p1 ~mode ~crashes:1
                 ~writer_ops:[ writer_ops ] ~readers:1 ~reads_each ())
              ~max_explored:10_000
          in
          let got =
            [
              ("explored", r.Dpor.explored);
              ("replayed", r.Dpor.replayed);
              ("pruned", r.Dpor.pruned);
              ("sleep_skipped", r.Dpor.sleep_skipped);
              ("terminal_runs", r.Dpor.terminal_runs);
              ("stuck_runs", r.Dpor.stuck_runs);
              ("distinct_states", r.Dpor.distinct_states);
              ("max_depth", r.Dpor.max_depth);
              ("invariant_violations", r.Dpor.invariant_violations);
            ]
          in
          Alcotest.(check (list (pair string int)))
            (name ^ ": every search counter") want got;
          Alcotest.(check (option string))
            (name ^ ": first violation") want_first r.Dpor.first_violation;
          Alcotest.(check bool)
            (name ^ ": capped, not exhaustive")
            false r.Dpor.exhaustive
        in
        pinned ~name:"algorithm2" Regemu_core.Algorithm2.factory
          ~mode:Explore.Sequential
          ~writer_ops:[ Value.Int 1001; Value.Int 1002 ]
          ~reads_each:2
          ~want:
            [
              ("explored", 10000);
              ("replayed", 53694);
              ("pruned", 5276);
              ("sleep_skipped", 470);
              ("terminal_runs", 2710);
              ("stuck_runs", 0);
              ("distinct_states", 1);
              ("max_depth", 24);
              ("invariant_violations", 0);
            ]
          ~want_first:None;
        pinned ~name:"naive-reg" Regemu_baselines.Naive_reg.factory
          ~mode:Explore.Eager
          ~writer_ops:[ Value.Int 1; Value.Int 2 ]
          ~reads_each:1
          ~want:
            [
              ("explored", 10000);
              ("replayed", 43862);
              ("pruned", 5141);
              ("sleep_skipped", 430);
              ("terminal_runs", 2759);
              ("stuck_runs", 0);
              ("distinct_states", 1);
              ("max_depth", 20);
              ("invariant_violations", 1881);
            ]
          ~want_first:
            (Some
               "invariant: at t=30, client c0: 2 of its writes pending on b2 \
                simultaneously"));
    test "terminal fingerprints are pinned byte for byte" (fun () ->
        (* pairs, booleans, escaped strings, negative ints and v0 all
           reach the fingerprint; both the clean and the violating
           verdict letters appear *)
        let odd = Value.Pair (Value.Bool true, Value.Str "q\"\n") in
        let r =
          Dpor.run ~check_invariants:false
            (scenario Regemu_baselines.Naive_reg.factory ~p:p2
               ~writer_ops:[ [ odd ]; [ Value.Int (-7) ] ]
               ~readers:1 ~reads_each:1 ())
            ~max_explored:100_000
        in
        Alcotest.(check bool) "exhaustive" true r.Dpor.exhaustive;
        Alcotest.(check (list string))
          "fingerprints"
          [
            "I0:write(<true,\"q\\\"\\n\">);R0:write(<true,\"q\\\"\\n\">)=v0;I1:write(-7);R1:write(-7)=v0;I2:read();R2:read()=-7;|HH";
            "I0:write(<true,\"q\\\"\\n\">);R0:write(<true,\"q\\\"\\n\">)=v0;I1:write(-7);R1:write(-7)=v0;I2:read();R2:read()=<true,\"q\\\"\\n\">;|XX";
          ]
          r.Dpor.state_fingerprints;
        Alcotest.(check (list int))
          "explored, replayed, pruned, sleep-skipped, terminal"
          [ 12291; 51527; 10646; 710; 3362 ]
          [
            r.Dpor.explored;
            r.Dpor.replayed;
            r.Dpor.pruned;
            r.Dpor.sleep_skipped;
            r.Dpor.terminal_runs;
          ]);
  ]

(* --- history keys against the reference judge ---------------------------- *)

(* [M] whose [history_key] also checks itself against {!Model.judge} at
   every state an engine judges: the key must be the judged
   fingerprint's invoke/return field (the fingerprint without its
   verdict letters and stuck mark, which is the text before its first
   [|] when no value prints a [|]), and the engine's fingerprints must
   be exactly the judged ones. *)
module Keyed (M : Model.S) = struct
  include M

  let judged : (string, unit) Hashtbl.t = Hashtbl.create 16
  let mismatches = ref []
  let calls = ref 0
  let violating = ref 0

  let history_key s =
    let key = M.history_key s in
    let stuck = not (M.finished s) in
    let vs, vr, fp = Model.judge (M.history s) ~stuck in
    let field =
      String.sub fp 0 (String.length fp - if stuck then 9 else 3)
    in
    if key <> field then mismatches := (field, key) :: !mismatches;
    (match (vs, vr) with
    | Regemu_history.Ws_check.Violated _, _ | _, Regemu_history.Ws_check.Violated _ ->
        incr violating
    | _ -> ());
    Hashtbl.replace judged fp ();
    incr calls;
    key

  (* every judged state went through [history_key]; returns the
     distinct fingerprints and the number of violating states *)
  let check name ~fingerprints ~runs =
    Alcotest.(check (list (pair string string)))
      (name ^ ": keys match the reference") [] !mismatches;
    Alcotest.(check int) (name ^ ": every terminal and stuck state keyed") runs
      !calls;
    Alcotest.(check (list string))
      (name ^ ": fingerprints match the reference")
      (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) judged []))
      fingerprints;
    (Hashtbl.length judged, !violating)
end

(* both engines over the keyed simulator; the distinct fingerprints and
   violating states DPOR saw *)
let keyed_sim name ~max_fired sc =
  let module K = Keyed (Explore.Session) in
  let module D = Dpor.Make (K) in
  let d = D.run ~check_invariants:false sc ~max_explored:1_000_000 in
  let seen =
    K.check (name ^ ", dpor") ~fingerprints:d.Dpor.state_fingerprints
      ~runs:(d.Dpor.terminal_runs + d.Dpor.stuck_runs)
  in
  let module K = Keyed (Explore.Session) in
  let module B = Explore.Make (K) in
  let b = B.run sc ~max_fired in
  ignore
    (K.check (name ^ ", brute force") ~fingerprints:b.Explore.state_fingerprints
       ~runs:(b.Explore.terminal_runs + b.Explore.stuck_runs));
  seen

let key_tests =
  [
    qcheck ~name:"history keys match the judge on random tiny scenarios"
      ~count:3
      QCheck.(
        pair (bool : bool arbitrary) (string_gen_of_size (Gen.return 3) Gen.printable))
      (fun (use_alg2, v) ->
        let factory =
          if use_alg2 then Regemu_core.Algorithm2.factory
          else Regemu_baselines.Abd_max.factory
        in
        ignore
          (keyed_sim "qcheck" ~max_fired:100_000
             (scenario factory ~writer_ops:[ [ Value.Str v ] ] ~readers:1
                ~reads_each:1 ()));
        true);
    test "history keys match the judge: eager, naive-reg, stuck states"
      (fun () ->
        let distinct, _ =
          keyed_sim "eager read-old/read-new" ~max_fired:300_000
            (scenario Regemu_baselines.Abd_max.factory ~mode:Explore.Eager
               ~writer_ops:[ [ Value.Str "a" ] ]
               ~readers:1 ~reads_each:1 ())
        in
        Alcotest.(check bool) "eager: several keys" true (distinct >= 2);
        let distinct, violating =
          keyed_sim "naive-reg" ~max_fired:300_000
            (scenario Regemu_baselines.Naive_reg.factory ~p:p2
               ~writer_ops:[ [ Value.Str "a" ]; [ Value.Str "b" ] ]
               ~readers:1 ~reads_each:1 ())
        in
        Alcotest.(check (pair int int)) "naive-reg: keys, violating states"
          (2, 152) (distinct, violating);
        let distinct, _ =
          keyed_sim "wait-all, one crash" ~max_fired:300_000
            (Explore.emulation_scenario Regemu_baselines.Waitall_reg.factory p1
               ~mode:Explore.Sequential ~crashes:1
               ~writer_ops:[ [ Value.Str "a" ] ]
               ~readers:0 ~reads_each:0 ())
        in
        Alcotest.(check bool) "wait-all: finished and stuck keys" true
          (distinct >= 2));
  ]

(* --- regemu-cert/1 ------------------------------------------------------- *)

let abd_cert () =
  let stats =
    Dpor.run ~check_invariants:false
      (scenario Regemu_baselines.Abd_max.factory
         ~writer_ops:[ [ Value.Str "a" ] ]
         ~readers:1 ~reads_each:1 ())
      ~max_explored:500_000
  in
  Cert.make
    ~config:
      {
        Cert.algo = "abd-max";
        k = 1;
        f = 1;
        n = 3;
        mode = "sequential";
        writer_ops = [ 1 ];
        readers = 1;
        reads_each = 1;
        crashes = 0;
        max_explored = 500_000;
      }
    stats

let cert_tests =
  [
    test "certificate round-trips through JSON and validates" (fun () ->
        let cert = abd_cert () in
        Alcotest.(check string) "verdict" "verified-clean" cert.Cert.verdict;
        (match Cert.validate cert with
        | Ok () -> ()
        | Error m -> Alcotest.failf "fresh certificate invalid: %s" m);
        match Cert.of_json (Cert.to_json cert) with
        | Error m -> Alcotest.failf "round-trip failed: %s" m
        | Ok c ->
            Alcotest.(check bool) "round-trip is lossless" true (c = cert));
    test "validation rejects tampered counters" (fun () ->
        let cert = abd_cert () in
        let tampered = { cert with Cert.pruned = cert.Cert.pruned + 1 } in
        (match Cert.validate tampered with
        | Ok () -> Alcotest.fail "tampered floor accepted"
        | Error _ -> ());
        let lying = { cert with Cert.verdict = "violations-found" } in
        match Cert.validate lying with
        | Ok () -> Alcotest.fail "lying verdict accepted"
        | Error _ -> ());
    test "of_json rejects wrong schema and missing fields" (fun () ->
        (match Cert.of_json (Regemu_obs.Json.Obj [ ("schema", Regemu_obs.Json.Str "nope/9") ]) with
        | Ok _ -> Alcotest.fail "wrong schema accepted"
        | Error _ -> ());
        (match Cert.of_json (Regemu_obs.Json.Obj [ ("schema", Regemu_obs.Json.Str "regemu-cert/1") ]) with
        | Ok _ -> Alcotest.fail "empty certificate accepted"
        | Error _ -> ());
        (* only the reduced search certifies *)
        match Cert.to_json (abd_cert ()) with
        | Regemu_obs.Json.Obj fields -> (
            let unreduced =
              List.map
                (fun (k, v) ->
                  (k, if k = "dpor" then Regemu_obs.Json.Bool false else v))
                fields
            in
            match Cert.of_json (Regemu_obs.Json.Obj unreduced) with
            | Ok _ -> Alcotest.fail "\"dpor\": false accepted"
            | Error _ -> ())
        | _ -> Alcotest.fail "certificate is not an object");
  ]

(* --- coverage bitmap ----------------------------------------------------- *)

let coverage_tests =
  [
    test "first run sets edges, identical rerun sets none" (fun () ->
        let c = Coverage.create () in
        let sites = [| 1; 2; 3; 2; 1 |] in
        let fresh = Coverage.add_run c ~sites in
        Alcotest.(check bool) "first run is novel" true (fresh > 0);
        Alcotest.(check int) "covered = fresh" fresh (Coverage.covered c);
        Alcotest.(check int) "identical rerun adds nothing" 0
          (Coverage.add_run c ~sites);
        let fresh2 = Coverage.add_run c ~sites:[| 3; 2; 1 |] in
        Alcotest.(check bool) "reversed order is a different edge set" true
          (fresh2 > 0));
    test "empty run covers nothing" (fun () ->
        let c = Coverage.create () in
        Alcotest.(check int) "no sites, no edges" 0
          (Coverage.add_run c ~sites:[||]);
        Alcotest.(check (float 1e-9)) "ratio 0" 0.0 (Coverage.ratio c));
  ]

(* --- coverage-guided fuzzing against the committed corpus ---------------- *)

let corpus_file name =
  if Sys.file_exists (Filename.concat "corpus" name) then
    Filename.concat "corpus" name (* dune runtest cwd *)
  else Filename.concat "test/corpus" name (* repo root *)

let corpus_files =
  [
    corpus_file "stall.json";
    corpus_file "fullpass-online.json";
    corpus_file "fullpass-online-stall.json";
  ]

let truncated a =
  let n = Array.length a in
  Array.sub a 0 (2 * n / 3)

let cgfuzz_tests =
  let open Regemu_dst in
  List.map
    (fun file ->
      test (Fmt.str "cg fuzzing rediscovers %s" (Filename.basename file))
        (fun () ->
          match Dst_fuzz.read_replay file with
          | Error m -> Alcotest.failf "%s: %s" file m
          | Ok spec ->
              (* the committed counterexample must still reproduce *)
              let r = Dst_fuzz.replay spec in
              Alcotest.(check bool)
                (file ^ ": replay reproduces the recorded verdict")
                true (Dst_fuzz.replay_matched r);
              let key = Dst_fuzz.failure_key r.Dst_fuzz.outcome in
              Alcotest.(check bool) "the corpus entry fails" true (key <> []);
              (* seed the fuzzer with a truncated prefix of the witness
                 trace: it must search its way back to the same
                 violation kind within a small budget.  Quiet keeps the
                 committed config (nemesis included) exactly as is. *)
              let report =
                Cgfuzz.fuzz
                  ~init:[ truncated spec.Dst_fuzz.r_choices ]
                  ~profile:Dst_fuzz.Quiet ~base:spec.Dst_fuzz.r_cfg ~budget:80
                  ()
              in
              Alcotest.(check bool)
                (Fmt.str "%s: kind [%s] rediscovered in %d runs" file
                   (String.concat "," key) report.Cgfuzz.runs)
                true
                (Cgfuzz.found report key)))
    corpus_files
  @ [
      test "cg fuzzing is deterministic in (config, budget)" (fun () ->
          let base =
            {
              (Dst.default_config ~seed:11) with
              Dst.readers = 1;
              ops_per_client = 3;
            }
          in
          let run () =
            Cgfuzz.fuzz ~profile:Dst_fuzz.Quiet ~base ~budget:40 ()
          in
          let a = run () and b = run () in
          Alcotest.(check int) "same schedules" a.Cgfuzz.schedules
            b.Cgfuzz.schedules;
          Alcotest.(check int) "same edges" a.Cgfuzz.edges b.Cgfuzz.edges;
          Alcotest.(check int) "same corpus" (List.length a.Cgfuzz.corpus)
            (List.length b.Cgfuzz.corpus);
          Alcotest.(check bool) "same violation keys" true
            (Cgfuzz.violation_keys a = Cgfuzz.violation_keys b));
      test "a quiet burst finds no violations and grows the corpus" (fun () ->
          let base =
            {
              (Dst.default_config ~seed:5) with
              Dst.readers = 1;
              ops_per_client = 3;
            }
          in
          let r = Cgfuzz.fuzz ~profile:Dst_fuzz.Quiet ~base ~budget:60 () in
          Alcotest.(check int) "budget spent exactly" 60 r.Cgfuzz.runs;
          Alcotest.(check (list (list string))) "clean" []
            (Cgfuzz.violation_keys r);
          Alcotest.(check bool) "corpus grew beyond the bootstrap" true
            (List.length r.Cgfuzz.corpus > 1));
    ]

let suites =
  [
    ("explore.dpor", dpor_tests);
    ("explore.history-key", key_tests);
    ("explore.cert", cert_tests);
    ("explore.coverage", coverage_tests);
    ("explore.cgfuzz", cgfuzz_tests);
  ]
