(* Tests for the bounded systematic schedule explorer. *)

open Regemu_bounds
open Regemu_objects
open Regemu_mcheck

let test name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

let seq_scenario factory p writer_ops ~readers =
  Explore.emulation_scenario factory p ~mode:Explore.Sequential ~writer_ops
    ~readers ~reads_each:1 ()

let p1 = Params.make_exn ~k:1 ~f:1 ~n:3
let p2 = Params.make_exn ~k:2 ~f:1 ~n:3

let quick_tests =
  [
    test "exhaustive: algorithm2, one write + one read, ALL schedules safe"
      (fun () ->
        let r =
          Explore.run
            (seq_scenario Regemu_core.Algorithm2.factory p1
               [ [ Value.Str "a" ] ] ~readers:1)
            ~max_fired:2_000_000
        in
        Alcotest.(check bool) "exhaustive" true r.exhaustive;
        Alcotest.(check bool) "explored many" true (r.terminal_runs > 10_000);
        Alcotest.(check int) "no stuck states" 0 r.stuck_runs;
        Alcotest.(check int) "safe everywhere" 0
          (List.length r.ws_safe_violations);
        Alcotest.(check int) "regular everywhere" 0
          (List.length r.ws_regular_violations));
    test "exhaustive: abd-max, one write + one read, ALL schedules safe"
      (fun () ->
        let r =
          Explore.run
            (seq_scenario Regemu_baselines.Abd_max.factory p1
               [ [ Value.Str "a" ] ] ~readers:1)
            ~max_fired:2_000_000
        in
        Alcotest.(check bool) "exhaustive" true r.exhaustive;
        Alcotest.(check int) "no violations" 0
          (List.length r.ws_safe_violations));
    test "exhaustive: even naive is safe with a single writer" (fun () ->
        (* the flaw needs a second writer whose values the stale covering
           write can erase *)
        let r =
          Explore.run
            (seq_scenario Regemu_baselines.Naive_reg.factory p1
               [ [ Value.Str "a" ] ] ~readers:1)
            ~max_fired:2_000_000
        in
        Alcotest.(check bool) "exhaustive" true r.exhaustive;
        Alcotest.(check int) "no violations" 0
          (List.length r.ws_safe_violations));
    test "eager mode explores concurrent invocations" (fun () ->
        (* bounded, not exhaustive: sanity that the mode runs and no
           violation appears for algorithm2 in the covered portion *)
        let r =
          Explore.run
            (Explore.emulation_scenario Regemu_core.Algorithm2.factory p1
               ~mode:Explore.Eager
               ~writer_ops:[ [ Value.Str "a" ] ]
               ~readers:1 ~reads_each:1 ())
            ~max_fired:150_000
        in
        Alcotest.(check bool) "found terminals" true (r.terminal_runs > 0);
        Alcotest.(check int) "no violations in covered space" 0
          (List.length r.ws_safe_violations));
    test "wrong writer_ops arity rejected" (fun () ->
        Alcotest.(check bool)
          "raises" true
          (try
             ignore
               (Explore.emulation_scenario Regemu_core.Algorithm2.factory p2
                  ~writer_ops:[ [ Value.Str "a" ] ]
                  ~readers:0 ~reads_each:0 ());
             false
           with Invalid_argument _ -> true));
    test "budget truncation is reported" (fun () ->
        let r =
          Explore.run
            (seq_scenario Regemu_core.Algorithm2.factory p1
               [ [ Value.Str "a" ] ] ~readers:1)
            ~max_fired:500
        in
        Alcotest.(check bool) "not exhaustive" false r.exhaustive);
  ]

let search_tests =
  [
    slow "systematic search rediscovers the Figure 2 violation" (fun () ->
        let r =
          Explore.run
            (seq_scenario Regemu_baselines.Naive_reg.factory p2
               [ [ Value.Str "a" ]; [ Value.Str "b" ] ]
               ~readers:1)
            ~max_fired:2_500_000
        in
        Alcotest.(check bool)
          "violation found" true
          (r.ws_safe_violations <> []);
        (* the violating run is exactly Lemma 4's: the read missed the
           second write *)
        match r.ws_safe_violations with
        | h :: _ -> (
            let reads = Regemu_history.History.reads h in
            match reads with
            | [ rd ] ->
                Alcotest.(check bool)
                  "stale value" true
                  (rd.result = Some (Value.Str "a"))
            | _ -> Alcotest.fail "expected one read")
        | [] -> assert false);
    slow "the same search budget finds nothing against algorithm2" (fun () ->
        let r =
          Explore.run
            (seq_scenario Regemu_core.Algorithm2.factory p2
               [ [ Value.Str "a" ]; [ Value.Str "b" ] ]
               ~readers:1)
            ~max_fired:2_500_000
        in
        Alcotest.(check int) "no violations" 0
          (List.length r.ws_safe_violations
          + List.length r.ws_regular_violations));
  ]

let feature_tests =
  [
    test "distinct histories are far fewer than schedules" (fun () ->
        let r =
          Explore.run
            (seq_scenario Regemu_core.Algorithm2.factory p1
               [ [ Value.Str "a" ] ] ~readers:1)
            ~max_fired:2_000_000
        in
        Alcotest.(check bool) "exhaustive" true r.exhaustive;
        Alcotest.(check bool)
          "collapse" true
          (r.distinct_histories < r.terminal_runs / 100);
        Alcotest.(check bool) "some" true (r.distinct_histories >= 1));
    test "stop_on_violation halts early and reports non-exhaustive"
      (fun () ->
        let r =
          Explore.run ~stop_on_violation:true
            (seq_scenario Regemu_baselines.Naive_reg.factory p2
               [ [ Value.Str "a" ]; [ Value.Str "b" ] ]
               ~readers:1)
            ~max_fired:5_000_000
        in
        Alcotest.(check bool)
          "found" true
          (r.ws_safe_violations <> [] || r.ws_regular_violations <> []);
        Alcotest.(check bool) "not exhaustive" false r.exhaustive;
        (* halting saves work compared to the full budget *)
        Alcotest.(check bool) "halted early" true (r.fired_events < 5_000_000));
  ]

(* --- crash-timing choices --------------------------------------------- *)

let crash_tests =
  [
    test
      "exhaustive incl. crash timing: algorithm2 is f-tolerant on the tiny \
       instance"
      (fun () ->
        let r =
          Explore.run
            (Explore.emulation_scenario Regemu_core.Algorithm2.factory p1
               ~mode:Explore.Sequential ~crashes:1
               ~writer_ops:[ [ Value.Str "a" ] ]
               ~readers:1 ~reads_each:1 ())
            ~max_fired:5_000_000
        in
        Alcotest.(check bool) "exhaustive" true r.exhaustive;
        Alcotest.(check int) "never stuck" 0 r.stuck_runs;
        Alcotest.(check int) "never unsafe" 0
          (List.length r.ws_safe_violations
          + List.length r.ws_regular_violations);
        Alcotest.(check bool) "big space" true (r.terminal_runs > 100_000));
    test "the explorer finds every crash placement that blocks wait-all"
      (fun () ->
        let r =
          Explore.run
            (Explore.emulation_scenario Regemu_baselines.Waitall_reg.factory
               p1 ~mode:Explore.Sequential ~crashes:1
               ~writer_ops:[ [ Value.Str "a" ] ]
               ~readers:0 ~reads_each:0 ())
            ~max_fired:1_000_000
        in
        Alcotest.(check bool) "exhaustive" true r.exhaustive;
        Alcotest.(check bool) "stuck states found" true (r.stuck_runs > 0);
        (* and none of the stuck states is a safety violation: wait-all
           loses liveness, not safety *)
        Alcotest.(check int) "no safety issue" 0
          (List.length r.ws_safe_violations));
    test "crash budget of zero behaves exactly as before" (fun () ->
        let with_c =
          Explore.run
            (Explore.emulation_scenario Regemu_core.Algorithm2.factory p1
               ~mode:Explore.Sequential ~crashes:0
               ~writer_ops:[ [ Value.Str "a" ] ]
               ~readers:1 ~reads_each:1 ())
            ~max_fired:2_000_000
        in
        let without =
          Explore.run
            (seq_scenario Regemu_core.Algorithm2.factory p1
               [ [ Value.Str "a" ] ] ~readers:1)
            ~max_fired:2_000_000
        in
        Alcotest.(check int) "same space" without.terminal_runs
          with_c.terminal_runs);
  ]

(* --- the fire contract ------------------------------------------------ *)

(* A model's [fire] rejects a thread with no choice now, so a replay bug
   cannot pass unnoticed: a job already fired, a crash of a crashed
   server, a crash past the budget.  [s] is a fresh run with a job
   enabled and a crash budget of two. *)
let check_fire_contract (type t) (module M : Model.S with type t = t) (s : t)
    =
  let rejects label th =
    match M.fire s th with
    | () -> Alcotest.failf "%s: fired" label
    | exception Invalid_argument _ -> ()
  in
  let is_job (c : Model.footprint) =
    match c.thread with Model.Job _ -> true | Client _ | Crash _ -> false
  in
  match Array.find_opt is_job (M.choices s) with
  | None -> Alcotest.fail "no job enabled on the fresh run"
  | Some { thread = job; _ } ->
      M.fire s job;
      rejects "a job already fired" job;
      M.fire s (Model.Crash 0);
      rejects "a crashed server" (Model.Crash 0);
      M.fire s (Model.Crash 1);
      rejects "a crash past the budget" (Model.Crash 2)

let fire_tests =
  [
    test "fire rejects a thread with no choice now" (fun () ->
        check_fire_contract
          (module Explore.Session)
          (Explore.Session.create
             (Explore.emulation_scenario Regemu_core.Algorithm2.factory p1
                ~mode:Explore.Sequential ~crashes:2
                ~writer_ops:[ [ Value.Str "a" ] ]
                ~readers:0 ~reads_each:0 ())));
  ]

let determinism_tests =
  [
    test "exploration is deterministic" (fun () ->
        let run () =
          let r =
            Explore.run
              (seq_scenario Regemu_core.Algorithm2.factory p1
                 [ [ Value.Str "a" ] ] ~readers:1)
              ~max_fired:300_000
          in
          ( r.terminal_runs, r.distinct_histories, r.fired_events,
            r.max_depth )
        in
        Alcotest.(check bool) "equal" true (run () = run ()));
  ]

let suites =
  [
    ("mcheck:exhaustive", quick_tests);
    ("mcheck:search", search_tests);
    ("mcheck:features", feature_tests);
    ("mcheck:crashes", crash_tests);
    ("mcheck:fire", fire_tests);
    ("mcheck:determinism", determinism_tests);
  ]
