(* Systematic exploration of the message-passing substrate: the
   brute-force and DPOR engines over the Net model. *)

open Regemu_bounds
open Regemu_objects
open Regemu_mcheck
open Regemu_netsim

let test name f = Alcotest.test_case name `Quick f
let p1 = Params.make_exn ~k:1 ~f:1 ~n:3

module Brute = Explore.Make (Net_model)
module Reduced = Dpor.Make (Net_model)

let scenario ?(ops = [ `Write (Value.Str "a") ]) ?(crashes = 0) protocol =
  { Net_model.params = p1; protocol; ops; crashes }

(* DPOR on the same scenario reaches the brute-force search's terminal
   states, and counts them the same way. *)
let check_dpor name sc (b : Explore.result) =
  let d = Reduced.run sc ~max_explored:1_000_000 in
  Suite_explore.check_reduction name b d;
  Alcotest.(check int)
    (name ^ ": distinct states") b.distinct_histories d.Dpor.distinct_states;
  d

(* The exact one-write space of ABD and of wire-level Algorithm 2 at
   n=3, f=1 (the two coincide).  Pinned, not bounded: any change to a
   client's send order or request-id order reshapes the search tree and
   moves these counts.  One write yields one history. *)
let check_space (r : Explore.result) =
  Alcotest.(check int) "terminal runs" 259_524 r.terminal_runs;
  Alcotest.(check int) "events fired" 3_439_260 r.fired_events;
  Alcotest.(check int) "distinct histories" 1 r.distinct_histories

let net_explore_tests =
  [
    test "exhaustive: ABD on the wire, one write, ALL delivery orders"
      (fun () ->
        let sc = scenario (Net_scenario.abd ~write_back:false) in
        let r = Brute.run sc ~max_fired:5_000_000 in
        Alcotest.(check bool) "exhaustive" true r.exhaustive;
        check_space r;
        Alcotest.(check int) "never stuck" 0 r.stuck_runs;
        Alcotest.(check int) "never unsafe" 0
          (List.length r.ws_safe_violations);
        (* Fingerprint equality cannot see a footprint that loses
           pruning or plants extra backtrack points; these counters
           can. *)
        let d = check_dpor "abd" sc r in
        Alcotest.(check (list (pair string int)))
          "every DPOR search counter"
          [
            ("explored", 876);
            ("replayed", 2662);
            ("pruned", 664);
            ("sleep_skipped", 54);
            ("terminal_runs", 276);
            ("distinct_states", 1);
          ]
          [
            ("explored", d.Dpor.explored);
            ("replayed", d.Dpor.replayed);
            ("pruned", d.Dpor.pruned);
            ("sleep_skipped", d.Dpor.sleep_skipped);
            ("terminal_runs", d.Dpor.terminal_runs);
            ("distinct_states", d.Dpor.distinct_states);
          ]);
    test "exhaustive: wire-level algorithm2, one write" (fun () ->
        let sc = scenario Net_scenario.alg2 in
        let r = Brute.run sc ~max_fired:5_000_000 in
        Alcotest.(check bool) "exhaustive" true r.exhaustive;
        check_space r;
        Alcotest.(check int) "never stuck" 0 r.stuck_runs;
        ignore (check_dpor "alg2" sc r));
    test "exhaustive: CDS on the wire, one write" (fun () ->
        let sc = scenario Net_scenario.cds in
        let r = Brute.run sc ~max_fired:5_000_000 in
        Alcotest.(check bool) "exhaustive" true r.exhaustive;
        Alcotest.(check int) "never stuck" 0 r.stuck_runs;
        Alcotest.(check int) "never unsafe" 0
          (List.length r.ws_safe_violations);
        ignore (check_dpor "cds" sc r));
    test "write-then-read: no violation in a large covered space" (fun () ->
        (* the full space is beyond a unit-test budget; cover a large
           prefix and require it clean *)
        let r =
          Brute.run
            (scenario
               ~ops:[ `Write (Value.Str "a"); `Read ]
               (Net_scenario.abd ~write_back:false))
            ~max_fired:1_000_000
        in
        Alcotest.(check bool) "covered some" true (r.terminal_runs > 10_000);
        Alcotest.(check int) "clean" 0
          (List.length r.ws_safe_violations
          + List.length r.ws_regular_violations));
    test "losing the majority is caught as stuck states" (fun () ->
        let r =
          Brute.run
            (scenario ~crashes:2 (* f+1: beyond tolerance *)
               (Net_scenario.abd ~write_back:false))
            ~max_fired:3_000_000
        in
        Alcotest.(check bool) "stuck found" true (r.stuck_runs > 0);
        Alcotest.(check int) "but never unsafe" 0
          (List.length r.ws_safe_violations));
    test "DPOR is pinned past one clock word (depth > 63)" (fun () ->
        (* k=2, four writes and two reads, one crash, capped: the search
           goes 70 and 106 deep, so every clock row is two words wide
           for part of it *)
        let p2 = Params.make_exn ~k:2 ~f:1 ~n:3 in
        let w v = `Write (Value.Str v) in
        let pinned name protocol want =
          let d =
            Reduced.run
              {
                Net_model.params = p2;
                protocol;
                ops = [ w "a"; w "b"; `Read; w "c"; w "d"; `Read ];
                crashes = 1;
              }
              ~max_explored:3_000
          in
          Alcotest.(check (list (pair string int)))
            (name ^ ": every DPOR search counter") want
            [
              ("explored", d.Dpor.explored);
              ("replayed", d.Dpor.replayed);
              ("pruned", d.Dpor.pruned);
              ("sleep_skipped", d.Dpor.sleep_skipped);
              ("terminal_runs", d.Dpor.terminal_runs);
              ("max_depth", d.Dpor.max_depth);
            ]
        in
        pinned "abd" (Net_scenario.abd ~write_back:false)
          [
            ("explored", 3000);
            ("replayed", 60457);
            ("pruned", 1945);
            ("sleep_skipped", 118);
            ("terminal_runs", 911);
            ("max_depth", 70);
          ];
        pinned "alg2" Net_scenario.alg2
          [
            ("explored", 3000);
            ("replayed", 114248);
            ("pruned", 2198);
            ("sleep_skipped", 0);
            ("terminal_runs", 1108);
            ("max_depth", 106);
          ]);
    test "history keys match the judge on the wire (ABD, write then read)"
      (fun () ->
        let module K = Suite_explore.Keyed (Net_model) in
        let module D = Dpor.Make (K) in
        let d =
          D.run
            (scenario
               ~ops:[ `Write (Value.Str "a"); `Read ]
               (Net_scenario.abd ~write_back:false))
            ~max_explored:1_000_000
        in
        Alcotest.(check bool) "exhaustive" true d.Dpor.exhaustive;
        ignore
          (K.check "net abd" ~fingerprints:d.Dpor.state_fingerprints
             ~runs:(d.Dpor.terminal_runs + d.Dpor.stuck_runs)));
    Suite_explore.qcheck
      ~name:"replay reproduces the state (ABD, write then read)" ~count:60
      QCheck.(pair small_nat (int_bound 40))
      (fun (seed, steps) ->
        let module R = Suite_explore.Replayed (Net_model) in
        R.check ~name:"net abd"
          (scenario
             ~ops:[ `Write (Value.Str "a"); `Read ]
             (Net_scenario.abd ~write_back:false))
          ~seed ~steps;
        true);
    test "fire rejects a thread with no choice now" (fun () ->
        Suite_mcheck.check_fire_contract
          (module Net_model)
          (Net_model.create
             (scenario ~crashes:2 (Net_scenario.abd ~write_back:false))));
  ]

let suites = [ ("net-explore", net_explore_tests) ]
