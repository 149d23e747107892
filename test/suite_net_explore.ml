(* Systematic exploration of the message-passing substrate. *)

open Regemu_bounds
open Regemu_objects
open Regemu_mcheck
open Regemu_netsim

let test name f = Alcotest.test_case name `Quick f
let p1 = Params.make_exn ~k:1 ~f:1 ~n:3

(* The exact one-write space of ABD and of wire-level Algorithm 2 at
   n=3, f=1 (the two coincide).  Pinned, not bounded: any change to a
   client's send order or request-id order reshapes the search tree and
   moves these counts. *)
let check_space (r : Net_explore.result) =
  Alcotest.(check int) "terminal runs" 259_524 r.terminal_runs;
  Alcotest.(check int) "events fired" 3_439_260 r.fired_events;
  Alcotest.(check int) "distinct histories" 5 r.distinct_histories

let net_explore_tests =
  [
    test "exhaustive: ABD on the wire, one write, ALL delivery orders"
      (fun () ->
        let r =
          Net_explore.run
            {
              params = p1;
              protocol = Net_scenario.abd ~write_back:false;
              ops = [ `Write (Value.Str "a") ];
              crashes = 0;
            }
            ~max_fired:5_000_000
        in
        Alcotest.(check bool) "exhaustive" true r.exhaustive;
        check_space r;
        Alcotest.(check int) "never stuck" 0 r.stuck_runs;
        Alcotest.(check int) "never unsafe" 0
          (List.length r.ws_safe_violations));
    test "exhaustive: wire-level algorithm2, one write" (fun () ->
        let r =
          Net_explore.run
            {
              params = p1;
              protocol = Net_scenario.alg2;
              ops = [ `Write (Value.Str "a") ];
              crashes = 0;
            }
            ~max_fired:5_000_000
        in
        Alcotest.(check bool) "exhaustive" true r.exhaustive;
        check_space r;
        Alcotest.(check int) "never stuck" 0 r.stuck_runs);
    test "exhaustive: CDS on the wire, one write" (fun () ->
        let r =
          Net_explore.run
            {
              params = p1;
              protocol = Net_scenario.cds;
              ops = [ `Write (Value.Str "a") ];
              crashes = 0;
            }
            ~max_fired:5_000_000
        in
        Alcotest.(check bool) "exhaustive" true r.exhaustive;
        Alcotest.(check int) "never stuck" 0 r.stuck_runs;
        Alcotest.(check int) "never unsafe" 0
          (List.length r.ws_safe_violations));
    test "write-then-read: no violation in a large covered space" (fun () ->
        (* the full space is beyond a unit-test budget; cover a large
           prefix and require it clean *)
        let r =
          Net_explore.run
            {
              params = p1;
              protocol = Net_scenario.abd ~write_back:false;
              ops = [ `Write (Value.Str "a"); `Read ];
              crashes = 0;
            }
            ~max_fired:1_000_000
        in
        Alcotest.(check bool) "covered some" true (r.terminal_runs > 10_000);
        Alcotest.(check int) "clean" 0 (List.length r.ws_safe_violations));
    test "losing the majority is caught as stuck states" (fun () ->
        let r =
          Net_explore.run
            {
              params = p1;
              protocol = Net_scenario.abd ~write_back:false;
              ops = [ `Write (Value.Str "a") ];
              crashes = 2 (* f+1: beyond tolerance *);
            }
            ~max_fired:3_000_000
        in
        Alcotest.(check bool) "stuck found" true (r.stuck_runs > 0);
        Alcotest.(check int) "but never unsafe" 0
          (List.length r.ws_safe_violations));
  ]

let suites = [ ("net-explore", net_explore_tests) ]
