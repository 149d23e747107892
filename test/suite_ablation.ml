(* Ablation tests: remove one design choice at a time and watch the
   corresponding guarantee fall over.  The three ablations bracket
   Algorithm 2's design:
   - colocated placement (here)  -> loses f-tolerance (liveness);
   - no covering discipline (Naive_reg + Violation) -> loses safety;
   - wait-for-all (Waitall_reg) -> loses liveness even without covering.
   The latter two live in suite_impossibility / suite_adversary; this
   file covers the placement choice and cross-checks the healthy
   baseline on identical scenarios. *)

open Regemu_bounds
open Regemu_objects
open Regemu_sim
open Regemu_core

let test name f = Alcotest.test_case name `Quick f

(* the ablation: two consecutive registers of a set share a server *)
let colocated ~set:_ ~index ~n = index / 2 mod n

let setup ?placement ~k ~f ~n () =
  let p = Params.make_exn ~k ~f ~n in
  let sim = Sim.create ~n () in
  let writers = List.init k (fun _ -> Sim.new_client sim) in
  let instance =
    Algorithm2.make ?placement ~algo:"algorithm2" sim p ~writers
  in
  (p, sim, instance, writers)

let ablation_tests =
  [
    test "colocated layout really colocates" (fun () ->
        let _, sim, instance, _ =
          setup ~placement:colocated ~k:1 ~f:1 ~n:3 ()
        in
        (* k=1: the instance's registers are exactly set 0 *)
        let set0 = instance.objects () in
        let servers =
          List.map (Sim.delta sim) set0 |> Id.Server.set_of_list
        in
        (* a set of >= 3 registers lands on fewer servers than registers *)
        Alcotest.(check bool)
          "shared server" true
          (Id.Server.Set.cardinal servers < List.length set0));
    test "healthy placement: a write survives any single crash" (fun () ->
        List.iter
          (fun victim ->
            let _, sim, instance, writers = setup ~k:1 ~f:1 ~n:3 () in
            Sim.crash_server sim (Id.Server.of_int victim);
            let call = instance.write (List.hd writers) (Value.Int 1) in
            match
              Driver.finish_call sim Policy.responds_first ~budget:50_000 call
            with
            | Ok _ -> ()
            | Error o ->
                Alcotest.failf "victim s%d: %a" victim Driver.outcome_pp o)
          [ 0; 1; 2 ]);
    test "colocated placement: one crash can block a write forever"
      (fun () ->
        (* with registers 0 and 1 of the set sharing server 0, crashing
           it removes two registers; the quorum |R|-f is unreachable *)
        let _, sim, instance, writers =
          setup ~placement:colocated ~k:1 ~f:1 ~n:3 ()
        in
        let shared = Sim.delta sim (List.hd (instance.objects ())) in
        Sim.crash_server sim shared;
        let call = instance.write (List.hd writers) (Value.Int 1) in
        match
          Driver.finish_call sim Policy.responds_first ~budget:50_000 call
        with
        | Error Driver.Stuck -> ()
        | Ok _ -> Alcotest.fail "ablated layout unexpectedly survived"
        | Error o -> Alcotest.failf "expected Stuck, got %a" Driver.outcome_pp o);
    test "without crashes the ablated layout still works (the flaw is \
          fault-tolerance, not logic)" (fun () ->
        let _, sim, instance, writers =
          setup ~placement:colocated ~k:2 ~f:1 ~n:3 ()
        in
        let policy = Policy.uniform (Rng.create 3) in
        List.iteri
          (fun i w ->
            ignore
              (Driver.finish_call_exn sim policy ~budget:50_000
                 (instance.write w (Value.Int i))))
          writers;
        let reader = Sim.new_client sim in
        let v =
          Driver.finish_call_exn sim policy ~budget:50_000
            (instance.read reader)
        in
        Alcotest.(check bool) "latest" true (Value.equal v (Value.Int 1)));
  ]

let suites = [ ("ablation:placement", ablation_tests) ]
