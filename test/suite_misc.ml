(* Precision tests for the smaller public surfaces: policies, driver
   outcomes, emulation helpers, pretty-printers, and edge cases not
   covered by the end-to-end suites. *)

open Regemu_bounds
open Regemu_objects
open Regemu_sim

let test name f = Alcotest.test_case name `Quick f
let s0 = Id.Server.of_int 0

let with_pending_sim () =
  let sim = Sim.create ~n:2 () in
  let b = Sim.alloc sim ~server:s0 Base_object.Register in
  let c = Sim.new_client sim in
  let l1 =
    Sim.trigger sim ~client:c b (Base_object.Write (Value.Int 1))
      ~on_response:ignore
  in
  let l2 =
    Sim.trigger sim ~client:c b Base_object.Read ~on_response:ignore
  in
  (sim, b, c, l1, l2)

(* --- policies ----------------------------------------------------------- *)

let policy_tests =
  [
    test "responds_first picks the oldest response" (fun () ->
        let sim, _, _, l1, _ = with_pending_sim () in
        match Policy.responds_first.choose sim (Sim.enabled sim) with
        | Some (Sim.Respond l) ->
            Alcotest.(check int) "oldest" (Id.Lop.to_int l1) (Id.Lop.to_int l)
        | _ -> Alcotest.fail "expected a response");
    test "steps_first falls back to responses when no step enabled" (fun () ->
        let sim, _, _, _, _ = with_pending_sim () in
        match Policy.steps_first.choose sim (Sim.enabled sim) with
        | Some (Sim.Respond _) -> ()
        | _ -> Alcotest.fail "expected a response fallback");
    test "biased with bias 1.0 always picks responses" (fun () ->
        let sim, _, _, _, _ = with_pending_sim () in
        let p = Policy.biased (Rng.create 1) ~respond_bias:1.0 in
        for _ = 1 to 10 do
          match p.choose sim (Sim.enabled sim) with
          | Some (Sim.Respond _) -> ()
          | _ -> Alcotest.fail "expected a response"
        done);
    test "filtered blocks everything => None" (fun () ->
        let sim, _, _, _, _ = with_pending_sim () in
        let p =
          Policy.filtered ~name:"none"
            ~keep:(fun _ _ -> false)
            Policy.responds_first
        in
        Alcotest.(check bool)
          "none" true
          (p.choose sim (Sim.enabled sim) = None));
    test "filtered keeps only matching events" (fun () ->
        let sim, _, _, _, l2 = with_pending_sim () in
        let p =
          Policy.filtered ~name:"reads-only"
            ~keep:(fun _ ev ->
              match ev with
              | Sim.Respond l -> Id.Lop.equal l l2
              | Sim.Step _ -> false)
            Policy.responds_first
        in
        match p.choose sim (Sim.enabled sim) with
        | Some (Sim.Respond l) ->
            Alcotest.(check int) "the read" (Id.Lop.to_int l2) (Id.Lop.to_int l)
        | _ -> Alcotest.fail "expected the read");
    test "uniform policy is deterministic per seed" (fun () ->
        let run () =
          let sim, _, _, _, _ = with_pending_sim () in
          let p = Policy.uniform (Rng.create 5) in
          let choices = ref [] in
          for _ = 1 to 2 do
            match p.choose sim (Sim.enabled sim) with
            | Some ev ->
                choices := Fmt.str "%a" Sim.event_pp ev :: !choices;
                Sim.fire sim ev
            | None -> ()
          done;
          !choices
        in
        Alcotest.(check (list string)) "same" (run ()) (run ()));
  ]

(* --- driver --------------------------------------------------------------- *)

let driver_tests =
  [
    test "run_until returns Satisfied when goal already true" (fun () ->
        let sim = Sim.create ~n:1 () in
        Alcotest.(check bool)
          "satisfied" true
          (Driver.outcome_equal
             (Driver.run_until sim Policy.responds_first ~budget:0 (fun () ->
                  true))
             Driver.Satisfied));
    test "run_until reports Budget_exhausted" (fun () ->
        let sim, _, _, _, _ = with_pending_sim () in
        Alcotest.(check bool)
          "budget" true
          (Driver.outcome_equal
             (Driver.run_until sim Policy.responds_first ~budget:1 (fun () ->
                  false))
             Driver.Budget_exhausted));
    test "run_until reports Stuck when nothing enabled" (fun () ->
        let sim = Sim.create ~n:1 () in
        Alcotest.(check bool)
          "stuck" true
          (Driver.outcome_equal
             (Driver.run_until sim Policy.responds_first ~budget:10 (fun () ->
                  false))
             Driver.Stuck));
    test "quiesce drains all pending events" (fun () ->
        let sim, _, _, _, _ = with_pending_sim () in
        ignore (Driver.quiesce sim Policy.responds_first ~budget:10);
        Alcotest.(check int) "no pending" 0 (List.length (Sim.pending sim)));
    test "finish_call_exn error message names the operation" (fun () ->
        let sim = Sim.create ~n:1 () in
        let c = Sim.new_client sim in
        let call =
          Sim.invoke sim ~client:c Trace.H_read (fun () ->
              Sim.wait_until (fun () -> false);
              Value.Unit)
        in
        match
          Driver.finish_call_exn sim Policy.responds_first ~budget:5 call
        with
        | exception Failure msg ->
            Alcotest.(check bool)
              "mentions read" true
              (Astring_contains.contains msg "read")
        | _ -> Alcotest.fail "expected Failure");
  ]

(* --- emulation helpers ----------------------------------------------------- *)

let emulation_helper_tests =
  [
    test "call_sync round-trips a value" (fun () ->
        let sim = Sim.create ~n:1 () in
        let b = Sim.alloc sim ~server:s0 Base_object.Register in
        let c = Sim.new_client sim in
        let call =
          Sim.invoke sim ~client:c Trace.H_read (fun () ->
              ignore
                (Regemu_core.Emulation.call_sync sim ~client:c b
                   (Base_object.Write (Value.Int 7)));
              Regemu_core.Emulation.call_sync sim ~client:c b Base_object.Read)
        in
        let v =
          Driver.finish_call_exn sim Policy.responds_first ~budget:20 call
        in
        Alcotest.(check bool) "7" true (Value.equal v (Value.Int 7)));
    test "collect over empty servers completes vacuously" (fun () ->
        (* naive-reg at n=5, f=1 keeps cells on servers 0..2 only: the
           two empty servers count as scanned, so a read needs n-f = 4
           scans but only two replies *)
        let sim = Sim.create ~n:5 () in
        let w = Sim.new_client sim in
        let inst =
          Regemu_baselines.Naive_reg.factory.make sim
            (Params.make_exn ~k:1 ~f:1 ~n:5)
            ~writers:[ w ]
        in
        let call = inst.read (Sim.new_client sim) in
        (match Sim.pending sim with
        | a :: b :: _ ->
            Sim.fire sim (Sim.Respond a.lid);
            Sim.fire sim (Sim.Respond b.lid)
        | _ -> Alcotest.fail "expected three pending reads");
        (match Sim.enabled sim with
        | (Sim.Step _ as ev) :: _ -> Sim.fire sim ev
        | _ -> Alcotest.fail "reader not runnable after two replies");
        Alcotest.(check bool)
          "v0" true
          (Sim.call_result call = Some Value.v0));
  ]

(* --- pretty-printers -------------------------------------------------------- *)

let pp_tests =
  [
    test "value pp shapes" (fun () ->
        Alcotest.(check string) "v0" "v0" (Value.to_string Value.v0);
        Alcotest.(check string) "int" "3" (Value.to_string (Value.Int 3));
        Alcotest.(check string)
          "pair" "<1,\"x\">"
          (Value.to_string (Value.with_ts 1 (Value.Str "x"))));
    test "event pp" (fun () ->
        Alcotest.(check string)
          "step" "step(c3)"
          (Fmt.str "%a" Sim.event_pp (Sim.Step (Id.Client.of_int 3)));
        Alcotest.(check string)
          "respond" "respond(op9)"
          (Fmt.str "%a" Sim.event_pp (Sim.Respond (Id.Lop.of_int 9))));
    test "hop pp" (fun () ->
        Alcotest.(check string)
          "write" "write(7)"
          (Fmt.str "%a" Trace.hop_pp (Trace.H_write (Value.Int 7)));
        Alcotest.(check string) "read" "read()" (Fmt.str "%a" Trace.hop_pp Trace.H_read));
    test "base object op pp" (fun () ->
        Alcotest.(check string)
          "cas" "CAS(1,2)"
          (Fmt.str "%a" Base_object.op_pp
             (Base_object.Compare_and_swap
                { expected = Value.Int 1; desired = Value.Int 2 })));
    test "params pp" (fun () ->
        Alcotest.(check string)
          "triple" "(k=1, f=2, n=5)"
          (Fmt.str "%a" Params.pp (Params.make_exn ~k:1 ~f:2 ~n:5)));
  ]

(* --- epoch state robustness --------------------------------------------------- *)

let epoch_tests =
  [
    test "a respond that names no pending write changes nothing" (fun () ->
        let module E = Regemu_adversary.Epoch_state in
        let st =
          E.create ~f_set:(Id.Server.set_of_list [ Id.Server.of_int 1; Id.Server.of_int 2 ])
        in
        E.apply st
          (E.Trigger
             { id = 0; client = Id.Client.of_int 0; obj = Id.Obj.of_int 0; server = s0 });
        let covi1 = E.covi st in
        E.apply st (E.Respond 1);
        E.apply st (E.Respond 7);
        Alcotest.(check bool) "unchanged" true (Id.Obj.Set.equal covi1 (E.covi st));
        Alcotest.(check int) "rri" 0 (Id.Obj.Set.cardinal (E.rri st)));
    test "mi and gi relate per Definition 1.6-1.7" (fun () ->
        let module E = Regemu_adversary.Epoch_state in
        let s1 = Id.Server.of_int 1 in
        let st = E.create ~f_set:(Id.Server.set_of_list [ s1; Id.Server.of_int 2 ]) in
        (* cover a register on an F server: it lands in Mi (F \ Fi) *)
        E.apply st
          (E.Trigger
             { id = 0; client = Id.Client.of_int 0; obj = Id.Obj.of_int 1; server = s1 });
        Alcotest.(check int) "mi has s1" 1 (Id.Server.Set.cardinal (E.mi st));
        (* |Qi| = 0 = |Fi| so Gi must be empty *)
        Alcotest.(check int) "gi empty" 0 (Id.Server.Set.cardinal (E.gi st)));
  ]

(* --- fuzz sequential scenario --------------------------------------------------- *)

let fuzz_seq_tests =
  [
    test "fuzz sequential counts runs and stays clean for abd-max" (fun () ->
        let p = Params.make_exn ~k:2 ~f:1 ~n:3 in
        let o =
          Regemu_workload.Fuzz.run Regemu_baselines.Abd_max.factory p
            ~scenario:Regemu_workload.Fuzz.Sequential ~runs:10 ~seed:3 ()
        in
        Alcotest.(check int) "runs" 10 o.runs;
        Alcotest.(check int) "clean" 0
          (o.ws_safe_violations + o.ws_regular_violations + o.liveness_failures));
  ]

let suites =
  [
    ("misc:policies", policy_tests);
    ("misc:driver", driver_tests);
    ("misc:emulation-helpers", emulation_helper_tests);
    ("misc:pp", pp_tests);
    ("misc:epoch", epoch_tests);
    ("misc:fuzz-seq", fuzz_seq_tests);
  ]
