(* Tests for the fault-prone shared-memory simulator. *)

open Regemu_objects
open Regemu_sim

let test name f = Alcotest.test_case name `Quick f
let value_t = Alcotest.testable Value.pp Value.equal
let s0 = Id.Server.of_int 0
let s1 = Id.Server.of_int 1

let make_sim ?(n = 3) () = Sim.create ~n ()

(* --- allocation and mapping ---------------------------------------- *)

let alloc_tests =
  [
    test "objects get fresh ids and the right server" (fun () ->
        let sim = make_sim () in
        let a = Sim.alloc sim ~server:s0 Base_object.Register in
        let b = Sim.alloc sim ~server:s1 Base_object.Cas in
        Alcotest.(check bool) "distinct" false (Id.Obj.equal a b);
        Alcotest.(check int) "delta a" 0 (Id.Server.to_int (Sim.delta sim a));
        Alcotest.(check int) "delta b" 1 (Id.Server.to_int (Sim.delta sim b)));
    test "objects_on filters by server" (fun () ->
        let sim = make_sim () in
        let a = Sim.alloc sim ~server:s0 Base_object.Register in
        let _b = Sim.alloc sim ~server:s1 Base_object.Register in
        let c = Sim.alloc sim ~server:s0 Base_object.Max_register in
        Alcotest.(check (list int))
          "on s0"
          [ Id.Obj.to_int a; Id.Obj.to_int c ]
          (List.map Id.Obj.to_int (Sim.objects_on sim s0)));
    test "initial state is v0" (fun () ->
        let sim = make_sim () in
        let a = Sim.alloc sim ~server:s0 Base_object.Register in
        Alcotest.check value_t "v0" Value.v0 (Sim.peek sim a));
    test "unknown server rejected" (fun () ->
        let sim = make_sim () in
        Alcotest.(check bool)
          "raises" true
          (try
             ignore (Sim.alloc sim ~server:(Id.Server.of_int 9) Base_object.Cas);
             false
           with Invalid_argument _ -> true));
  ]

(* --- trigger / respond --------------------------------------------- *)

let trigger_tests =
  [
    test "trigger is pending until respond fires" (fun () ->
        let sim = make_sim () in
        let b = Sim.alloc sim ~server:s0 Base_object.Register in
        let c = Sim.new_client sim in
        let got = ref None in
        let lid =
          Sim.trigger sim ~client:c b (Base_object.Write (Value.Int 7))
            ~on_response:(fun v -> got := Some v)
        in
        Alcotest.(check int) "one pending" 1 (List.length (Sim.pending sim));
        Alcotest.check value_t "state unchanged" Value.v0 (Sim.peek sim b);
        Sim.fire sim (Sim.Respond lid);
        Alcotest.(check int) "no pending" 0 (List.length (Sim.pending sim));
        Alcotest.check value_t "state applied" (Value.Int 7) (Sim.peek sim b);
        Alcotest.check (Alcotest.option value_t) "ack" (Some Value.Unit) !got);
    test "writes linearize at respond, in respond order" (fun () ->
        (* Assumption 1: two pending writes; the later-responding one wins *)
        let sim = make_sim () in
        let b = Sim.alloc sim ~server:s0 Base_object.Register in
        let c = Sim.new_client sim in
        let l1 =
          Sim.trigger sim ~client:c b (Base_object.Write (Value.Int 1))
            ~on_response:ignore
        in
        let l2 =
          Sim.trigger sim ~client:c b (Base_object.Write (Value.Int 2))
            ~on_response:ignore
        in
        Sim.fire sim (Sim.Respond l2);
        Sim.fire sim (Sim.Respond l1);
        (* the old write took effect last and erased the newer value —
           the phenomenon the lower bound exploits *)
        Alcotest.check value_t "old write erased new" (Value.Int 1)
          (Sim.peek sim b));
    test "used_objects counts triggered objects once" (fun () ->
        let sim = make_sim () in
        let a = Sim.alloc sim ~server:s0 Base_object.Register in
        let _b = Sim.alloc sim ~server:s1 Base_object.Register in
        let c = Sim.new_client sim in
        ignore
          (Sim.trigger sim ~client:c a Base_object.Read ~on_response:ignore);
        ignore
          (Sim.trigger sim ~client:c a Base_object.Read ~on_response:ignore);
        Alcotest.(check int)
          "one used" 1
          (Id.Obj.Set.cardinal (Sim.used_objects sim)));
    test "covered_objects tracks pending mutators only" (fun () ->
        let sim = make_sim () in
        let a = Sim.alloc sim ~server:s0 Base_object.Register in
        let b = Sim.alloc sim ~server:s1 Base_object.Register in
        let c = Sim.new_client sim in
        ignore
          (Sim.trigger sim ~client:c a Base_object.Read ~on_response:ignore);
        let lw =
          Sim.trigger sim ~client:c b (Base_object.Write (Value.Int 1))
            ~on_response:ignore
        in
        Alcotest.(check int)
          "only the write covers" 1
          (Id.Obj.Set.cardinal (Sim.covered_objects sim));
        Sim.fire sim (Sim.Respond lw);
        Alcotest.(check int)
          "uncovered after respond" 0
          (Id.Obj.Set.cardinal (Sim.covered_objects sim)));
    test "kind mismatch rejected at trigger" (fun () ->
        let sim = make_sim () in
        let a = Sim.alloc sim ~server:s0 Base_object.Cas in
        let c = Sim.new_client sim in
        Alcotest.(check bool)
          "raises" true
          (try
             ignore
               (Sim.trigger sim ~client:c a Base_object.Read
                  ~on_response:ignore);
             false
           with Invalid_argument _ -> true));
    test "response callback may re-trigger" (fun () ->
        let sim = make_sim () in
        let a = Sim.alloc sim ~server:s0 Base_object.Register in
        let c = Sim.new_client sim in
        ignore
          (Sim.trigger sim ~client:c a (Base_object.Write (Value.Int 1))
             ~on_response:(fun _ ->
               ignore
                 (Sim.trigger sim ~client:c a (Base_object.Write (Value.Int 2))
                    ~on_response:ignore)));
        let policy = Policy.responds_first in
        let _ = Driver.quiesce sim policy ~budget:10 in
        Alcotest.check value_t "second write applied" (Value.Int 2)
          (Sim.peek sim a));
    test "pending and enabled responds stay in trigger order" (fun () ->
        (* the explorers pick events by index into [enabled], so every
           committed replay depends on this order *)
        let sim = make_sim () in
        let b0 = Sim.alloc sim ~server:s0 Base_object.Register in
        let b1 = Sim.alloc sim ~server:s1 Base_object.Register in
        let c = Sim.new_client sim in
        let stepper = Sim.new_client sim in
        ignore
          (Sim.invoke sim ~client:stepper Trace.H_read (fun () ->
               Sim.wait_until (fun () -> true);
               Value.v0));
        let trig o =
          Sim.trigger sim ~client:c o (Base_object.Write (Value.Int 1))
            ~on_response:ignore
        in
        (* lids 0..5 alternate b0, b1 *)
        let l = Array.init 6 (fun i -> trig (if i mod 2 = 0 then b0 else b1)) in
        let ints = List.map Id.Lop.to_int in
        let pending () =
          ints (List.map (fun (p : Sim.pending_info) -> p.lid) (Sim.pending sim))
        in
        let responds () =
          List.filter_map
            (function Sim.Respond x -> Some (Id.Lop.to_int x) | Sim.Step _ -> None)
            (Sim.enabled sim)
        in
        let check label want_pending want_responds =
          Alcotest.(check (list int)) (label ^ ": pending") want_pending
            (pending ());
          Alcotest.(check (list int)) (label ^ ": enabled responds")
            want_responds (responds ());
          match Sim.enabled sim with
          | Sim.Step s :: _ when Id.Client.equal s stepper -> ()
          | _ -> Alcotest.failf "%s: the step does not come first" label
        in
        check "triggered" [ 0; 1; 2; 3; 4; 5 ] [ 0; 1; 2; 3; 4; 5 ];
        Sim.fire sim (Sim.Respond l.(3));
        Sim.fire sim (Sim.Respond l.(0));
        check "out of order" [ 1; 2; 4; 5 ] [ 1; 2; 4; 5 ];
        let l6 = trig b0 in
        Alcotest.(check int) "lids keep increasing" 6 (Id.Lop.to_int l6);
        Sim.crash_server sim s1;
        check "s1 crashed" [ 1; 2; 4; 5; 6 ] [ 2; 4; 6 ];
        Sim.fire sim (Sim.Respond l.(4));
        check "after crash" [ 1; 2; 5; 6 ] [ 2; 6 ];
        (* lids below, between, just past and above the pending ones *)
        List.iter
          (fun x ->
            match Sim.fire sim (Sim.Respond (Id.Lop.of_int x)) with
            | () -> Alcotest.failf "respond(%d) fired but is not pending" x
            | exception Invalid_argument _ -> ())
          [ 0; 3; 4; 7; -1 ];
        check "unchanged by the refused responds" [ 1; 2; 5; 6 ] [ 2; 6 ];
        Alcotest.(check (list int))
          "pending_on b1 keeps the crashed server's lops in order" [ 1; 5 ]
          (ints
             (List.map
                (fun (p : Sim.pending_info) -> p.lid)
                (Sim.pending_on sim b1))));
  ]

(* --- crashes -------------------------------------------------------- *)

let crash_tests =
  [
    test "pending ops on a crashed server never respond" (fun () ->
        let sim = make_sim () in
        let a = Sim.alloc sim ~server:s0 Base_object.Register in
        let c = Sim.new_client sim in
        ignore
          (Sim.trigger sim ~client:c a (Base_object.Write (Value.Int 1))
             ~on_response:ignore);
        Sim.crash_server sim s0;
        Alcotest.(check (list bool)) "nothing enabled" []
          (List.map (fun _ -> true) (Sim.enabled sim));
        (* the op is still pending: it covers the register forever *)
        Alcotest.(check int) "still pending" 1 (List.length (Sim.pending sim)));
    test "crashed client's pending write still takes effect" (fun () ->
        let sim = make_sim () in
        let a = Sim.alloc sim ~server:s0 Base_object.Register in
        let c = Sim.new_client sim in
        let called = ref false in
        let l =
          Sim.trigger sim ~client:c a (Base_object.Write (Value.Int 1))
            ~on_response:(fun _ -> called := true)
        in
        Sim.crash_client sim c;
        Sim.fire sim (Sim.Respond l);
        Alcotest.check value_t "applied" (Value.Int 1) (Sim.peek sim a);
        Alcotest.(check bool) "handler skipped" false !called);
    test "crash is recorded once" (fun () ->
        let sim = make_sim () in
        Sim.crash_server sim s0;
        Sim.crash_server sim s0;
        let crashes =
          List.filter
            (function Trace.Server_crash _ -> true | _ -> false)
            (Trace.to_list (Sim.trace sim))
        in
        Alcotest.(check int) "one entry" 1 (List.length crashes));
    test "crashed_servers set" (fun () ->
        let sim = make_sim () in
        Sim.crash_server sim s1;
        Alcotest.(check (list int))
          "s1" [ 1 ]
          (List.map Id.Server.to_int
             (Id.Server.Set.elements (Sim.crashed_servers sim))));
  ]

(* --- fibers and high-level calls ------------------------------------ *)

let fiber_tests =
  [
    test "invoke runs the fiber to its first wait" (fun () ->
        let sim = make_sim () in
        let b = Sim.alloc sim ~server:s0 Base_object.Register in
        let c = Sim.new_client sim in
        let call =
          Sim.invoke sim ~client:c (Trace.H_write (Value.Int 5)) (fun () ->
              let done_ = ref false in
              ignore
                (Sim.trigger sim ~client:c b (Base_object.Write (Value.Int 5))
                   ~on_response:(fun _ -> done_ := true));
              Sim.wait_until (fun () -> !done_);
              Value.Unit)
        in
        Alcotest.(check bool) "not returned yet" false (Sim.call_returned call);
        Alcotest.(check bool) "busy" true (Sim.client_busy sim c);
        let v = Driver.finish_call_exn sim Policy.responds_first ~budget:10 call in
        Alcotest.check value_t "ack" Value.Unit v;
        Alcotest.(check bool) "idle again" false (Sim.client_busy sim c));
    test "fiber with no waits returns immediately" (fun () ->
        let sim = make_sim () in
        let c = Sim.new_client sim in
        let call =
          Sim.invoke sim ~client:c Trace.H_read (fun () -> Value.Int 1)
        in
        Alcotest.(check bool) "returned" true (Sim.call_returned call));
    test "double invoke on busy client rejected" (fun () ->
        let sim = make_sim () in
        let c = Sim.new_client sim in
        let _call =
          Sim.invoke sim ~client:c Trace.H_read (fun () ->
              Sim.wait_until (fun () -> false);
              Value.Unit)
        in
        Alcotest.(check bool)
          "raises" true
          (try
             ignore (Sim.invoke sim ~client:c Trace.H_read (fun () -> Value.Unit));
             false
           with Invalid_argument _ -> true));
    test "two clients interleave under uniform policy" (fun () ->
        let sim = make_sim () in
        let b = Sim.alloc sim ~server:s0 Base_object.Register in
        let mk c v =
          Sim.invoke sim ~client:c (Trace.H_write (Value.Int v)) (fun () ->
              let done_ = ref false in
              ignore
                (Sim.trigger sim ~client:c b (Base_object.Write (Value.Int v))
                   ~on_response:(fun _ -> done_ := true));
              Sim.wait_until (fun () -> !done_);
              Value.Unit)
        in
        let c1 = Sim.new_client sim and c2 = Sim.new_client sim in
        let call1 = mk c1 1 and call2 = mk c2 2 in
        let policy = Policy.uniform (Rng.create 42) in
        let o =
          Driver.run_until sim policy ~budget:100 (fun () ->
              Sim.call_returned call1 && Sim.call_returned call2)
        in
        Alcotest.(check bool)
          "both returned" true
          (Driver.outcome_equal o Driver.Satisfied));
    test "waiting on a response from a crashed server gets stuck" (fun () ->
        let sim = make_sim () in
        let b = Sim.alloc sim ~server:s0 Base_object.Register in
        let c = Sim.new_client sim in
        let call =
          Sim.invoke sim ~client:c Trace.H_read (fun () ->
              let got = ref None in
              ignore
                (Sim.trigger sim ~client:c b Base_object.Read
                   ~on_response:(fun v -> got := Some v));
              Sim.wait_until (fun () -> !got <> None);
              Option.get !got)
        in
        Sim.crash_server sim s0;
        (match Driver.finish_call sim Policy.responds_first ~budget:100 call with
        | Error Driver.Stuck -> ()
        | _ -> Alcotest.fail "expected Stuck"));
  ]

(* --- trace / history ------------------------------------------------ *)

let trace_tests =
  [
    test "trace records invoke/trigger/respond/return in order" (fun () ->
        let sim = make_sim () in
        let b = Sim.alloc sim ~server:s0 Base_object.Register in
        let c = Sim.new_client sim in
        let call =
          Sim.invoke sim ~client:c (Trace.H_write (Value.Int 3)) (fun () ->
              let done_ = ref false in
              ignore
                (Sim.trigger sim ~client:c b (Base_object.Write (Value.Int 3))
                   ~on_response:(fun _ -> done_ := true));
              Sim.wait_until (fun () -> !done_);
              Value.Unit)
        in
        ignore (Driver.finish_call_exn sim Policy.responds_first ~budget:10 call);
        let kinds =
          List.map
            (function
              | Trace.Invoke _ -> "invoke"
              | Trace.Trigger _ -> "trigger"
              | Trace.Respond _ -> "respond"
              | Trace.Return _ -> "return"
              | Trace.Server_crash _ -> "scrash"
              | Trace.Client_crash _ -> "ccrash")
            (Trace.to_list (Sim.trace sim))
        in
        Alcotest.(check (list string))
          "order"
          [ "invoke"; "trigger"; "respond"; "return" ]
          kinds);
    test "Trace.since slices" (fun () ->
        let tr = Trace.create () in
        Trace.record tr (Trace.Server_crash s0);
        Trace.record tr (Trace.Server_crash s1);
        Alcotest.(check int) "from 1" 1 (List.length (Trace.since tr 1));
        Alcotest.(check int) "from 0" 2 (List.length (Trace.since tr 0));
        Alcotest.(check int) "beyond" 0 (List.length (Trace.since tr 5)));
  ]

(* --- rng ------------------------------------------------------------ *)

let rng_tests =
  [
    test "deterministic from seed" (fun () ->
        let a = Rng.create 7 and b = Rng.create 7 in
        let xs = List.init 20 (fun _ -> Rng.int a ~bound:1000) in
        let ys = List.init 20 (fun _ -> Rng.int b ~bound:1000) in
        Alcotest.(check (list int)) "same stream" xs ys);
    test "different seeds differ" (fun () ->
        let a = Rng.create 7 and b = Rng.create 8 in
        let xs = List.init 20 (fun _ -> Rng.int a ~bound:1000000) in
        let ys = List.init 20 (fun _ -> Rng.int b ~bound:1000000) in
        Alcotest.(check bool) "differ" false (xs = ys));
    test "bounds respected" (fun () ->
        let r = Rng.create 1 in
        for _ = 1 to 1000 do
          let x = Rng.int r ~bound:7 in
          if x < 0 || x >= 7 then Alcotest.fail "out of bounds"
        done);
    test "shuffle is a permutation" (fun () ->
        let r = Rng.create 3 in
        let xs = List.init 30 Fun.id in
        let ys = Rng.shuffle r xs in
        Alcotest.(check (list int)) "sorted equal" xs (List.sort compare ys));
  ]

let suites =
  [
    ("sim:alloc", alloc_tests);
    ("sim:trigger", trigger_tests);
    ("sim:crash", crash_tests);
    ("sim:fibers", fiber_tests);
    ("sim:trace", trace_tests);
    ("sim:rng", rng_tests);
  ]
