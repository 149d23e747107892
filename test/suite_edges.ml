(* Edge and error paths across the public APIs, plus focused unit tests
   for Algorithm 2's covering-discipline quorum write. *)

open Regemu_bounds
open Regemu_objects
open Regemu_sim
open Regemu_core

let test name f = Alcotest.test_case name `Quick f
let s0 = Id.Server.of_int 0

let raises f =
  try
    f ();
    false
  with Invalid_argument _ -> true

(* --- simulator error paths ------------------------------------------------ *)

let sim_edge_tests =
  [
    test "fire of a non-enabled step raises" (fun () ->
        let sim = Sim.create ~n:1 () in
        let c = Sim.new_client sim in
        Alcotest.(check bool)
          "raises" true
          (raises (fun () -> Sim.fire sim (Sim.Step c))));
    test "fire of an unknown response raises" (fun () ->
        let sim = Sim.create ~n:1 () in
        Alcotest.(check bool)
          "raises" true
          (raises (fun () -> Sim.fire sim (Sim.Respond (Id.Lop.of_int 7)))));
    test "respond on a crashed server raises even if forced" (fun () ->
        let sim = Sim.create ~n:1 () in
        let b = Sim.alloc sim ~server:s0 Base_object.Register in
        let c = Sim.new_client sim in
        let l =
          Sim.trigger sim ~client:c b (Base_object.Write (Value.Int 1))
            ~on_response:ignore
        in
        Sim.crash_server sim s0;
        Alcotest.(check bool)
          "raises" true
          (raises (fun () -> Sim.fire sim (Sim.Respond l))));
    test "trigger by a crashed client raises" (fun () ->
        let sim = Sim.create ~n:1 () in
        let b = Sim.alloc sim ~server:s0 Base_object.Register in
        let c = Sim.new_client sim in
        Sim.crash_client sim c;
        Alcotest.(check bool)
          "raises" true
          (raises (fun () ->
               ignore
                 (Sim.trigger sim ~client:c b Base_object.Read
                    ~on_response:ignore))));
    test "invoke on a crashed client raises" (fun () ->
        let sim = Sim.create ~n:1 () in
        let c = Sim.new_client sim in
        Sim.crash_client sim c;
        Alcotest.(check bool)
          "raises" true
          (raises (fun () ->
               ignore (Sim.invoke sim ~client:c Trace.H_read (fun () -> Value.Unit)))));
    test "peek/kind_of on unknown objects raise" (fun () ->
        let sim = Sim.create ~n:1 () in
        Alcotest.(check bool)
          "peek" true
          (raises (fun () -> ignore (Sim.peek sim (Id.Obj.of_int 3))));
        Alcotest.(check bool)
          "kind" true
          (raises (fun () -> ignore (Sim.kind_of sim (Id.Obj.of_int 3)))));
    test "Trace.get out of bounds raises" (fun () ->
        let tr = Trace.create () in
        Alcotest.(check bool)
          "raises" true
          (raises (fun () -> ignore (Trace.get tr 0))));
    test "create with zero servers raises" (fun () ->
        Alcotest.(check bool)
          "raises" true
          (raises (fun () -> ignore (Sim.create ~n:0 ()))));
    test "Rng.pick on empty list raises" (fun () ->
        Alcotest.(check bool)
          "raises" true
          (raises (fun () -> ignore (Rng.pick (Rng.create 1) ([] : int list)))));
    test "Rng.int with non-positive bound raises" (fun () ->
        Alcotest.(check bool)
          "raises" true
          (raises (fun () -> ignore (Rng.int (Rng.create 1) ~bound:0))));
  ]

(* --- quorum write (Algorithm 2's covering discipline, on Sim) -------------- *)

(* k=1, f=1, n=3: one set of three registers, one per server, and a
   write quorum of |R| - f = 2 *)
let qw_setup () =
  let sim = Sim.create ~n:3 () in
  let c = Sim.new_client sim in
  let inst =
    Algorithm2.factory.make sim (Params.make_exn ~k:1 ~f:1 ~n:3) ~writers:[ c ]
  in
  (sim, inst, Array.of_list (inst.objects ()), c)

let step_fiber sim =
  match List.find_opt (function Sim.Step _ -> true | _ -> false) (Sim.enabled sim) with
  | Some ev -> Sim.fire sim ev
  | None -> Alcotest.fail "fiber not runnable"

(* start a write and finish its collect: respond every pending read,
   then step the fiber into the quorum write *)
let write_call sim (inst : Emulation.instance) c v =
  let call = inst.write c v in
  List.iter
    (fun (p : Sim.pending_info) ->
      if p.op = Base_object.Read then Sim.fire sim (Sim.Respond p.lid))
    (Sim.pending sim);
  step_fiber sim;
  call

let respond_on sim target =
  match
    List.find_opt
      (fun (p : Sim.pending_info) -> Id.Obj.equal p.obj target)
      (Sim.pending sim)
  with
  | Some p -> Sim.fire sim (Sim.Respond p.lid)
  | None -> Alcotest.failf "no pending on %a" Id.Obj.pp target

let quorum_write_tests =
  [
    test "first write triggers on every register" (fun () ->
        let sim, inst, _, c = qw_setup () in
        ignore (write_call sim inst c (Value.Int 1));
        Alcotest.(check int) "three pending" 3 (List.length (Sim.pending sim)));
    test "returns after exactly quorum responses" (fun () ->
        let sim, inst, regs, c = qw_setup () in
        let call = write_call sim inst c (Value.Int 1) in
        respond_on sim regs.(0);
        Alcotest.(check bool) "not yet" false (Sim.call_returned call);
        respond_on sim regs.(1);
        (* predicate now true: step the fiber *)
        step_fiber sim;
        Alcotest.(check bool) "returned" true (Sim.call_returned call));
    test "second write skips covered registers and re-triggers on their \
          response" (fun () ->
        let sim, inst, regs, c = qw_setup () in
        let call1 = write_call sim inst c (Value.Int 1) in
        (* respond on regs 0 and 1 only; reg 2 stays covered *)
        respond_on sim regs.(0);
        respond_on sim regs.(1);
        step_fiber sim;
        Alcotest.(check bool) "call1 done" true (Sim.call_returned call1);
        Alcotest.(check int) "reg2 covered" 1 (List.length (Sim.pending sim));
        (* write a new value: regs 0 and 1 get fresh triggers; reg 2
           must NOT *)
        ignore (write_call sim inst c (Value.Int 2));
        let pend_on r = List.length (Sim.pending_on sim r) in
        Alcotest.(check int) "reg0" 1 (pend_on regs.(0));
        Alcotest.(check int) "reg1" 1 (pend_on regs.(1));
        Alcotest.(check int) "reg2 still single" 1 (pend_on regs.(2));
        (* when reg2's old write finally responds, the current value is
           re-triggered immediately *)
        respond_on sim regs.(2);
        Alcotest.(check int) "reg2 re-triggered" 1 (pend_on regs.(2));
        match List.hd (Sim.pending_on sim regs.(2)) with
        | { op = Base_object.Write v; _ } ->
            Alcotest.(check bool)
              "carries the current value" true
              (Value.equal (Value.payload v) (Value.Int 2))
        | _ -> Alcotest.fail "expected a write");
    test "a read returns the latest written value" (fun () ->
        let sim, inst, _, c = qw_setup () in
        ignore
          (Driver.finish_call_exn sim Policy.responds_first ~budget:50
             (inst.write c (Value.Int 7)));
        let v =
          Driver.finish_call_exn sim Policy.responds_first ~budget:50
            (inst.read (Sim.new_client sim))
        in
        Alcotest.(check bool) "7" true (Value.equal v (Value.Int 7)));
  ]

(* --- the Sim runtime of the client protocols ---------------------------------- *)

let sim_runtime_tests =
  let open Regemu_netsim in
  [
    test "a request no base object serves raises" (fun () ->
        let sim = Sim.create ~n:3 () in
        let rt = Quorum_client.Sim_runtime.create sim ~max_registers:3 in
        Alcotest.(check bool)
          "raises" true
          (raises (fun () ->
               Quorum_client.Sim_runtime.rpc rt ~src:(Sim.new_client sim) 0
                 ~make:(fun rid -> Proto.Cquery { rid })
                 ~handler:ignore)));
    test "a Query or Update on a non-zero key raises" (fun () ->
        let sim = Sim.create ~n:3 () in
        let rt = Quorum_client.Sim_runtime.create sim ~max_registers:3 in
        let rpc make =
          raises (fun () ->
              Quorum_client.Sim_runtime.rpc rt ~src:(Sim.new_client sim) 0
                ~make ~handler:ignore)
        in
        Alcotest.(check bool)
          "Query raises" true
          (rpc (fun rid -> Proto.Query { rid; key = 7 }));
        Alcotest.(check bool)
          "Update raises" true
          (rpc (fun rid ->
               Proto.Update { rid; key = 7; proposed = Value.Int 1 })));
  ]

(* --- formulas edge cases ----------------------------------------------------- *)

let formula_edge_tests =
  [
    test "ceil_div rejects non-positive divisor" (fun () ->
        Alcotest.(check bool)
          "raises" true
          (raises (fun () -> ignore (Formulas.ceil_div 1 0))));
    test "min_servers rejects non-positive capacity" (fun () ->
        Alcotest.(check bool)
          "raises" true
          (raises (fun () -> ignore (Formulas.min_servers ~k:1 ~f:1 ~capacity:0))));
    test "huge parameters stay exact (no overflow in practice range)"
      (fun () ->
        let p = Params.make_exn ~k:1000 ~f:10 ~n:10_000 in
        Alcotest.(check bool)
          "sane" true
          (Formulas.register_lower_bound p > 1000 * 10
          && Formulas.register_upper_bound p >= Formulas.register_lower_bound p));
    test "k=1 boundary: exactly one set" (fun () ->
        let p = Params.make_exn ~k:1 ~f:3 ~n:7 in
        Alcotest.(check int) "sets" 1 (Formulas.num_sets p);
        Alcotest.(check (list int)) "sizes" [ 7 ] (Formulas.set_sizes p));
  ]

let suites =
  [
    ("edges:sim", sim_edge_tests);
    ("edges:quorum-write", quorum_write_tests);
    ("edges:sim-runtime", sim_runtime_tests);
    ("edges:formulas", formula_edge_tests);
  ]
