(* Tests for the algorithm-level trace invariants: the covering
   discipline that separates the correct constructions from the
   strawmen. *)

open Regemu_bounds
open Regemu_objects
open Regemu_sim
open Regemu_history
open Regemu_workload

let test name f = Alcotest.test_case name `Quick f

let trace_of factory p ~seed =
  match
    Scenario.write_sequential factory p ~read_after_each:true ~rounds:2 ~seed
      ()
  with
  | Ok r -> Sim.trace r.sim
  | Error e -> Alcotest.failf "scenario failed: %a" Scenario.error_pp e

let adversarial_trace factory p ~seed =
  match Regemu_adversary.Lowerbound.execute factory p ~seed () with
  | Ok run -> run.trace
  | Error e -> Alcotest.failf "adversarial run failed: %s" e

let expect_ok label = function
  | Ok () -> ()
  | Error v -> Alcotest.failf "%s: %a" label Invariants.violation_pp v

let unit_tests =
  [
    test "hand-built double pending write is caught" (fun () ->
        let sim = Sim.create ~n:1 () in
        let b = Sim.alloc sim ~server:(Id.Server.of_int 0) Base_object.Register in
        let c = Sim.new_client sim in
        ignore
          (Sim.trigger sim ~client:c b (Base_object.Write (Value.Int 1))
             ~on_response:ignore);
        ignore
          (Sim.trigger sim ~client:c b (Base_object.Write (Value.Int 2))
             ~on_response:ignore);
        match
          Invariants.single_pending_write_per_writer_register (Sim.trace sim)
        with
        | Error v ->
            Alcotest.(check int) "client" 0 (Id.Client.to_int v.client)
        | Ok () -> Alcotest.fail "expected violation");
    test "distinct clients writing the same register are fine" (fun () ->
        let sim = Sim.create ~n:1 () in
        let b = Sim.alloc sim ~server:(Id.Server.of_int 0) Base_object.Register in
        let c1 = Sim.new_client sim and c2 = Sim.new_client sim in
        ignore
          (Sim.trigger sim ~client:c1 b (Base_object.Write (Value.Int 1))
             ~on_response:ignore);
        ignore
          (Sim.trigger sim ~client:c2 b (Base_object.Write (Value.Int 2))
             ~on_response:ignore);
        expect_ok "two clients"
          (Invariants.single_pending_write_per_writer_register (Sim.trace sim)));
    test "pending-at-return counts only low-level writes" (fun () ->
        let sim = Sim.create ~n:1 () in
        let b = Sim.alloc sim ~server:(Id.Server.of_int 0) Base_object.Register in
        let c = Sim.new_client sim in
        let call =
          Sim.invoke sim ~client:c (Trace.H_write (Value.Int 1)) (fun () ->
              ignore
                (Sim.trigger sim ~client:c b Base_object.Read
                   ~on_response:ignore);
              Value.Unit)
        in
        ignore call;
        (* a pending READ does not count against the f budget *)
        expect_ok "reads ignored"
          (Invariants.max_pending_writes_at_return (Sim.trace sim) ~f:0));
  ]

let discipline_tests =
  [
    test "algorithm2 never double-pends a register (fair runs)" (fun () ->
        List.iter
          (fun (p, seed) ->
            expect_ok "alg2"
              (Invariants.single_pending_write_per_writer_register
                 (trace_of Regemu_core.Algorithm2.factory p ~seed)))
          [
            (Params.make_exn ~k:2 ~f:1 ~n:4, 3);
            (Params.make_exn ~k:5 ~f:2 ~n:6, 11);
          ]);
    test "algorithm2 never double-pends a register (adversarial runs)"
      (fun () ->
        let p = Params.make_exn ~k:4 ~f:2 ~n:6 in
        expect_ok "alg2-adv"
          (Invariants.single_pending_write_per_writer_register
             (adversarial_trace Regemu_core.Algorithm2.factory p ~seed:9)));
    test "algorithm2 returns writes with at most f pending (Observation 3)"
      (fun () ->
        let p = Params.make_exn ~k:3 ~f:2 ~n:8 in
        expect_ok "alg2-obs3"
          (Invariants.max_pending_writes_at_return
             (adversarial_trace Regemu_core.Algorithm2.factory p ~seed:5)
             ~f:p.Params.f));
    test "layered construction honours both invariants" (fun () ->
        let p = Params.make_exn ~k:3 ~f:1 ~n:3 in
        let tr = adversarial_trace Regemu_baselines.Layered.factory p ~seed:2 in
        expect_ok "layered-single"
          (Invariants.single_pending_write_per_writer_register tr);
        expect_ok "layered-obs3"
          (Invariants.max_pending_writes_at_return tr ~f:p.Params.f));
    test "the naive algorithm violates the covering discipline" (fun () ->
        (* under the adversary, the naive writer re-triggers on registers
           whose previous writes never responded *)
        let p = Params.make_exn ~k:2 ~f:1 ~n:3 in
        match Regemu_adversary.Violation.against_naive ~f:1 with
        | Error e -> Alcotest.failf "construction failed: %s" e
        | Ok _ -> (
            (* rebuild the same schedule and audit the trace: W2 triggers
               on registers still covered by W1?  W1 and W2 are different
               clients, so the per-writer invariant holds; what naive
               violates is Observation 3 — after enough rounds a single
               writer accumulates pending writes *)
            let sim = Sim.create ~n:p.Params.n () in
            let writers = List.init p.Params.k (fun _ -> Sim.new_client sim) in
            let inst = Regemu_baselines.Naive_reg.factory.make sim p ~writers in
            (* block one register's responses forever; have the same
               writer write twice: its second write re-triggers on the
               covered register *)
            let blocked = List.hd (inst.objects ()) in
            let policy =
              Policy.filtered ~name:"block-b0"
                ~keep:(fun sim' ev ->
                  match ev with
                  | Sim.Respond lid -> (
                      match
                        List.find_opt
                          (fun (pd : Sim.pending_info) ->
                            Id.Lop.equal pd.lid lid)
                          (Sim.pending sim')
                      with
                      | Some pd ->
                          not
                            (Id.Obj.equal pd.obj blocked
                            && Regemu_adversary.Script.is_read_op pd.op
                               = false)
                      | None -> false)
                  | Sim.Step _ -> true)
                Policy.responds_first
            in
            let w = List.hd writers in
            ignore
              (Driver.finish_call_exn sim policy ~budget:50_000
                 (inst.write w (Value.Str "a")));
            ignore
              (Driver.finish_call_exn sim policy ~budget:50_000
                 (inst.write w (Value.Str "b")));
            match
              Invariants.single_pending_write_per_writer_register
                (Sim.trace sim)
            with
            | Error _ -> ()
            | Ok () ->
                Alcotest.fail
                  "naive should have double-pended the blocked register"));
  ]

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"algorithm2 keeps the covering discipline on random runs"
         ~count:40
         (QCheck.make QCheck.Gen.(int_range 0 1_000_000) ~print:string_of_int)
         (fun seed ->
           let p = Params.make_exn ~k:2 ~f:1 ~n:4 in
           match
             Scenario.chaos Regemu_core.Algorithm2.factory p
               ~writes_per_writer:2 ~readers:1 ~reads_per_reader:1 ~crashes:1
               ~seed ()
           with
           | Error _ -> false
           | Ok r -> (
               match
                 Invariants.single_pending_write_per_writer_register
                   (Sim.trace r.sim)
               with
               | Ok () -> true
               | Error v ->
                   QCheck.Test.fail_reportf "%a" Invariants.violation_pp v)));
  ]

(* --- the linear single-pending scan against the quadratic one --------- *)

(* The scan as first written: after every trace entry, fold the whole
   pending table for a count above one.  Kept as the reference for the
   linear check that looks only at the key a write trigger increments. *)
let reference_single_pending tr =
  let is_write = function Base_object.Write _ -> true | _ -> false in
  let pending : (int * int, int) Hashtbl.t = Hashtbl.create 32 in
  let owner_of_lop : (int, int * int) Hashtbl.t = Hashtbl.create 32 in
  let count key = Option.value ~default:0 (Hashtbl.find_opt pending key) in
  let time = ref 0 in
  let error = ref None in
  Trace.iter
    (fun entry ->
      incr time;
      if !error = None then begin
        (match entry with
        | Trace.Trigger { lid; client; obj; op } when is_write op ->
            let key = (Id.Client.to_int client, Id.Obj.to_int obj) in
            Hashtbl.replace owner_of_lop (Id.Lop.to_int lid) key;
            Hashtbl.replace pending key (count key + 1)
        | Trace.Respond { lid; op; _ } when is_write op -> (
            match Hashtbl.find_opt owner_of_lop (Id.Lop.to_int lid) with
            | Some key -> Hashtbl.replace pending key (count key - 1)
            | None -> ())
        | _ -> ());
        error :=
          Hashtbl.fold
            (fun (c, o) n acc ->
              match acc with
              | Some _ -> acc
              | None when n > 1 ->
                  Some
                    {
                      Invariants.at = !time;
                      client = Id.Client.of_int c;
                      detail =
                        Fmt.str "%d of its writes pending on %a simultaneously"
                          n Id.Obj.pp (Id.Obj.of_int o);
                    }
              | None -> None)
            pending None
      end)
    tr;
  match !error with None -> Ok () | Some v -> Error v

(* The pending-at-return scan as it was before the incremental
   monitor: per-(client, object) and per-client counts in tuple-keyed
   tables, the owner of every write looked up by its lop. *)
let reference_pending_at_return tr ~f =
  let is_write = function Base_object.Write _ -> true | _ -> false in
  let per_client : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let owner_of_lop : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let count c = Option.value ~default:0 (Hashtbl.find_opt per_client c) in
  let time = ref 0 in
  let error = ref None in
  Trace.iter
    (fun entry ->
      incr time;
      if !error = None then
        match entry with
        | Trace.Trigger { lid; client; op; _ } when is_write op ->
            let c = Id.Client.to_int client in
            Hashtbl.replace owner_of_lop (Id.Lop.to_int lid) c;
            Hashtbl.replace per_client c (count c + 1)
        | Trace.Respond { lid; op; _ } when is_write op -> (
            match Hashtbl.find_opt owner_of_lop (Id.Lop.to_int lid) with
            | Some c -> Hashtbl.replace per_client c (count c - 1)
            | None -> ())
        | Trace.Return (client, Trace.H_write _, _)
          when count (Id.Client.to_int client) > f ->
            error :=
              Some
                {
                  Invariants.at = !time;
                  client;
                  detail =
                    Fmt.str
                      "write returned with %d of its low-level writes \
                       pending (> f = %d)"
                      (count (Id.Client.to_int client))
                      f;
                }
        | _ -> ())
    tr;
  match !error with None -> Ok () | Some v -> Error v

(* [tr] copied into a fresh trace in random chunks (some empty), the
   monitor observing the copy after each *)
let monitor_in_chunks tr ~f ~seed =
  let rng = Random.State.make [| seed |] in
  let m = Invariants.Monitor.create ~f in
  let copy = Trace.create () in
  while Trace.time copy < Trace.time tr do
    let upto = min (Trace.time tr) (Trace.time copy + Random.State.int rng 8) in
    for i = Trace.time copy to upto - 1 do
      Trace.record copy (Trace.get tr i)
    done;
    Invariants.Monitor.observe m copy
  done;
  (Invariants.Monitor.single_pending m, Invariants.Monitor.pending_at_return m)

(* k=2, so the naive register does double-pend under a uniform
   schedule; Algorithm 2 never does *)
let random_trace ~use_alg2 ~seed =
  let factory =
    if use_alg2 then Regemu_core.Algorithm2.factory
    else Regemu_baselines.Naive_reg.factory
  in
  match
    Scenario.chaos factory (Params.make_exn ~k:2 ~f:1 ~n:3)
      ~writes_per_writer:3 ~readers:1 ~reads_per_reader:2 ~crashes:1 ~seed ()
  with
  | Ok r -> Sim.trace r.sim
  | Error e -> Alcotest.failf "scenario failed: %a" Scenario.error_pp e

let differential_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"linear single-pending scan = quadratic reference" ~count:300
         QCheck.(pair bool (int_range 0 1_000_000))
         (fun (use_alg2, seed) ->
           let tr = random_trace ~use_alg2 ~seed in
           (* at f=1 the naive register's returns violate on most
              seeds and Algorithm 2's never; at f=0 both violate *)
           let f = seed mod 2 in
           let want_single = reference_single_pending tr in
           let want_return = reference_pending_at_return tr ~f in
           let got_single, got_return = monitor_in_chunks tr ~f ~seed in
           let pp =
             Fmt.result ~ok:(Fmt.any "Ok") ~error:Invariants.violation_pp
           in
           let agree label got want =
             got = want
             || QCheck.Test.fail_reportf "%s: got %a, reference %a" label pp
                  got pp want
           in
           agree "single-pending scan"
             (Invariants.single_pending_write_per_writer_register tr)
             want_single
           && agree "pending-at-return scan"
                (Invariants.max_pending_writes_at_return tr ~f)
                want_return
           && agree "monitor single-pending" got_single want_single
           && agree "monitor pending-at-return" got_return want_return));
    test "the differential's naive traces do violate" (fun () ->
        let violating =
          List.filter
            (fun seed ->
              Result.is_error
                (reference_single_pending (random_trace ~use_alg2:false ~seed)))
            (List.init 20 Fun.id)
        in
        Alcotest.(check bool)
          (Fmt.str "%d of 20 naive traces violate" (List.length violating))
          true
          (List.length violating >= 5));
  ]

let suites =
  [
    ("invariants:unit", unit_tests);
    ("invariants:discipline", discipline_tests);
    ("invariants:properties", property_tests);
    ("invariants:differential", differential_tests);
  ]
