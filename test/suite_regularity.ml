(* Tests for the generalized (per-read) regularity checker and the
   atomic ABD variant with reader write-back. *)

open Regemu_bounds
open Regemu_objects
open Regemu_sim
open Regemu_history
open Regemu_workload

let test name f = Alcotest.test_case name `Quick f
let params k f n = Params.make_exn ~k ~f ~n

(* hand-built ops, as in suite_history *)
let op ?result ~index ~client ~hop ~inv ?ret () =
  {
    History.index;
    client = Id.Client.of_int client;
    hop;
    invoked_at = inv;
    returned_at = ret;
    result;
  }

let w ?ret ~index ~client ~inv value =
  op ~index ~client ~hop:(Trace.H_write (Value.Str value)) ~inv ?ret
    ?result:(if ret = None then None else Some Value.Unit) ()

let r ~index ~client ~inv ~ret value =
  op ~index ~client ~hop:Trace.H_read ~inv ~ret ~result:(Value.Str value) ()

let checker_tests =
  [
    test "weak regularity allows per-read disagreement on concurrent writes"
      (fun () ->
        (* two concurrent writes; two concurrent reads disagree on their
           order: weakly regular but NOT atomic *)
        let h =
          [
            w ~index:0 ~client:0 ~inv:1 ~ret:10 "a";
            w ~index:1 ~client:1 ~inv:2 ~ret:11 "b";
            r ~index:2 ~client:2 ~inv:3 ~ret:4 "a";
            r ~index:3 ~client:3 ~inv:5 ~ret:6 "b";
            r ~index:4 ~client:2 ~inv:7 ~ret:8 "a";
          ]
        in
        Alcotest.(check bool) "weak regular" true (Regularity.is_weak_regular h);
        Alcotest.(check bool) "not atomic" false (Regularity.is_atomic h));
    test "weak regularity still forbids stale reads" (fun () ->
        let h =
          [
            w ~index:0 ~client:0 ~inv:1 ~ret:2 "a";
            w ~index:1 ~client:1 ~inv:3 ~ret:4 "b";
            r ~index:2 ~client:2 ~inv:5 ~ret:6 "a";
          ]
        in
        match Regularity.check_weak_regular h with
        | Regularity.Violated rd ->
            Alcotest.(check int) "the read" 2 rd.History.index
        | Regularity.Holds -> Alcotest.fail "expected violation");
    test "atomicity implies weak regularity (spot check)" (fun () ->
        let h =
          [
            w ~index:0 ~client:0 ~inv:1 ~ret:2 "a";
            r ~index:1 ~client:2 ~inv:3 ~ret:4 "a";
          ]
        in
        Alcotest.(check bool) "atomic" true (Regularity.is_atomic h);
        Alcotest.(check bool) "weak regular" true (Regularity.is_weak_regular h));
  ]

(* Random one-register histories: writes that mostly follow each other
   but sometimes overlap (ticks may tie), the last one sometimes still
   in flight, and a few reads returning a written value or v0. *)
let gen_ws_history =
  QCheck.Gen.(
    let* num_writes = int_range 0 4 in
    (* per write: ticks from the previous write's return to this
       invocation (<= 0 overlaps it), then to this return *)
    let* shapes =
      list_repeat num_writes (pair (int_range (-1) 6) (int_range 1 2))
    in
    let* last_in_flight = map (( = ) 0) (int_range 0 3) in
    let* num_reads = int_range 1 3 in
    let horizon = (6 * num_writes) + 4 in
    let* reads =
      list_repeat num_reads
        (triple (int_range 0 horizon) (int_range 1 3)
           (int_range (-1) (num_writes - 1)))
    in
    let writes, _ =
      List.fold_left
        (fun (acc, prev_ret) (gap, len) ->
          let i = List.length acc in
          let inv = Stdlib.max 1 (prev_ret + gap) in
          let ret =
            if last_in_flight && i = num_writes - 1 then None
            else Some (inv + len)
          in
          (w ?ret ~index:i ~client:i ~inv (Fmt.str "v%d" i) :: acc, inv + len))
        ([], 0) shapes
    in
    let reads =
      List.mapi
        (fun j (inv, len, v_ix) ->
          op ~index:(num_writes + j) ~client:(99 + j) ~hop:Trace.H_read ~inv
            ~ret:(inv + len)
            ~result:
              (if v_ix < 0 then Value.v0 else Value.Str (Fmt.str "v%d" v_ix))
            ())
        reads
    in
    return (List.rev writes @ reads))

let arb_ws_history =
  QCheck.make gen_ws_history ~print:(fun h -> Fmt.str "%a" History.pp h)

(* the verdict the incremental rule gives [rd] right now *)
let kernel_verdict wo ~in_flight (rd : History.op) =
  match (rd.result, rd.returned_at) with
  | Some got, Some ret when Write_order.total wo ~in_flight -> (
      match
        Write_order.check_read wo ~in_flight ~inv:rd.invoked_at ~ret got
      with
      | None -> Ws_check.Holds
      | Some allowed ->
          Ws_check.Violated
            { read = rd; got; allowed; reason = Ws_check.regular_reason })
  | _ -> Ws_check.Vacuous

(* Feed [h] to a Write_order as the online checkers do: completed
   writes in a shuffled arrival order (writers are polled
   independently); each read decided once every write invoked before
   it returned has arrived; settles at random frontiers that stay below
   every undecided read and every write still to arrive.  Returns each
   read's verdict and the final order. *)
let feed_kernel h ~seed =
  let rng = Random.State.make [| seed |] in
  let shuffle l =
    List.map snd
      (List.sort
         (fun (a, _) (b, _) -> Int.compare a b)
         (List.map (fun x -> (Random.State.bits rng, x)) l))
  in
  let arrival = shuffle (History.complete (History.writes h)) in
  let in_flight =
    Array.of_list
      (List.filter_map
         (fun (o : History.op) ->
           if History.is_complete o then None
           else
             Option.map (fun v -> (o.invoked_at, v)) (History.written_value o))
         (History.writes_in_order h))
  in
  let wo = Write_order.create () in
  let verdicts = ref [] in
  let decide undecided ~to_come =
    List.filter
      (fun (rd : History.op) ->
        let ready = List.for_all (History.precedes rd) to_come in
        if ready then
          verdicts := (rd, kernel_verdict wo ~in_flight rd) :: !verdicts;
        not ready)
      undecided
  in
  let rec go undecided = function
    | [] -> ignore (decide undecided ~to_come:[])
    | (o : History.op) :: to_come ->
        (match (o.returned_at, History.written_value o) with
        | Some ret, Some v -> Write_order.add wo ~inv:o.invoked_at ~ret v
        | _ -> assert false);
        let undecided = decide undecided ~to_come in
        (* every tick of these histories is below 100 *)
        let bound =
          List.fold_left
            (fun acc (o : History.op) -> Stdlib.min acc o.invoked_at)
            100 (undecided @ to_come)
        in
        if Random.State.bool rng then
          ignore
            (Write_order.settle wo
               ~frontier:
                 (if Random.State.bool rng then bound
                  else Random.State.int rng (bound + 1)));
        go undecided to_come
  in
  go (decide (History.complete (History.reads h)) ~to_come:arrival) arrival;
  (List.rev !verdicts, wo, in_flight)

let same_verdict a b =
  match (a, b) with
  | Ws_check.Violated x, Ws_check.Violated y ->
      x.read.index = y.read.index
      && Value.equal x.got y.got
      && List.equal Value.equal x.allowed y.allowed
  | _ -> Ws_check.verdict_equal a b

let agreement_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"weak regularity = WS-Regularity on write-sequential histories"
         ~count:800 arb_ws_history
         (fun h ->
           (not (History.write_sequential h))
           ||
           let weak = Regularity.is_weak_regular h in
           let ws =
             match Ws_check.check_ws_regular h with
             | Ws_check.Holds | Ws_check.Vacuous -> true
             | Ws_check.Violated _ -> false
           in
           weak = ws));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"incremental write order = Ws_check, read by read" ~count:2000
         (QCheck.pair arb_ws_history QCheck.small_nat)
         (fun (h, seed) ->
           let verdicts, wo, in_flight = feed_kernel h ~seed in
           let sequential = History.write_sequential h in
           if Write_order.total wo ~in_flight <> sequential then
             QCheck.Test.fail_reportf "total: %b, write-sequential: %b"
               (Write_order.total wo ~in_flight) sequential;
           if
             Write_order.broken wo
             <> not (History.write_sequential (History.complete h))
           then QCheck.Test.fail_report "broken flag";
           List.length verdicts = List.length (History.complete (History.reads h))
           && List.for_all
             (fun (rd, v) ->
               (not sequential)
               ||
               let expected =
                 Ws_check.check_ws_regular (History.writes h @ [ rd ])
               in
               same_verdict v expected
               || QCheck.Test.fail_reportf "read #%d: kernel %a, Ws_check %a"
                    rd.History.index Ws_check.verdict_pp v Ws_check.verdict_pp
                    expected)
             verdicts));
  ]

(* --- emulations under fully concurrent writes -------------------------- *)

let concurrent_history factory p ~seed =
  match
    Scenario.chaos factory p ~writes_per_writer:2 ~readers:2
      ~reads_per_reader:2 ~crashes:0 ~seed ()
  with
  | Ok r -> r.history
  | Error e -> Alcotest.failf "chaos failed: %a" Scenario.error_pp e

let arb_seed =
  QCheck.make
    QCheck.Gen.(int_range 0 1_000_000)
    ~print:string_of_int

let emulation_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"abd-max is weakly regular even with concurrent writes"
         ~count:60 arb_seed
         (fun seed ->
           Regularity.is_weak_regular
             (concurrent_history Regemu_baselines.Abd_max.factory
                (params 2 1 3) ~seed)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"abd-max-atomic histories are atomic (linearizable)"
         ~count:60 arb_seed
         (fun seed ->
           Regularity.is_atomic
             (concurrent_history Regemu_baselines.Abd_max_atomic.factory
                (params 2 1 3) ~seed)));
    test "abd-max-atomic passes the shared emulation obligations" (fun () ->
        let p = params 3 1 4 in
        (match
           Scenario.write_sequential Regemu_baselines.Abd_max_atomic.factory p
             ~read_after_each:true ~rounds:2 ~seed:3 ()
         with
        | Error e -> Alcotest.failf "seq: %a" Scenario.error_pp e
        | Ok r -> (
            match Ws_check.check_ws_safe r.history with
            | Ws_check.Holds -> ()
            | v -> Alcotest.failf "ws-safe: %a" Ws_check.verdict_pp v));
        match
          Scenario.chaos Regemu_baselines.Abd_max_atomic.factory p
            ~writes_per_writer:2 ~readers:2 ~reads_per_reader:2 ~crashes:1
            ~seed:4 ()
        with
        | Error e -> Alcotest.failf "chaos: %a" Scenario.error_pp e
        | Ok r ->
            Alcotest.(check int)
              "all complete"
              (List.length r.history)
              (List.length (History.complete r.history)));
    test "abd-max-atomic still uses exactly 2f+1 objects" (fun () ->
        let p = params 4 2 6 in
        let sim = Sim.create ~n:p.Params.n () in
        let writers = List.init p.Params.k (fun _ -> Sim.new_client sim) in
        let inst = Regemu_baselines.Abd_max_atomic.factory.make sim p ~writers in
        Alcotest.(check int) "objects" 5 (List.length (inst.objects ())));
    test "plain abd-max is NOT atomic: the new/old inversion" (fun () ->
        match Regemu_adversary.Inversion.against_abd_max () with
        | Error e -> Alcotest.failf "construction failed: %s" e
        | Ok o ->
            Alcotest.(check bool)
              "first read saw the new value" true
              (Value.equal o.first_read (Value.Str "new"));
            Alcotest.(check bool)
              "second read saw the old value" true
              (Value.equal o.second_read Value.v0);
            Alcotest.(check bool) "not atomic" false o.atomic;
            Alcotest.(check bool) "weakly regular" true o.weakly_regular);
    test "the write-back variant survives the same inversion schedule"
      (fun () ->
        (* abd-max-atomic's reader 1 writes back before returning, so a
           later reader's quorum must intersect it; the deterministic
           inversion above is impossible.  Spot-check via random runs
           plus the explicit construction being rejected: reader 1 of
           abd-max-atomic has pending write-backs, hence the schedule
           in Inversion (which never answers them) cannot even let
           reader 1 return. *)
        let p = params 1 1 3 in
        let sim = Regemu_sim.Sim.create ~n:3 () in
        let writer = Regemu_sim.Sim.new_client sim in
        let r1 = Regemu_sim.Sim.new_client sim in
        let inst =
          Regemu_baselines.Abd_max_atomic.factory.make sim p
            ~writers:[ writer ]
        in
        let objs = Array.of_list (inst.objects ()) in
        let rd1 = inst.read r1 in
        (match
           Regemu_adversary.Script.release_reads sim ~client:r1
             ~objs:[ objs.(0); objs.(1) ]
             ~what:"reader 1"
         with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        (* stepping alone cannot finish the read: it now waits for its
           write-back quorum *)
        match
          Regemu_adversary.Script.step_to_return sim rd1 ~budget:100
            ~what:"rd1"
        with
        | Ok () -> Alcotest.fail "read returned without write-back quorum"
        | Error _ -> ());
  ]

(* --- the (2f+1)k construction achieves regularity beyond
   write-sequential runs (the paper's Section 4 remark) ----------------- *)

let layered_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:
           "layered (2f+1)k construction is weakly regular under concurrent \
            writes"
         ~count:50 arb_seed
         (fun seed ->
           Regularity.is_weak_regular
             (concurrent_history Regemu_baselines.Layered.factory
                (params 2 1 3) ~seed)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:
           "algorithm2 is also weakly regular on these workloads (empirical; \
            the paper only promises WS-Regularity)"
         ~count:50 arb_seed
         (fun seed ->
           Regularity.is_weak_regular
             (concurrent_history Regemu_core.Algorithm2.factory (params 2 1 3)
                ~seed)));
  ]


(* --- timestamp ties under concurrent writers ---------------------------- *)

let tie_tests =
  [
    Alcotest.test_case
      "concurrent writers with equal timestamps resolve consistently" `Quick
      (fun () ->
        (* two writers collect the same (empty) state, both pick ts=1 with
           different payloads; the pair order (ts, payload) must break the
           tie the same way on every server, so the run stays atomic *)
        let p = params 2 1 3 in
        let sim = Regemu_sim.Sim.create ~n:3 () in
        let w1 = Regemu_sim.Sim.new_client sim in
        let w2 = Regemu_sim.Sim.new_client sim in
        let inst =
          Regemu_baselines.Abd_max_atomic.factory.make sim p
            ~writers:[ w1; w2 ]
        in
        let c1 = inst.write w1 (Value.Str "aaa") in
        let c2 = inst.write w2 (Value.Str "zzz") in
        (* interleave the two writes fully *)
        let policy = Regemu_sim.Policy.uniform (Regemu_sim.Rng.create 3) in
        (match
           Regemu_sim.Driver.run_until sim policy ~budget:100_000 (fun () ->
               Regemu_sim.Sim.call_returned c1
               && Regemu_sim.Sim.call_returned c2)
         with
        | Regemu_sim.Driver.Satisfied -> ()
        | o -> Alcotest.failf "writes stalled: %a" Regemu_sim.Driver.outcome_pp o);
        (* two sequential reads agree, and the whole history linearizes *)
        let r1 =
          Regemu_sim.Driver.finish_call_exn sim policy ~budget:100_000
            (inst.read w1)
        in
        let r2 =
          Regemu_sim.Driver.finish_call_exn sim policy ~budget:100_000
            (inst.read w2)
        in
        Alcotest.(check bool) "reads agree" true (Value.equal r1 r2);
        let h = History.of_trace (Regemu_sim.Sim.trace sim) in
        Alcotest.(check bool) "atomic" true (Regularity.is_atomic h));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"equal-timestamp races stay atomic across random schedules"
         ~count:50 arb_seed
         (fun seed ->
           let p = params 2 1 3 in
           let sim = Regemu_sim.Sim.create ~n:3 () in
           let w1 = Regemu_sim.Sim.new_client sim in
           let w2 = Regemu_sim.Sim.new_client sim in
           let inst =
             Regemu_baselines.Abd_max_atomic.factory.make sim p
               ~writers:[ w1; w2 ]
           in
           let c1 = inst.write w1 (Value.Str "aaa") in
           let c2 = inst.write w2 (Value.Str "zzz") in
           let policy = Regemu_sim.Policy.uniform (Regemu_sim.Rng.create seed) in
           (match
              Regemu_sim.Driver.run_until sim policy ~budget:100_000
                (fun () ->
                  Regemu_sim.Sim.call_returned c1
                  && Regemu_sim.Sim.call_returned c2)
            with
           | Regemu_sim.Driver.Satisfied -> ()
           | o ->
               Alcotest.failf "writes stalled: %a" Regemu_sim.Driver.outcome_pp
                 o);
           ignore
             (Regemu_sim.Driver.finish_call_exn sim policy ~budget:100_000
                (inst.read w1));
           Regularity.is_atomic
             (History.of_trace (Regemu_sim.Sim.trace sim))));
  ]

let suites =
  [
    ("regularity:checker", checker_tests);
    ("regularity:agreement", agreement_tests);
    ("regularity:emulations", emulation_tests);
    ("regularity:layered", layered_tests);
    ("regularity:ties", tie_tests);
  ]
