(* Tests for the lower-bound machinery: epoch bookkeeping, Lemma 2
   invariants, the Lemma 1 construction, and the Figure 2 violation. *)

open Regemu_bounds
open Regemu_objects
open Regemu_sim
open Regemu_adversary

let test name f = Alcotest.test_case name `Quick f
let params k f n = Params.make_exn ~k ~f ~n

(* --- Epoch_state unit tests ------------------------------------------- *)

let epoch_basic_tests =
  [
    test "fresh epoch has empty sets" (fun () ->
        let sim = Sim.create ~n:3 () in
        let f_set = Id.Server.set_of_list [ Id.Server.of_int 1; Id.Server.of_int 2 ] in
        let st =
          Epoch_state.start sim ~f_set
            ~completed_clients:Id.Client.Set.empty
        in
        Epoch_state.advance st;
        Alcotest.(check int) "tri" 0 (Id.Obj.Set.cardinal (Epoch_state.tri st));
        Alcotest.(check int) "qi" 0 (Id.Server.Set.cardinal (Epoch_state.qi st));
        Alcotest.(check int) "f" 1 (Epoch_state.f_count st));
    test "trigger adds to Tri and Covi; respond moves to Rri" (fun () ->
        let sim = Sim.create ~n:3 () in
        let b = Sim.alloc sim ~server:(Id.Server.of_int 0) Base_object.Register in
        let c = Sim.new_client sim in
        let f_set = Id.Server.set_of_list [ Id.Server.of_int 1; Id.Server.of_int 2 ] in
        let st =
          Epoch_state.start sim ~f_set ~completed_clients:Id.Client.Set.empty
        in
        let lid =
          Sim.trigger sim ~client:c b (Base_object.Write (Value.Int 1))
            ~on_response:ignore
        in
        Epoch_state.advance st;
        Alcotest.(check int) "tri" 1 (Id.Obj.Set.cardinal (Epoch_state.tri st));
        Alcotest.(check int) "covi" 1 (Id.Obj.Set.cardinal (Epoch_state.covi st));
        Alcotest.(check int) "qi has s0" 1 (Id.Server.Set.cardinal (Epoch_state.qi st));
        Sim.fire sim (Sim.Respond lid);
        Epoch_state.advance st;
        Alcotest.(check int) "rri" 1 (Id.Obj.Set.cardinal (Epoch_state.rri st));
        Alcotest.(check int) "covi empty" 0 (Id.Obj.Set.cardinal (Epoch_state.covi st)));
    test "pre-epoch covered registers are excluded from Covi" (fun () ->
        let sim = Sim.create ~n:3 () in
        let b = Sim.alloc sim ~server:(Id.Server.of_int 0) Base_object.Register in
        let c = Sim.new_client sim in
        (* cover b before the epoch starts *)
        ignore
          (Sim.trigger sim ~client:c b (Base_object.Write (Value.Int 1))
             ~on_response:ignore);
        let f_set = Id.Server.set_of_list [ Id.Server.of_int 1; Id.Server.of_int 2 ] in
        let st =
          Epoch_state.start sim ~f_set ~completed_clients:Id.Client.Set.empty
        in
        ignore
          (Sim.trigger sim ~client:c b (Base_object.Write (Value.Int 2))
             ~on_response:ignore);
        Epoch_state.advance st;
        Alcotest.(check int) "covi" 0 (Id.Obj.Set.cardinal (Epoch_state.covi st));
        Alcotest.(check int) "tri" 1 (Id.Obj.Set.cardinal (Epoch_state.tri st)));
    test "qi is sticky once delta(Covi)\\F exceeds f" (fun () ->
        let sim = Sim.create ~n:5 () in
        let bs =
          List.init 3 (fun i ->
              Sim.alloc sim ~server:(Id.Server.of_int i) Base_object.Register)
        in
        let c = Sim.new_client sim in
        let f_set = Id.Server.set_of_list [ Id.Server.of_int 3; Id.Server.of_int 4 ] in
        let st =
          Epoch_state.start sim ~f_set ~completed_clients:Id.Client.Set.empty
        in
        (* f = 1; cover three servers outside F one by one *)
        List.iter
          (fun b ->
            ignore
              (Sim.trigger sim ~client:c b (Base_object.Write (Value.Int 1))
                 ~on_response:ignore))
          bs;
        Epoch_state.advance st;
        (* first covered server s0 froze into Qi *)
        Alcotest.(check (list int))
          "qi = {s0}" [ 0 ]
          (List.map Id.Server.to_int
             (Id.Server.Set.elements (Epoch_state.qi st))));
    test "blocked: completed clients' writes and Qi-server writes" (fun () ->
        let sim = Sim.create ~n:3 () in
        let b0 = Sim.alloc sim ~server:(Id.Server.of_int 0) Base_object.Register in
        let old_client = Sim.new_client sim in
        let new_client = Sim.new_client sim in
        (* old covering write from before the epoch *)
        ignore
          (Sim.trigger sim ~client:old_client b0 (Base_object.Write (Value.Int 1))
             ~on_response:ignore);
        let f_set = Id.Server.set_of_list [ Id.Server.of_int 1; Id.Server.of_int 2 ] in
        let st =
          Epoch_state.start sim ~f_set
            ~completed_clients:(Id.Client.set_of_list [ old_client ])
        in
        ignore
          (Sim.trigger sim ~client:new_client b0 (Base_object.Write (Value.Int 2))
             ~on_response:ignore);
        Epoch_state.advance st;
        let blocked_of cl =
          List.filter
            (fun (p : Sim.pending_info) -> Id.Client.equal p.client cl)
            (Sim.pending sim)
          |> List.map (Epoch_state.blocked st)
        in
        Alcotest.(check (list bool)) "old blocked (rule 1)" [ true ]
          (blocked_of old_client);
        (* b0 is on server s0 which is not newly covered (it was covered
           pre-epoch), hence not in Qi: the new write is NOT blocked *)
        Alcotest.(check (list bool)) "new unblocked" [ false ]
          (blocked_of new_client));
    test "reads are never blocked" (fun () ->
        let sim = Sim.create ~n:3 () in
        let b0 = Sim.alloc sim ~server:(Id.Server.of_int 0) Base_object.Register in
        let c = Sim.new_client sim in
        let f_set = Id.Server.set_of_list [ Id.Server.of_int 1; Id.Server.of_int 2 ] in
        let st =
          Epoch_state.start sim ~f_set
            ~completed_clients:(Id.Client.set_of_list [ c ])
        in
        ignore (Sim.trigger sim ~client:c b0 Base_object.Read ~on_response:ignore);
        Epoch_state.advance st;
        List.iter
          (fun p ->
            Alcotest.(check bool) "read unblocked" false (Epoch_state.blocked st p))
          (Sim.pending sim));
  ]

(* --- Lemma 1 construction --------------------------------------------- *)

let check_lemma1 (p : Params.t) (run : Lowerbound.run) =
  List.iter
    (fun (s : Lowerbound.epoch_stats) ->
      (* Lemma 3: the write returned *)
      Alcotest.(check bool)
        (Fmt.str "epoch %d returned" s.epoch)
        true s.write_returned;
      (* Lemma 1(a): |Cov(t_i)| >= i*f *)
      if s.cov_total < s.epoch * p.f then
        Alcotest.failf "epoch %d: |Cov|=%d < i*f=%d" s.epoch s.cov_total
          (s.epoch * p.f);
      (* Lemma 1(b): no covered register on F *)
      Alcotest.(check int) (Fmt.str "epoch %d cov on F" s.epoch) 0 s.cov_on_f;
      (* Corollary 2: |Q_i| = f at the write's return *)
      Alcotest.(check int) (Fmt.str "epoch %d |Qi|" s.epoch) p.f s.q_size;
      (* Lemma 4: writes triggered on > 2f fresh servers *)
      if s.fresh_servers_triggered <= 2 * p.f then
        Alcotest.failf "epoch %d: fresh servers %d <= 2f" s.epoch
          s.fresh_servers_triggered;
      (* extended Lemma 1(d): newly covered registers on >= f servers *)
      if s.new_cov_servers < p.f then
        Alcotest.failf "epoch %d: new coverage on %d < f servers" s.epoch
          s.new_cov_servers;
      (* extended Lemma 1(e): coverage is monotone *)
      Alcotest.(check bool)
        (Fmt.str "epoch %d cov monotone" s.epoch)
        true s.cov_monotone;
      (* Theorem 8 hypothesis: point contention stays 1 *)
      Alcotest.(check int) "point contention" 1 s.point_contention;
      (* Lemma 2 invariants held throughout *)
      match s.lemma2_failure with
      | None -> ()
      | Some m -> Alcotest.failf "epoch %d: %s" s.epoch m)
    run.epochs;
  (* final coverage at least kf *)
  if run.final_cov < p.k * p.f then
    Alcotest.failf "final |Cov|=%d < kf=%d" run.final_cov (p.k * p.f)

let lb_param_grid =
  [ params 1 1 3; params 3 1 3; params 4 1 5; params 5 2 6; params 3 2 5;
    params 2 2 9; params 4 2 12 ]

let run_lb factory p seed =
  match Lowerbound.execute factory p ~seed () with
  | Ok run -> run
  | Error e -> Alcotest.failf "lower-bound run failed: %s" e

let lemma1_tests =
  List.map
    (fun p ->
      test
        (Fmt.str "Lemma 1 invariants vs algorithm2 at %a" Params.pp p)
        (fun () -> check_lemma1 p (run_lb Regemu_core.Algorithm2.factory p 42)))
    lb_param_grid
  @ [
      test "Lemma 1 invariants vs layered construction (n=2f+1)" (fun () ->
          let p = params 3 2 5 in
          check_lemma1 p (run_lb Regemu_baselines.Layered.factory p 17));
      test "coverage grows by exactly f per epoch for algorithm2" (fun () ->
          let p = params 5 2 6 in
          let run = run_lb Regemu_core.Algorithm2.factory p 1 in
          List.iter
            (fun (s : Lowerbound.epoch_stats) ->
              Alcotest.(check int)
                (Fmt.str "epoch %d total" s.epoch)
                (s.epoch * p.f) s.cov_total)
            run.epochs);
      test "adversarial usage respects Theorem 1's lower bound" (fun () ->
          (* the algorithm must use at least the Theorem 1 count *)
          List.iter
            (fun p ->
              let run = run_lb Regemu_core.Algorithm2.factory p 7 in
              if run.final_objects_used < Formulas.register_lower_bound p then
                Alcotest.failf "%a: used %d < lower bound %d" Params.pp p
                  run.final_objects_used
                  (Formulas.register_lower_bound p))
            lb_param_grid);
      test "F defaults to the last f+1 servers but any F works" (fun () ->
          let p = params 3 1 5 in
          let f_set =
            Id.Server.set_of_list [ Id.Server.of_int 0; Id.Server.of_int 2 ]
          in
          let run =
            match
              Lowerbound.execute Regemu_core.Algorithm2.factory p ~f_set
                ~seed:3 ()
            with
            | Ok r -> r
            | Error e -> Alcotest.failf "failed: %s" e
          in
          check_lemma1 p run);
      test "wrong |F| rejected" (fun () ->
          let p = params 2 2 5 in
          Alcotest.(check bool)
            "raises" true
            (try
               ignore
                 (Lowerbound.execute Regemu_core.Algorithm2.factory p
                    ~f_set:(Id.Server.set_of_list [ Id.Server.of_int 0 ])
                    ~seed:1 ());
               false
             with Invalid_argument _ -> true));
    ]

let lemma1_property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"Lemma 1 invariants hold for random params and seeds"
         ~count:40
         (QCheck.make
            QCheck.Gen.(
              let* f = int_range 1 2 in
              let* k = int_range 1 4 in
              let* n = int_range ((2 * f) + 1) 10 in
              let* seed = int_range 0 100_000 in
              return (Params.make_exn ~k ~f ~n, seed))
            ~print:(fun (p, s) -> Fmt.str "%a seed=%d" Params.pp p s))
         (fun (p, seed) ->
           check_lemma1 p (run_lb Regemu_core.Algorithm2.factory p seed);
           true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"Lemma 1 holds for every choice of F (random F sets)"
         ~count:30
         (QCheck.make
            QCheck.Gen.(
              let* f = int_range 1 2 in
              let* k = int_range 1 3 in
              let* n = int_range ((2 * f) + 1) 8 in
              let* seed = int_range 0 100_000 in
              (* pick f+1 distinct servers at random *)
              let* perm = shuffle_l (List.init n Fun.id) in
              let f_servers =
                List.filteri (fun i _ -> i <= f) perm
                |> List.map Id.Server.of_int
              in
              return (Params.make_exn ~k ~f ~n, seed, f_servers))
            ~print:(fun (p, s, fs) ->
              Fmt.str "%a seed=%d F={%a}" Params.pp p s
                Fmt.(list ~sep:comma Id.Server.pp)
                fs))
         (fun (p, seed, f_servers) ->
           let f_set = Id.Server.set_of_list f_servers in
           match
             Lowerbound.execute Regemu_core.Algorithm2.factory p ~f_set ~seed
               ()
           with
           | Error e -> QCheck.Test.fail_reportf "%s" e
           | Ok run ->
               check_lemma1 p run;
               true));
  ]

(* --- Theorem 8: no adaptivity to point contention ---------------------- *)

(* --- Theorem 6: per-server covering at n = 2f+1 ------------------------ *)

let theorem6_tests =
  [
    test "every server outside F accumulates k covered registers" (fun () ->
        let k = 4 and f = 2 in
        let p = params k f ((2 * f) + 1) in
        let run = run_lb Regemu_core.Algorithm2.factory p 21 in
        List.iter
          (fun (s, covered) ->
            if Id.Server.Set.mem s run.f_set then
              Alcotest.(check int)
                (Fmt.str "%a in F" Id.Server.pp s)
                0 covered
            else
              Alcotest.(check int)
                (Fmt.str "%a outside F" Id.Server.pp s)
                k covered)
          run.final_cov_per_server);
    test "theorem6_adversarial report is well-formed" (fun () ->
        match Regemu_harness.Theorems.theorem6_adversarial ~k:3 ~f:1 ~seed:2 with
        | Error e -> Alcotest.failf "failed: %s" e
        | Ok (r, covered) ->
            Alcotest.(check bool) "covered outside F" true covered;
            Alcotest.(check int) "rows = n" 3 (List.length r.rows);
            (* servers not in F show k covered *)
            List.iter
              (fun row ->
                match (List.nth row 1, List.nth row 2) with
                | "no", covered -> Alcotest.(check string) "k" "3" covered
                | "yes", covered -> Alcotest.(check string) "0" "0" covered
                | _ -> Alcotest.fail "unexpected row")
              r.rows);
  ]

let theorem8_tests =
  [
    test "resource use grows with writes while point contention stays 1"
      (fun () ->
        let p = params 6 1 14 in
        let run = run_lb Regemu_core.Algorithm2.factory p 9 in
        let covs = List.map (fun (s : Lowerbound.epoch_stats) -> s.cov_total) run.epochs in
        (* coverage strictly increases epoch over epoch *)
        let rec strictly_increasing = function
          | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
          | _ -> true
        in
        Alcotest.(check bool) "monotone coverage" true (strictly_increasing covs);
        List.iter
          (fun (s : Lowerbound.epoch_stats) ->
            Alcotest.(check int) "pc" 1 s.point_contention)
          run.epochs);
  ]

(* --- Figure 2 / Lemma 4 violation -------------------------------------- *)

let violation_tests =
  [
    test "naive 2f+1-register algorithm violates WS-Safety (f=1)" (fun () ->
        match Violation.against_naive ~f:1 with
        | Error e -> Alcotest.failf "construction failed: %s" e
        | Ok o -> (
            Alcotest.(check bool)
              "stale value read" true
              (Value.equal o.read_value (Value.Str "v1"));
            match o.verdict with
            | Regemu_history.Ws_check.Violated _ -> ()
            | v ->
                Alcotest.failf "expected violation, got %a"
                  Regemu_history.Ws_check.verdict_pp v));
    test "violation scales to any f" (fun () ->
        List.iter
          (fun f ->
            match Violation.against_naive ~f with
            | Error e -> Alcotest.failf "f=%d: %s" f e
            | Ok o -> (
                match o.verdict with
                | Regemu_history.Ws_check.Violated _ -> ()
                | v ->
                    Alcotest.failf "f=%d: expected violation, got %a" f
                      Regemu_history.Ws_check.verdict_pp v))
          [ 1; 2; 3; 4 ]);
    test "the same schedule cannot break algorithm2 (covering discipline)"
      (fun () ->
        (* drive algorithm2 adversarially through the whole Lemma 1 run
           and then read: the value must be the last written one *)
        let p = params 2 1 3 in
        match Lowerbound.execute Regemu_core.Algorithm2.factory p ~seed:5 () with
        | Error e -> Alcotest.failf "run failed: %s" e
        | Ok _ -> (
            (* re-run, then issue a read under a fair policy and check *)
            let sim = Sim.create ~n:p.n () in
            let writers = List.init p.k (fun _ -> Sim.new_client sim) in
            let instance =
              Regemu_core.Algorithm2.factory.make sim p ~writers
            in
            let policy = Policy.uniform (Rng.create 11) in
            List.iteri
              (fun i w ->
                ignore
                  (Driver.finish_call_exn sim policy ~budget:50_000
                     (instance.write w (Value.Str (Fmt.str "v%d" i)))))
              writers;
            let reader = Sim.new_client sim in
            let rd =
              Driver.finish_call_exn sim policy ~budget:50_000
                (instance.read reader)
            in
            match rd with
            | Value.Str "v1" -> ()
            | v -> Alcotest.failf "read %a instead of v1" Value.pp v));
    test "narration is non-empty and ends with the violation" (fun () ->
        match Violation.against_naive ~f:2 with
        | Error e -> Alcotest.failf "construction failed: %s" e
        | Ok o ->
            Alcotest.(check bool) "has steps" true (List.length o.steps >= 5));
  ]

let suites =
  [
    ("adversary:epoch-state", epoch_basic_tests);
    ("adversary:lemma1", lemma1_tests);
    ("adversary:lemma1-props", lemma1_property_tests);
    ("adversary:theorem6", theorem6_tests);
    ("adversary:theorem8", theorem8_tests);
    ("adversary:violation", violation_tests);
  ]
