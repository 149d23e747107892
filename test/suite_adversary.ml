(* Tests for the lower-bound machinery: epoch bookkeeping, Lemma 2
   invariants, the Lemma 1 construction, and the Figure 2 violation. *)

open Regemu_bounds
open Regemu_objects
open Regemu_sim
open Regemu_adversary

let test name f = Alcotest.test_case name `Quick f
let params k f n = Params.make_exn ~k ~f ~n

(* --- Epoch_state unit tests: hand-built action streams, no model ----- *)

let server = Id.Server.of_int
let servers l = Id.Server.set_of_list (List.map server l)

(* write [id] by client [c] on register [b] of server [s] *)
let trigger ?(c = 0) id b s =
  Epoch_state.Trigger
    { id; client = Id.Client.of_int c; obj = Id.Obj.of_int b; server = server s }

let epoch ~f_set actions =
  let st = Epoch_state.create ~f_set:(servers f_set) in
  List.iter (Epoch_state.apply st) actions;
  st

let card_objs s = Id.Obj.Set.cardinal s
let card_servers s = Id.Server.Set.cardinal s

let epoch_basic_tests =
  [
    test "fresh epoch has empty sets" (fun () ->
        let st = epoch ~f_set:[ 1; 2 ] [] in
        Alcotest.(check int) "tri" 0 (card_objs (Epoch_state.tri st));
        Alcotest.(check int) "qi" 0 (card_servers (Epoch_state.qi st));
        Alcotest.(check int) "f" 1 (Epoch_state.f_count st));
    test "trigger adds to Tri and Covi; respond moves to Rri" (fun () ->
        let st = epoch ~f_set:[ 1; 2 ] [ trigger 0 0 0 ] in
        Alcotest.(check int) "tri" 1 (card_objs (Epoch_state.tri st));
        Alcotest.(check int) "covi" 1 (card_objs (Epoch_state.covi st));
        Alcotest.(check int) "qi has s0" 1 (card_servers (Epoch_state.qi st));
        Epoch_state.apply st (Epoch_state.Respond 0);
        Alcotest.(check int) "rri" 1 (card_objs (Epoch_state.rri st));
        Alcotest.(check int) "covi empty" 0 (card_objs (Epoch_state.covi st)));
    test "pre-epoch covered registers are excluded from Covi" (fun () ->
        (* cover b0 in epoch 1, then open epoch 2 *)
        let st = epoch ~f_set:[ 1; 2 ] [ trigger 0 0 0 ] in
        Epoch_state.next_epoch st ~completed:(Id.Client.of_int 0);
        Epoch_state.apply st (trigger ~c:1 1 0 0);
        Alcotest.(check int) "covi" 0 (card_objs (Epoch_state.covi st));
        Alcotest.(check int) "tri" 1 (card_objs (Epoch_state.tri st)));
    test "qi is sticky once delta(Covi)\\F exceeds f" (fun () ->
        (* f = 1; cover three servers outside F one by one *)
        let st =
          epoch ~f_set:[ 3; 4 ] [ trigger 0 0 0; trigger 1 1 1; trigger 2 2 2 ]
        in
        (* first covered server s0 froze into Qi *)
        Alcotest.(check (list int))
          "qi = {s0}" [ 0 ]
          (List.map Id.Server.to_int (Id.Server.Set.elements (Epoch_state.qi st))));
    test "blocked: completed clients' writes and Qi-server writes" (fun () ->
        (* client 0's covering write from before the epoch *)
        let st = epoch ~f_set:[ 1; 2 ] [ trigger 0 0 0 ] in
        Epoch_state.next_epoch st ~completed:(Id.Client.of_int 0);
        Epoch_state.apply st (trigger ~c:1 1 0 0);
        Alcotest.(check bool) "old blocked (rule 1)" true (Epoch_state.blocked st 0);
        (* b0 is on server s0 which is not newly covered (it was covered
           pre-epoch), hence not in Qi: the new write is NOT blocked *)
        Alcotest.(check bool) "new unblocked" false (Epoch_state.blocked st 1));
    test "reads are never blocked" (fun () ->
        (* a read is no covering write, so its id names no pending write *)
        let st = epoch ~f_set:[ 1; 2 ] [ trigger 0 0 0 ] in
        Epoch_state.next_epoch st ~completed:(Id.Client.of_int 0);
        Alcotest.(check bool) "read unblocked" false (Epoch_state.blocked st 7));
    test "Lemma 2.4 fails when two F servers respond while Qi is empty"
      (fun () ->
        (* f = 1: both servers of F respond to an in-epoch write before
           any register outside F is covered, so |Fi| - |Qi| = 2 *)
        let st =
          epoch ~f_set:[ 1; 2 ]
            Epoch_state.[ trigger 0 1 1; trigger 1 2 2; Respond 0; Respond 1 ]
        in
        match Lemma2.check st ~prev:Lemma2.initial with
        | Error { claim = 4; _ } -> ()
        | Error fl -> Alcotest.failf "expected claim 4: %a" Lemma2.failure_pp fl
        | Ok _ -> Alcotest.fail "Lemma 2.4 not reported");
    test "Gi blocks a pending F write once |Qi| < |Fi| (Definition 2, rule 2)"
      (fun () ->
        (* f = 1: s1 responds while s2 still holds an in-epoch write and
           nothing outside F is covered: Qi = {}, Fi = {s1}, Gi = {s2} *)
        let st =
          epoch ~f_set:[ 1; 2 ] Epoch_state.[ trigger 0 1 1; trigger 1 2 2; Respond 0 ]
        in
        Alcotest.(check (list int))
          "gi = {s2}" [ 2 ]
          (List.map Id.Server.to_int (Id.Server.Set.elements (Epoch_state.gi st)));
        Alcotest.(check bool) "pending write on s2 blocked" true
          (Epoch_state.blocked st 1));
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

(* --- one Ad_i on both models ------------------------------------------- *)

(* the one construction on the simulator (Algorithm 2) and on the wire
   (Alg2_net under the router) *)
let models =
  [
    ( "sim",
      fun p ~seed ->
        Result.map
          (fun (r : Lowerbound.run) -> r.epochs)
          (Lowerbound.execute Regemu_core.Algorithm2.factory p ~seed ()) );
    ("net", Regemu_harness.Wire.staircase);
  ]

let epochs_of model run p ~seed =
  match run p ~seed with
  | Ok epochs -> epochs
  | Error e -> Alcotest.failf "%s at %a: %s" model Params.pp p e

let on_both name check =
  List.map
    (fun (model, run) ->
      test (Fmt.str "%s (%s)" name model) (fun () ->
          List.iter
            (fun (p, seed) ->
              List.iter (check model p) (epochs_of model run p ~seed))
            [
              (params 4 2 7, 5); (params 3 1 5, 9); (params 3 1 3, 11);
              (params 5 2 6, 11); (params 2 2 9, 4);
            ]))
    models

let final_cov epochs =
  (List.nth epochs (List.length epochs - 1) : Lowerbound.epoch_stats).cov_total

let both_models_tests =
  on_both "coverage >= i*f after each write, none on F"
    (fun model p (s : Lowerbound.epoch_stats) ->
      if s.cov_total < s.epoch * p.f then
        Alcotest.failf "%s %a epoch %d: |Cov|=%d < i*f" model Params.pp p
          s.epoch s.cov_total;
      Alcotest.(check int) (Fmt.str "%s epoch %d on F" model s.epoch) 0 s.cov_on_f)
  @ on_both "|Q_i| = f at each write's return"
      (fun model p (s : Lowerbound.epoch_stats) ->
        Alcotest.(check int) (Fmt.str "%s epoch %d |Qi|" model s.epoch) p.f s.q_size)
  @ List.map
      (fun (model, run) ->
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make
             ~name:(Fmt.str "Lemma 2 holds at every step (%s)" model)
             ~count:25
             (QCheck.make
                QCheck.Gen.(
                  let* f = int_range 1 2 in
                  let* k = int_range 1 3 in
                  let* n = int_range ((2 * f) + 1) 8 in
                  let* seed = int_range 0 100_000 in
                  return (Params.make_exn ~k ~f ~n, seed))
                ~print:(fun (p, s) -> Fmt.str "%a seed=%d" Params.pp p s))
             (fun (p, seed) ->
               match run p ~seed with
               | Error e -> QCheck.Test.fail_reportf "%s" e
               | Ok epochs ->
                   List.for_all
                     (fun (s : Lowerbound.epoch_stats) ->
                       s.lemma2_failure = None && s.cov_on_f = 0)
                     epochs
                   && final_cov epochs = p.k * p.f)))
      models
  @ [
      test "waitall-reg ends in the driver's stuck error (sim; no wire client)"
        (fun () ->
          match
            Lowerbound.execute Regemu_baselines.Waitall_reg.factory
              (params 1 1 3) ~seed:1 ()
          with
          | Ok _ -> Alcotest.fail "wait-all should not survive Ad_i"
          | Error msg ->
              Alcotest.(check bool)
                (Fmt.str "stuck: %s" msg) true
                (Astring_contains.contains msg "stuck"));
      test "both models agree on final coverage" (fun () ->
          List.iter
            (fun p ->
              match
                List.map
                  (fun (model, run) -> final_cov (epochs_of model run p ~seed:6))
                  models
              with
              | [ sim; net ] ->
                  Alcotest.(check int) (Fmt.str "%a" Params.pp p) sim net;
                  Alcotest.(check int) "both = kf" (p.k * p.f) net
              | _ -> assert false)
            [ params 2 1 3; params 3 1 5; params 3 2 7 ]);
    ]

(* --- Lemma 3, executed: the blocked run is indistinguishable from a
   crash run, where f-tolerance forces the write to return ------------- *)

(* Ad_i as a schedule policy for one high-level write: the simulator's
   covering writes feed the one Epoch_state, and a choice never fires a
   blocked write's response *)
let adi_policy sim ~f_set ~rng =
  let m = Lowerbound.On_sim.create sim in
  let st = Epoch_state.create ~f_set in
  {
    Policy.name = "Ad_i";
    choose =
      (fun _ enabled ->
        List.iter (Epoch_state.apply st) (Lowerbound.On_sim.actions m);
        match
          List.filter
            (fun ev ->
              match Lowerbound.On_sim.completes ev with
              | None -> true
              | Some id -> not (Epoch_state.blocked st id))
            enabled
        with
        | [] -> None
        | evs -> Some (Rng.pick rng evs));
  }

let lemma3_tests =
  [
    test "branching a blocked run into a crash run still completes the write"
      (fun () ->
        let p = params 1 1 4 in
        let build () =
          let sim = Sim.create ~n:p.n () in
          let w = Sim.new_client sim in
          let instance =
            Regemu_core.Algorithm2.factory.make sim p ~writers:[ w ]
          in
          let call = instance.write w (Value.Str "v") in
          (sim, call)
        in
        let is_write (pd : Sim.pending_info) =
          match pd.op with Base_object.Write _ -> true | _ -> false
        in
        (* Run A: drive under Ad_i, recording, until the write phase has
           all its low-level writes outstanding (none responded). *)
        let sim_a, call_a = build () in
        let adi =
          adi_policy sim_a ~f_set:(Lowerbound.default_f_set p)
            ~rng:(Rng.create 21)
        in
        let rec_policy, log = Regemu_workload.Replay.recording adi in
        let write_phase_open () =
          (not (Sim.call_returned call_a))
          && List.length (List.filter is_write (Sim.pending sim_a)) >= 3
          (* |R_0| = zf+f+1 with z=2: 4 registers; >=3 outstanding *)
        in
        (match
           Driver.run_until sim_a rec_policy ~budget:10_000 write_phase_open
         with
        | Driver.Satisfied -> ()
        | o -> Alcotest.failf "never reached the write phase: %a" Driver.outcome_pp o);
        (* Branch (a): continue under Ad_i — Lemma 3 says it returns. *)
        (match Driver.finish_call sim_a adi ~budget:50_000 call_a with
        | Ok _ -> ()
        | Error o -> Alcotest.failf "Ad_i branch: %a" Driver.outcome_pp o);
        (* Branch (b): rebuild, replay the same prefix, then crash a
           server holding an outstanding write and finish FAIRLY. *)
        let sim_b, call_b = build () in
        (match Regemu_workload.Replay.replay sim_b log with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        Alcotest.(check bool)
          "prefix left the write open" false
          (Sim.call_returned call_b);
        let victim =
          match List.find_opt is_write (Sim.pending sim_b) with
          | Some pd -> Sim.delta sim_b pd.obj
          | None -> Alcotest.fail "no outstanding write after replay"
        in
        Sim.crash_server sim_b victim;
        match
          Driver.finish_call sim_b
            (Policy.uniform (Rng.create 5))
            ~budget:50_000 call_b
        with
        | Ok _ -> ()
        | Error o ->
            Alcotest.failf
              "crash branch did not complete (f-tolerance violated): %a"
              Driver.outcome_pp o);
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
    ("adversary:both-models", both_models_tests);
    ("adversary:lemma3", lemma3_tests);
    ("adversary:theorem6", theorem6_tests);
    ("adversary:theorem8", theorem8_tests);
    ("adversary:violation", violation_tests);
  ]
