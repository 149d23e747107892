(* Benchmark & reproduction harness.

   Running [dune exec bench/main.exe] first reproduces every claim of
   the claim registry ({!Regemu_harness.Claim.all}: each table and
   figure of the paper's evaluation, with its verdict), then runs one
   Bechamel micro-benchmark per experiment to time the machinery
   itself.

   [dune exec bench/main.exe -- <claim id>] reproduces a single claim;
   see [usage] below.  The exit status is 1 if a reproduced claim
   fails. *)

open Regemu_bounds
open Regemu_harness

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure.          *)

open Bechamel
open Toolkit

let fig1_params = Params.make_exn ~k:5 ~f:2 ~n:6

let seq_write_scenario factory =
  Staged.stage (fun () ->
      match
        Regemu_workload.Scenario.write_sequential factory fig1_params
          ~read_after_each:false ~rounds:1 ~seed:1 ()
      with
      | Ok _ -> ()
      | Error e ->
          failwith (Fmt.str "%a" Regemu_workload.Scenario.error_pp e))

let bench_tests =
  [
    (* Table 1: one full sequential round per emulation *)
    Test.make ~name:"table1/algorithm2"
      (seq_write_scenario Regemu_core.Algorithm2.factory);
    Test.make ~name:"table1/abd-max"
      (seq_write_scenario Regemu_baselines.Abd_max.factory);
    Test.make ~name:"table1/abd-cas"
      (seq_write_scenario Regemu_baselines.Abd_cas.factory);
    (* Figure 1: layout construction *)
    Test.make ~name:"fig1/layout-build"
      (Staged.stage (fun () ->
           let sim = Regemu_sim.Sim.create ~n:6 () in
           ignore (Regemu_core.Layout.build sim fig1_params)));
    (* Figure 2: the violating schedule *)
    Test.make ~name:"fig2/violation"
      (Staged.stage (fun () ->
           match Regemu_adversary.Violation.against_naive ~f:2 with
           | Ok _ -> ()
           | Error e -> failwith e));
    (* Lemma 1: a full adversarial construction *)
    Test.make ~name:"lemma1/adversarial-run"
      (Staged.stage (fun () ->
           match
             Regemu_adversary.Lowerbound.execute
               Regemu_core.Algorithm2.factory
               (Params.make_exn ~k:3 ~f:1 ~n:5)
               ~check_lemma2:false ~seed:1 ()
           with
           | Ok _ -> ()
           | Error e -> failwith e));
    (* Theorem 1: the bound sweep *)
    Test.make ~name:"thm1/bound-sweep"
      (Staged.stage (fun () ->
           ignore (Theorems.theorem1_sweep ~k:5 ~f:2 ())));
    (* Theorem 2: max-register collect read *)
    Test.make ~name:"thm2/reg-maxreg-ops"
      (Staged.stage (fun () ->
           let open Regemu_sim in
           let sim = Sim.create ~n:1 () in
           let writers = List.init 8 (fun _ -> Sim.new_client sim) in
           let m =
             Regemu_baselines.Reg_maxreg.create sim
               ~server:(Regemu_objects.Id.Server.of_int 0)
               ~writers
           in
           let policy = Policy.responds_first in
           List.iteri
             (fun i c ->
               ignore
                 (Driver.finish_call_exn sim policy ~budget:1_000
                    (Regemu_baselines.Reg_maxreg.write_max m c
                       (Regemu_objects.Value.Int i))))
             writers;
           ignore
             (Driver.finish_call_exn sim policy ~budget:1_000
                (Regemu_baselines.Reg_maxreg.read_max m (List.hd writers)))));
    (* Theorem 5: the partitioning schedule *)
    Test.make ~name:"thm5/partition"
      (Staged.stage (fun () ->
           match Regemu_adversary.Partition.impossibility ~f:2 with
           | Ok _ -> ()
           | Error e -> failwith e));
    (* New/old inversion construction + both brute-force checks *)
    Test.make ~name:"inversion/abd-max"
      (Staged.stage (fun () ->
           match Regemu_adversary.Inversion.against_abd_max () with
           | Ok _ -> ()
           | Error e -> failwith e));
    (* Theorem 6: per-server layout audit *)
    Test.make ~name:"thm6/per-server-audit"
      (Staged.stage (fun () -> ignore (Theorems.theorem6 ~k:4 ~f:2)));
    (* Theorem 7: capacity planning *)
    Test.make ~name:"thm7/min-servers"
      (Staged.stage (fun () ->
           ignore (Theorems.theorem7 ~k:6 ~f:2 ~capacities:[ 1; 2; 3; 6 ])));
    (* Theorem 8: contention-vs-usage run *)
    Test.make ~name:"thm8/non-adaptivity-run"
      (Staged.stage (fun () ->
           match
             Theorems.theorem8
               ~params:(Params.make_exn ~k:4 ~f:1 ~n:10)
               ~seed:1 ()
           with
           | Ok _ -> ()
           | Error e -> failwith e));
    (* reader-space and classification tables *)
    Test.make ~name:"rspace/table"
      (Staged.stage (fun () ->
           ignore
             (Theorems.reader_space ~k:3 ~f:1 ~n:5 ~readers_list:[ 0; 2; 4 ])));
    Test.make ~name:"classification/table"
      (Staged.stage (fun () ->
           ignore (Theorems.classification ~k:5 ~f:2 ~n:6)));
    (* Latency comparison *)
    Test.make ~name:"latency/compare"
      (Staged.stage (fun () ->
           ignore
             (Latency.compute (Params.make_exn ~k:2 ~f:1 ~n:4) ~rounds:1)));
    (* bounded exhaustive exploration of a tiny scenario *)
    Test.make ~name:"explore/tiny-exhaustive"
      (Staged.stage (fun () ->
           ignore
             (Regemu_mcheck.Explore.run
                (Regemu_mcheck.Explore.emulation_scenario
                   Regemu_baselines.Abd_max.factory
                   (Params.make_exn ~k:1 ~f:1 ~n:3)
                   ~mode:Regemu_mcheck.Explore.Sequential
                   ~writer_ops:[ [ Regemu_objects.Value.Int 1 ] ]
                   ~readers:0 ~reads_each:0 ())
                ~max_fired:100_000)));
    (* message-passing ABD round *)
    Test.make ~name:"netabd/write-read"
      (Staged.stage (fun () ->
           let net = Regemu_netsim.Net.create ~n:3 () in
           let abd = Regemu_netsim.Abd_net.create net ~f:1 () in
           let w = Regemu_netsim.Net.new_client net in
           let rng = Regemu_sim.Rng.create 1 in
           let call = Regemu_netsim.Abd_net.write abd w (Regemu_objects.Value.Int 1) in
           let rec go budget =
             if Regemu_netsim.Net.call_returned call || budget = 0 then ()
             else begin
               (match Regemu_netsim.Net.enabled net with
               | [] -> ()
               | evs ->
                   Regemu_netsim.Net.fire net (Regemu_sim.Rng.pick rng evs));
               go (budget - 1)
             end
           in
           go 10_000));
    (* Algorithm 1: CAS max-register under contention *)
    Test.make ~name:"alg1/cas-write-max"
      (Staged.stage (fun () ->
           ignore
             (Theorems.algorithm1_time ~writers_list:[ 4 ] ~ops_per_writer:4
                ~seed:1)));
  ]

(* the regemu-bench/1 schema documented in EXPERIMENTS.md: OLS
   ns-per-run estimate and r² per benchmark, per measure *)
let json_of_results results =
  let open Regemu_obs in
  let benchmarks = ref [] in
  Hashtbl.iter
    (fun measure per_test ->
      Hashtbl.iter
        (fun name ols ->
          let ns_per_run =
            match Analyze.OLS.estimates ols with
            | Some (e :: _) -> Json.Float e
            | Some [] | None -> Json.Null
          in
          let r_square =
            match Analyze.OLS.r_square ols with
            | Some r -> Json.Float r
            | None -> Json.Null
          in
          benchmarks :=
            Json.Obj
              [
                ("name", Json.Str name);
                ("measure", Json.Str measure);
                ("ns_per_run", ns_per_run);
                ("r_square", r_square);
              ]
            :: !benchmarks)
        per_test)
    results;
  let by_name a b =
    match (a, b) with
    | Json.Obj (("name", Json.Str x) :: _), Json.Obj (("name", Json.Str y) :: _)
      ->
        String.compare x y
    | _ -> 0
  in
  Json.Obj
    [
      ("schema", Json.Str "regemu-bench/1");
      ("benchmarks", Json.List (List.sort by_name !benchmarks));
    ]

let run_benchmarks ?json () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None () in
  let tests = Test.make_grouped ~name:"regemu" ~fmt:"%s %s" bench_tests in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  Bechamel_notty.Unit.add Instance.monotonic_clock
    (Measure.unit Instance.monotonic_clock);
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 120; h = 1 }
  in
  let img =
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window
      ~predictor:Measure.run results
  in
  Fmt.pr "== Micro-benchmarks (monotonic clock per run) ==@.";
  Notty_unix.output_image (Notty_unix.eol img);
  match json with
  | None -> ()
  | Some path ->
      Regemu_obs.Json.to_file path (json_of_results results);
      Fmt.pr "wrote %s@." path

let claims = List.map (fun c -> (c.Claim.id, c)) Claim.all
let reproduce cs =
  Claim.run Format.std_formatter (List.map (fun c -> (c, c.Claim.defaults)) cs)

let usage () =
  Fmt.pr "usage: main.exe [all|bench|%s] [--json FILE]@."
    (String.concat "|" (List.map fst claims));
  2

let () =
  (* peel off a trailing [--json FILE] before dispatching *)
  let argv = Array.to_list Sys.argv in
  let rec split acc = function
    | "--json" :: path :: rest -> (List.rev_append acc rest, Some path)
    | a :: rest -> split (a :: acc) rest
    | [] -> (List.rev acc, None)
  in
  let args, json = split [] argv in
  exit
    (match args with
    | [ _ ] | [ _; "all" ] ->
        let status = reproduce Claim.all in
        run_benchmarks ?json ();
        status
    | [ _; "bench" ] ->
        run_benchmarks ?json ();
        0
    | [ _; name ] -> (
        match List.assoc_opt name claims with
        | Some c -> reproduce [ c ]
        | None -> usage ())
    | _ -> usage ())
