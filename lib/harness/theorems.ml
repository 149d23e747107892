open Regemu_bounds
open Regemu_objects
open Regemu_sim
open Regemu_core
open Regemu_adversary

let lemma1 ~algo (p : Params.t) epochs =
  {
    Report.title =
      Fmt.str
        "Lemma 1: adversarial covering growth, %s at %a \
         (bound: |Cov(t_i)| >= i*f, none on F)"
        algo Params.pp p;
    headers =
      [
        "epoch i"; "|Cov(t_i)|"; "i*f"; "on F"; "|Q_i|"; "|F_i|";
        "fresh servers (>2f)"; "objects used"; "lemma2";
      ];
    rows =
      List.map
        (fun (s : Lowerbound.epoch_stats) ->
          [
            Report.cell_int s.epoch;
            Report.cell_int s.cov_total;
            Report.cell_int (s.epoch * p.Params.f);
            Report.cell_int s.cov_on_f;
            Report.cell_int s.q_size;
            Report.cell_int s.f_size;
            Report.cell_int s.fresh_servers_triggered;
            Report.cell_int s.objects_used_total;
            (match s.lemma2_failure with None -> "ok" | Some m -> m);
          ])
        epochs;
  }

let theorem1_sweep ~k ~f ?n_max () =
  let n_max =
    match n_max with Some n -> n | None -> Formulas.saturation_n ~k ~f + 2
  in
  let rows =
    List.filter_map
      (fun n ->
        match Params.make ~k ~f ~n with
        | Error _ -> None
        | Ok p ->
            let lower = Formulas.register_lower_bound p in
            let upper = Formulas.register_upper_bound p in
            let note =
              if n = (2 * f) + 1 then "n = 2f+1 (bounds meet: kf+k(f+1))"
              else if n >= Formulas.saturation_n ~k ~f then
                "saturated (bounds meet: kf+f+1)"
              else if lower = upper then "bounds meet"
              else "gap"
            in
            Some
              [
                Report.cell_int n;
                Report.cell_int (Formulas.z p);
                Report.cell_int lower;
                Report.cell_int upper;
                Report.cell_int (upper - lower);
                note;
              ])
      (List.init n_max (fun i -> i + 1))
  in
  {
    Report.title =
      Fmt.str
        "Theorem 1 / Theorem 3: register bounds vs number of servers \
         (k=%d, f=%d)"
        k f;
    headers = [ "n"; "z"; "lower bound"; "upper bound"; "gap"; "note" ];
    rows;
  }

let theorem2 ~ks =
  let rows, tight =
    List.split
    @@ List.map
      (fun k ->
        let sim = Sim.create ~n:1 () in
        let writers = List.init k (fun _ -> Sim.new_client sim) in
        let m =
          Regemu_baselines.Reg_maxreg.create sim ~server:(Id.Server.of_int 0)
            ~writers
        in
        let used = List.length (Regemu_baselines.Reg_maxreg.objects m) in
        ( [
            Report.cell_int k;
            Report.cell_int used;
            Report.cell_int (Formulas.maxreg_register_lower_bound ~k);
            Report.cell_bool (used = k);
          ],
          used = k ))
         ks
  in
  ( {
      Report.title =
        "Theorem 2: k-writer max-register from MWMR registers (lower bound \
         k; our construction is tight)";
      headers = [ "k"; "registers used"; "lower bound"; "tight" ];
      rows;
    },
    List.for_all Fun.id tight )

let theorem6 ~k ~f =
  let n = (2 * f) + 1 in
  let p = Params.make_exn ~k ~f ~n in
  let sim = Sim.create ~n () in
  let layout = Layout.build sim p in
  let rows, meets =
    List.split
    @@ List.map
         (fun s ->
           let stored = List.length (Layout.objects_on layout s) in
           ( [
               Fmt.str "%a" Id.Server.pp s;
               Report.cell_int stored;
               Report.cell_int (Formulas.per_server_lower_bound_at_minimum_n p);
               Report.cell_bool (stored >= k);
             ],
             stored >= k ))
         (Sim.servers sim)
  in
  ( {
      Report.title =
        Fmt.str
          "Theorem 6: registers per server at n=2f+1 (k=%d, f=%d; every \
           server must store >= k)"
          k f;
      headers = [ "server"; "registers stored"; "lower bound"; "meets bound" ];
      rows;
    },
    List.for_all Fun.id meets )

let narration ~title ~steps ~verdict_line =
  let b = Buffer.create 512 in
  let ppf = Fmt.with_buffer b in
  Fmt.pf ppf "%s@." title;
  List.iteri (fun i s -> Fmt.pf ppf "  %d. %s@." (i + 1) s) steps;
  Fmt.pf ppf "%s@." verdict_line;
  Fmt.flush ppf ();
  Buffer.contents b

let theorem5 ~f (o : Partition.outcome) =
  narration
    ~title:
      (Fmt.str
         "Theorem 5: with n = 2f = %d servers, safety is lost (the \
          partitioning argument)"
         (2 * f))
    ~steps:o.steps
    ~verdict_line:
      (Fmt.str "Checker verdict: %a" Regemu_history.Ws_check.verdict_pp
         o.verdict)

let inversion (o : Inversion.outcome) =
  narration
    ~title:
      "New/old read inversion: ABD without reader write-back is regular \
       but not atomic"
    ~steps:o.steps
    ~verdict_line:
      (Fmt.str
         "atomic: %b, weakly regular: %b (the write-back variant \
          abd-max-atomic is atomic)"
         o.atomic o.weakly_regular)

let theorem6_adversarial ~k ~f ~seed =
  let n = (2 * f) + 1 in
  let p = Params.make_exn ~k ~f ~n in
  match Lowerbound.execute Algorithm2.factory p ~seed () with
  | Error e -> Error e
  | Ok run ->
      Ok
        ( {
            Report.title =
              Fmt.str
                "Theorem 6 (adversarial witness): covered registers per server \
                 after the Lemma 1 run at n=2f+1 (k=%d, f=%d; servers outside \
                 F must reach k)"
                k f;
            headers =
              [ "server"; "in F"; "covered registers"; "k" ];
            rows =
              List.map
                (fun (s, c) ->
                  [
                    Fmt.str "%a" Id.Server.pp s;
                    Report.cell_bool (Id.Server.Set.mem s run.f_set);
                    Report.cell_int c;
                    Report.cell_int k;
                  ])
                run.final_cov_per_server;
          },
          List.for_all
            (fun (s, c) -> Id.Server.Set.mem s run.f_set || c >= k)
            run.final_cov_per_server )

let max_per_server_load (p : Params.t) =
  let sim = Sim.create ~n:p.n () in
  let layout = Layout.build sim p in
  List.fold_left
    (fun acc s -> Stdlib.max acc (List.length (Layout.objects_on layout s)))
    0 (Sim.servers sim)

let theorem7 ~k ~f ~capacities =
  let rows, consistent =
    List.split
    @@ List.map
         (fun m ->
           let servers_needed = Formulas.min_servers ~k ~f ~capacity:m in
           let feasible_n =
             (* smallest n >= max(2f+1, servers_needed) at which the layout's
                per-server load fits within m *)
             let rec search n =
               if n > (1000 * k * f) + 10 then None
               else
                 match Params.make ~k ~f ~n with
                 | Error _ -> search (n + 1)
                 | Ok p ->
                     if max_per_server_load p <= m then Some n
                     else search (n + 1)
             in
             search (Stdlib.max ((2 * f) + 1) 1)
           in
           let consistent =
             match feasible_n with Some n -> n >= servers_needed | None -> true
           in
           ( [
               Report.cell_int m;
               Report.cell_int servers_needed;
               (match feasible_n with
               | Some n -> Report.cell_int n
               | None -> "-");
               Report.cell_bool consistent;
             ],
             consistent ))
         capacities
  in
  ( {
      Report.title =
        Fmt.str
          "Theorem 7: minimum servers with per-server capacity m (k=%d, f=%d; \
           bound ceil(kf/m)+f+1)"
          k f;
      headers =
        [
          "capacity m"; "lower bound on |S|"; "layout feasible at n";
          "consistent";
        ];
      rows;
    },
    List.for_all Fun.id consistent )

let theorem8 ?params ~seed () =
  let p =
    match params with Some p -> p | None -> Params.make_exn ~k:6 ~f:1 ~n:14
  in
  match Lowerbound.execute Algorithm2.factory p ~seed () with
  | Error e -> Error e
  | Ok run ->
      let covered =
        List.map (fun (s : Lowerbound.epoch_stats) -> s.cov_total) run.epochs
      in
      Ok
        ( {
            Report.title =
              Fmt.str
                "Theorem 8: resource use grows with each write while point \
                 contention stays 1 (%a) — no adaptive emulation exists"
                Params.pp p;
            headers =
              [
                "write #"; "point contention"; "covered registers";
                "objects used";
              ];
            rows =
              List.map
                (fun (s : Lowerbound.epoch_stats) ->
                  [
                    Report.cell_int s.epoch;
                    Report.cell_int s.point_contention;
                    Report.cell_int s.cov_total;
                    Report.cell_int s.objects_used_total;
                  ])
                run.epochs;
          },
          List.for_all
            (fun (s : Lowerbound.epoch_stats) -> s.point_contention = 1)
            run.epochs
          && covered = List.sort compare covered )

let algorithm1_time ~writers_list ~ops_per_writer ~seed =
  let measure num_writers =
    let sim = Sim.create ~n:1 () in
    let m = Regemu_baselines.Cas_maxreg.create sim ~server:(Id.Server.of_int 0) in
    let clients = List.init num_writers (fun _ -> Sim.new_client sim) in
    let rng = Rng.create (seed + num_writers) in
    let policy = Policy.uniform (Rng.split rng) in
    let planned =
      ref
        (List.concat_map
           (fun c -> List.init ops_per_writer (fun i -> (c, i)))
           clients)
    in
    let calls = ref [] in
    let next_value = ref 0 in
    let rec loop guard =
      if guard = 0 then failwith "algorithm1_time: did not finish";
      let idle =
        List.filter (fun (c, _) -> not (Sim.client_busy sim c)) !planned
      in
      if !planned = [] then begin
        match
          Driver.run_until sim policy ~budget:1_000_000 (fun () ->
              List.for_all Sim.call_returned !calls)
        with
        | Driver.Satisfied -> ()
        | o -> failwith (Fmt.str "algorithm1_time: %a" Driver.outcome_pp o)
      end
      else if idle <> [] && Rng.int rng ~bound:2 = 0 then begin
        let ((c, _) as job) = Rng.pick rng idle in
        planned := List.filter (fun j -> j <> job) !planned;
        incr next_value;
        calls :=
          Regemu_baselines.Cas_maxreg.write_max m c (Value.Int !next_value)
          :: !calls;
        loop (guard - 1)
      end
      else if Driver.step sim policy then loop (guard - 1)
      else loop (guard - 1)
    in
    loop 1_000_000;
    let total_ops = num_writers * ops_per_writer in
    let cas = Regemu_baselines.Cas_maxreg.cas_count m in
    (total_ops, cas)
  in
  let rows =
    List.map
      (fun w ->
        let ops, cas = measure w in
        [
          Report.cell_int w;
          Report.cell_int ops;
          Report.cell_int cas;
          Report.cellf "%.2f" (float_of_int cas /. float_of_int ops);
        ])
      writers_list
  in
  {
    Report.title =
      "Algorithm 1: CAS operations per write-max vs concurrency (a native \
       max-register costs 1 op; the CAS emulation pays more under \
       contention)";
    headers = [ "concurrent writers"; "write-max ops"; "CAS ops"; "CAS/op" ];
    rows;
  }

(* --- the space-based classification vs Herlihy's hierarchy --------------- *)

let classification ~k ~f ~n =
  let p = Params.make_exn ~k ~f ~n in
  let rows =
    [
      [
        "read/write register"; "1";
        Fmt.str "%d..%d"
          (Formulas.register_lower_bound p)
          (Formulas.register_upper_bound p);
        "grows with k, shrinks with n";
      ];
      [
        "max-register"; "1";
        Report.cell_int (Formulas.maxreg_bound p);
        "independent of k and n";
      ];
      [
        "CAS"; "infinite";
        Report.cell_int (Formulas.cas_bound p);
        "independent of k and n";
      ];
    ]
  in
  {
    Report.title =
      Fmt.str
        "The paper's classification at (k=%d, f=%d, n=%d): space for an \
         f-tolerant k-register vs Herlihy's consensus number — register and \
         max-register share consensus number 1 yet are separated by a \
         factor of k; max-register and CAS differ in consensus number yet \
         cost the same"
        k f n;
    headers =
      [ "base object"; "consensus number"; "objects needed"; "dependence" ];
    rows;
  }

(* --- reader-space dependence (the Section 5 closing question) ----------- *)

let reader_space ~k ~f ~n ~readers_list =
  let p = Params.make_exn ~k ~f ~n in
  let rows =
    List.map
      (fun r ->
        let register_objects =
          Regemu_baselines.Algorithm2_rwb.expected_objects p ~readers:r
        in
        [
          Report.cell_int r;
          Report.cell_int register_objects;
          Report.cell_int (Formulas.maxreg_bound p);
        ])
      readers_list
  in
  {
    Report.title =
      Fmt.str
        "Atomicity and readers (k=%d, f=%d, n=%d): reader write-back over \
         registers pays per reader; max-register servers do not"
        k f n;
    headers =
      [
        "readers"; "registers (algorithm2 + write-back)";
        "max-registers (abd-max-atomic)";
      ];
    rows;
  }

(* --- three max-register implementations, measured ----------------------- *)

let count_lops tr =
  let n = ref 0 in
  Trace.iter (function Trace.Trigger _ -> incr n | _ -> ()) tr;
  !n

let maxreg_comparison ~k ~capacity ~ops ~seed =
  let policy () = Policy.uniform (Rng.create seed) in
  let values = List.init ops (fun i -> 1 + ((i * 7) mod (capacity - 1))) in
  let sequential_run ~write ~read ~clients ~sim =
    let p = policy () in
    List.iter
      (fun v ->
        List.iter
          (fun c ->
            ignore (Driver.finish_call_exn sim p ~budget:100_000 (write c v)))
          clients)
      values;
    List.iter
      (fun c -> ignore (Driver.finish_call_exn sim p ~budget:100_000 (read c)))
      clients;
    let total_ops = (List.length clients * List.length values) + List.length clients in
    (count_lops (Sim.trace sim), total_ops)
  in
  let flat () =
    let sim = Sim.create ~n:1 () in
    let writers = List.init k (fun _ -> Sim.new_client sim) in
    let m =
      Regemu_baselines.Reg_maxreg.create sim ~server:(Id.Server.of_int 0)
        ~writers
    in
    let lops, total =
      sequential_run
        ~write:(fun c v -> Regemu_baselines.Reg_maxreg.write_max m c (Value.Int v))
        ~read:(Regemu_baselines.Reg_maxreg.read_max m)
        ~clients:writers ~sim
    in
    ("flat (one register per writer)", k, lops, total)
  in
  let cas () =
    let sim = Sim.create ~n:1 () in
    let m = Regemu_baselines.Cas_maxreg.create sim ~server:(Id.Server.of_int 0) in
    let writers = List.init k (fun _ -> Sim.new_client sim) in
    let lops, total =
      sequential_run
        ~write:(fun c v -> Regemu_baselines.Cas_maxreg.write_max m c (Value.Int v))
        ~read:(Regemu_baselines.Cas_maxreg.read_max m)
        ~clients:writers ~sim
    in
    ("single CAS (Algorithm 1)", 1, lops, total)
  in
  let tree () =
    let sim = Sim.create ~n:1 () in
    let m =
      Regemu_baselines.Tree_maxreg.create sim ~server:(Id.Server.of_int 0)
        ~capacity
    in
    let writers = List.init k (fun _ -> Sim.new_client sim) in
    let lops, total =
      sequential_run
        ~write:(fun c v -> Regemu_baselines.Tree_maxreg.write_max m c v)
        ~read:(Regemu_baselines.Tree_maxreg.read_max m)
        ~clients:writers ~sim
    in
    ("AAC tree (bounded domain)", capacity - 1, lops, total)
  in
  let rows =
    List.map
      (fun (name, objects, lops, total) ->
        [
          name;
          Report.cell_int objects;
          Report.cell_int total;
          Report.cell_int lops;
          Report.cellf "%.2f" (float_of_int lops /. float_of_int total);
        ])
      [ flat (); cas (); tree () ]
  in
  {
    Report.title =
      Fmt.str
        "Max-register implementations compared (k=%d writers, domain [0,%d), \
         %d writes each): space vs time"
        k capacity ops;
    headers =
      [ "implementation"; "base objects"; "high-level ops"; "low-level ops"; "lops/op" ];
    rows;
  }

(* --- per-server load balance -------------------------------------------- *)

let load_balance ~k ~f ~n ~rounds ~seed =
  let p = Params.make_exn ~k ~f ~n in
  match
    Regemu_workload.Scenario.write_sequential Algorithm2.factory p
      ~read_after_each:true ~rounds ~seed ()
  with
  | Error e ->
      failwith (Fmt.str "load_balance: %a" Regemu_workload.Scenario.error_pp e)
  | Ok r ->
      let stats = Stats.of_trace (Sim.trace r.sim) in
      let per_server = Array.make n 0 in
      Id.Obj.Map.iter
        (fun obj count ->
          let s = Id.Server.to_int (Sim.delta r.sim obj) in
          per_server.(s) <- per_server.(s) + count)
        stats.triggers_per_object;
      let loads = Array.to_list per_server in
      let maxl = List.fold_left Stdlib.max 0 loads in
      let minl = List.fold_left Stdlib.min max_int loads in
      let rows =
        List.mapi
          (fun i load ->
            [
              Fmt.str "s%d" i;
              Report.cell_int load;
              Report.cellf "%.2f"
                (float_of_int load
                /. (float_of_int stats.triggers /. float_of_int n));
            ])
          loads
      in
      {
        Report.title =
          Fmt.str
            "Per-server low-level operations, algorithm2 at %a (%d rounds; \
             max/min = %d/%d)"
            Params.pp p rounds maxl minl;
        headers = [ "server"; "low-level ops"; "x of even share" ];
        rows;
      }
