open Regemu_bounds
open Regemu_objects
open Regemu_history
open Regemu_adversary

type block = Table of Report.t | Text of string
type verdict = Holds of string | Fails of string | Not_checked of string
type flag = K | F | N | Seed | Algo

type args = {
  k : int;
  f : int;
  n : int;
  seed : int;
  algo : Regemu_core.Emulation.factory;
}

type t = {
  id : string;
  paper : string;
  doc : string;
  reads : flag list;
  defaults : args;
  run : args -> block list * verdict;
}

let with_seed seed c =
  if List.mem Seed c.reads then { c.defaults with seed } else c.defaults

let params a =
  match Params.make ~k:a.k ~f:a.f ~n:a.n with
  | Ok p -> p
  | Error e -> invalid_arg ("invalid parameters: " ^ e)

let ok_exn = function Ok x -> x | Error e -> failwith e
let check ok detail = if ok then Holds detail else Fails detail
let violated = function Ws_check.Violated _ -> true | _ -> false

let table1_verdict (rows : Table1.row list) =
  let saturation (p : Params.t) = (p.k * p.f) + p.f + 1 in
  let registers = List.filter (fun (r : Table1.row) -> r.base = "register") rows in
  (* register rows measured at one (f, n) and two values of k *)
  let pairs =
    List.concat_map
      (fun (a : Table1.row) ->
        List.filter_map
          (fun (b : Table1.row) ->
            if
              a.params.f = b.params.f && a.params.n = b.params.n
              && a.params.k < b.params.k
            then Some (a, b)
            else None)
          registers)
      registers
  in
  let saturated =
    List.filter (fun (r : Table1.row) -> r.params.n >= saturation r.params) registers
  in
  let first bad xs why = Option.map why (List.find_opt bad xs) in
  let where (r : Table1.row) = Fmt.str "%s at %a" r.base Params.pp r.params in
  let broken =
    List.find_map Fun.id
      [
        first
          (fun (r : Table1.row) ->
            not
              (r.safety_ok
              && r.used_fair <= r.bound_upper
              && Option.fold ~none:true ~some:(fun u -> u >= r.bound_lower)
                   r.used_adversarial))
          rows
          (fun r -> where r ^ ": outside its bounds or unsafe");
        first
          (fun (r : Table1.row) ->
            List.mem r.base [ "max-register"; "CAS" ]
            && r.used_fair <> (2 * r.params.f) + 1)
          rows
          (fun r -> Fmt.str "%s uses %d objects, not 2f+1" (where r) r.used_fair);
        first
          (fun ((a : Table1.row), (b : Table1.row)) -> a.used_fair >= b.used_fair)
          pairs
          (fun (a, b) ->
            Fmt.str "the register row does not grow with k: %d at %a, %d at %a"
              a.used_fair Params.pp a.params b.used_fair Params.pp b.params);
        first
          (fun (r : Table1.row) -> r.used_fair <> saturation r.params)
          saturated
          (fun r -> Fmt.str "%s uses %d objects, not kf+f+1" (where r) r.used_fair);
      ]
  in
  match broken with
  | Some why -> Fails why
  | None ->
      Holds
        (Fmt.str
           "%d rows within bounds, all runs safe; max-register and CAS rows \
            at 2f+1; the register row grows with k (%d same-(f, n) \
            comparisons) and is kf+f+1 at all %d points with n >= kf+f+1"
           (List.length rows) (List.length pairs) (List.length saturated))

let base =
  { k = 5; f = 2; n = 6; seed = 42; algo = Regemu_core.Algorithm2.factory }

let claim ?(defaults = base) id ~paper ~doc reads run =
  { id; paper; doc; reads; defaults; run }

(* Lemma 1's invariants for one epoch, on either model: covered >= i*f
   with none on F, |Q_i| = f, more than 2f fresh servers (Lemma 4) and
   no Lemma 2 failure *)
let epochs_hold (p : Params.t) =
  List.for_all (fun (s : Lowerbound.epoch_stats) ->
      s.write_returned
      && s.cov_total >= s.epoch * p.f
      && s.cov_on_f = 0 && s.q_size = p.f
      && s.fresh_servers_triggered > 2 * p.f
      && s.lemma2_failure = None)

let lemma1 a =
  let p = params a in
  let run = ok_exn (Lowerbound.execute a.algo p ~seed:a.seed ()) in
  let covered = run.final_cov >= p.k * p.f in
  let epochs_ok = epochs_hold p run.epochs in
  ( [
      Table (Theorems.lemma1 ~algo:run.algo p run.epochs);
      Text
        ("Covering timeline (the staircase of the lower bound):\n"
        ^ Timeline.render run.trace);
    ],
    if a.algo.obj_kind <> Base_object.Register then
      Not_checked "max-register/CAS objects are outside Lemma 1"
    else
      check (covered && epochs_ok)
        (Fmt.str "final |Cov|=%d %s kf=%d; epoch invariants %s" run.final_cov
           (if covered then ">=" else "<")
           (p.k * p.f)
           (if epochs_ok then "all hold" else "broken")) )

let theorem6 a =
  let layout, meets = Theorems.theorem6 ~k:a.k ~f:a.f in
  let witness, covered =
    ok_exn (Theorems.theorem6_adversarial ~k:a.k ~f:a.f ~seed:42)
  in
  ( [ Table layout; Table witness ],
    check (meets && covered)
      "every server stores >= k registers; the adversary covers >= k on \
       every server outside F" )

let explore _ =
  let open Regemu_mcheck in
  let p = Params.make_exn ~k:1 ~f:1 ~n:3 in
  let results =
    List.map
      (fun (factory : Regemu_core.Emulation.factory) ->
        ( factory.name,
          Explore.run
            (Explore.emulation_scenario factory p ~mode:Explore.Sequential
               ~writer_ops:[ [ Value.Str "a" ] ]
               ~readers:1 ~reads_each:1 ())
            ~max_fired:2_000_000 ))
      [
        Regemu_core.Algorithm2.factory;
        Regemu_baselines.Abd_max.factory;
        Regemu_baselines.Naive_reg.factory;
      ]
  in
  let line (name, r) = Fmt.str "%-12s %a\n" name Explore.result_pp r in
  let r = List.assoc "algorithm2" results in
  ( [
      Text
        ("== Systematic exploration: one write + one read at (k=1,f=1,n=3), \
          all schedules ==\n"
        ^ String.concat "" (List.map line results)
        ^ "(for two writers the same search finds the Figure 2 violation \
           against naive-reg; see `regemu explore --algo naive-reg --writes \
           2`)\n");
    ],
    check
      (r.exhaustive && r.ws_safe_violations = [] && r.stuck_runs = 0)
      (Fmt.str "%d schedules, exhaustive=%b, 0 violations expected"
         r.terminal_runs r.exhaustive) )

let all =
  [
    claim "table1" ~paper:"Table 1 (measured)"
      ~doc:"Reproduce Table 1: object counts per base-object type." [ Seed ]
      (fun a ->
        let rows = Table1.compute ~seed:a.seed () in
        ([ Table (Table1.report rows) ], table1_verdict rows));
    claim "fig1" ~paper:"Figure 1 layout"
      ~doc:"Reproduce Figure 1: the register layout, and the load it spreads."
      [ K; F; N ]
      (fun a ->
        let p = params a in
        ( [
            Text (Figures.figure1 ~params:p ());
            Table
              (Theorems.load_balance ~k:p.k ~f:p.f ~n:p.n ~rounds:2 ~seed:42);
          ],
          Not_checked "a picture of the layout; suite_core checks its placement" ));
    claim "fig2"
      ~paper:"Lemma 4 / Figure 2 (> 2f fresh servers; the violating schedule)"
      ~doc:
        "Reproduce Figure 2: the Lemma 4 schedule that breaks the naive \
         2f+1-register algorithm."
      [ F ]
      (fun a ->
        let o = ok_exn (Violation.against_naive ~f:a.f) in
        ( [ Text (Figures.figure2 ~f:a.f o) ],
          check
            (violated o.verdict && Value.equal o.read_value (Value.Str "v1"))
            "naive 2f+1-register algorithm returns a stale value" ));
    claim "lemma1" ~paper:"Lemma 1 (+ extended claims a–e)"
      ~doc:
        "Run the Lemma 1 adversarial construction against an emulation: \
         covering growth per epoch, and the |Cov(t)| staircase."
      [ Algo; K; F; N; Seed ] lemma1;
    claim "thm1" ~paper:"Theorem 1 (register lower bound)"
      ~doc:"Sweep the Theorem 1/3 register bounds over n." [ K; F ]
      (fun a ->
        (* beside (k, f), the (k=8, f=1) sweep, where the bounds meet at
           every n *)
        ( List.map
            (fun (k, f) -> Table (Theorems.theorem1_sweep ~k ~f ()))
            (List.sort_uniq compare [ (a.k, a.f); (8, 1) ]),
          Not_checked
            "bound arithmetic: the table evaluates Formulas, which suite_bounds \
             tests" ));
    claim "thm2" ~paper:"Theorem 2 (k-writer max-register ≥ k registers)"
      ~doc:
        "Theorem 2: a k-writer max-register needs (and our construction \
         uses) k registers."
      []
      (fun _ ->
        let r, tight = Theorems.theorem2 ~ks:[ 1; 2; 3; 4; 7; 8; 16 ] in
        ([ Table r ], check tight "construction is tight"));
    claim "thm5" ~paper:"Theorem 5 (`n ≥ 2f+1`)"
      ~doc:"Theorem 5: the partitioning impossibility at n = 2f, executed."
      [ F ]
      (fun a ->
        let o = ok_exn (Partition.impossibility ~f:a.f) in
        ( [ Text (Theorems.theorem5 ~f:a.f o) ],
          check (violated o.verdict) "write invisible to a disjoint read quorum" ));
    claim "thm6" ~paper:"Theorem 6 (≥ k registers per server at `n = 2f+1`)"
      ~doc:"Theorem 6: registers per server at n=2f+1, laid out and covered."
      ~defaults:{ base with k = 4 } [ K; F ] theorem6;
    claim "inversion" ~paper:"\"atomicity usually requires readers to write\" (§1)"
      ~doc:"The new/old read inversion: why atomicity needs readers that write."
      []
      (fun _ ->
        let o = ok_exn (Inversion.against_abd_max ()) in
        ( [ Text (Theorems.inversion o) ],
          check ((not o.atomic) && o.weakly_regular) "plain ABD: regular but not atomic" ));
    claim "thm7" ~paper:"Theorem 7 (bounded capacity)"
      ~doc:"Theorem 7: minimum server count under bounded per-server storage."
      ~defaults:{ base with k = 6 } [ K; F ]
      (fun a ->
        let r, consistent =
          Theorems.theorem7 ~k:a.k ~f:a.f ~capacities:[ 1; 2; 3; 4; 6; 12 ]
        in
        ( [ Table r ],
          check consistent
            "no capacity's layout fits on fewer servers than the bound" ));
    claim "thm8" ~paper:"Theorem 8 (no contention adaptivity)"
      ~doc:"Theorem 8: resource use grows while point contention stays 1."
      ~defaults:{ base with k = 6; f = 1; n = 14 } [ K; F; N; Seed ]
      (fun a ->
        let r, holds =
          ok_exn (Theorems.theorem8 ~params:(params a) ~seed:a.seed ())
        in
        ( [ Table r ],
          check holds
            "point contention stays 1; covered registers never fall" ));
    claim "alg1"
      ~paper:"Appendix B / Algorithm 1 / Theorem 4 (max-register from one CAS)"
      ~doc:
        "Algorithm 1: CAS cost of the max-register emulation, beside the \
         other max-register constructions."
      [ Seed ]
      (fun a ->
        ( [
            Table
              (Theorems.algorithm1_time ~writers_list:[ 1; 2; 4; 8 ]
                 ~ops_per_writer:8 ~seed:a.seed);
            Table (Theorems.maxreg_comparison ~k:4 ~capacity:64 ~ops:6 ~seed:a.seed);
          ],
          Not_checked
            "a cost measurement; suite_emulations checks Algorithm 1's atomicity" ));
    claim "latency" ~paper:"§5 time complexity remarks"
      ~doc:
        "Compare operation latencies (in scheduler steps) across emulations, \
         at f and, where n allows, at f+1."
      ~defaults:{ base with k = 3; f = 1; n = 5 } [ K; F; N ]
      (fun a ->
        ( List.map
            (fun p -> Table (Latency.report p (Latency.compute p ~rounds:2)))
            (params a :: Result.to_list (Params.make ~k:a.k ~f:(a.f + 1) ~n:a.n)),
          Not_checked
            "a cost measurement in scheduler steps; the paper states no bound \
             on it" ));
    claim "classification"
      ~paper:"Space-based classification vs consensus number (§1, §5)"
      ~doc:
        "The paper's space-based classification vs Herlihy's consensus \
         hierarchy."
      [ K; F; N ]
      (fun a ->
        let p = params a in
        ( [ Table (Theorems.classification ~k:p.k ~f:p.f ~n:p.n) ],
          Not_checked
            "Table 1's formulas beside consensus numbers; suite_bounds tests \
             the formulas" ));
    claim "rspace" ~paper:"Reader space for atomicity (§5 closing question)"
      ~doc:
        "Does atomicity cost space per reader? (the paper's closing question, \
         measured)"
      ~defaults:{ base with k = 3; f = 1; n = 5 } [ K; F; N ]
      (fun a ->
        let p = params a in
        ( [
            Table
              (Theorems.reader_space ~k:p.k ~f:p.f ~n:p.n
                 ~readers_list:[ 0; 1; 2; 4; 8 ]);
          ],
          Not_checked
            "object counts from the constructions' formulas; suite_rwb checks \
             the write-back emulation" ));
    claim "netabd" ~paper:"ABD itself ([5], the origin)"
      ~doc:
        "Message complexity on the wire, and the lower-bound staircase \
         produced by an adversarial router."
      [ K; F; N; Seed ]
      (fun a ->
        let p = params a in
        let staircase = ok_exn (Wire.staircase p ~seed:a.seed) in
        let survives = Wire.abd_survives_crash ~seed:a.seed in
        let wire_holds = epochs_hold p staircase in
        ( [
            Table (Wire.abd_messages ~fs:[ 1; 2; 3; 4 ] ~ops:6 ~seed:a.seed);
            Table
              (Wire.alg2_messages
                 ~configs:[ (1, 1, 3); (2, 1, 4); (3, 1, 5); (3, 2, 7) ]
                 ~seed:a.seed);
            Table (Theorems.lemma1 ~algo:"algorithm2 on the wire" p staircase);
          ],
          check (survives && wire_holds)
            (Fmt.str
               "write/read %s a crash; wire staircase: epoch invariants %s"
               (if survives then "survive" else "do not survive")
               (if wire_holds then "all hold" else "broken")) ));
    claim "mc" ~paper:"§3.3 / Theorem 3 / Algorithm 2"
      ~doc:
        "Explore every schedule of one write and one read at (k=1, f=1, n=3) \
         for Algorithm 2, ABD and the naive algorithm."
      [] explore;
  ]

(* a claim that raises has failed, with the exception's text *)
let execute c a =
  try c.run a with
  | Failure m | Invalid_argument m -> ([], Fails m)
  | e -> ([], Fails (Printexc.to_string e))

let print_block ~markdown ppf = function
  | Table r when markdown -> Fmt.pf ppf "%s@." (Report.to_markdown r)
  | Table r -> Fmt.pf ppf "%a@." Report.pp r
  | Text s when markdown -> Fmt.pf ppf "```@.%s```@.@." s
  | Text s -> Fmt.pf ppf "%s@." s

let verdict_line ppf (c, v) =
  let tag, detail =
    match v with
    | Holds d -> ("PASS", d)
    | Fails d -> ("FAIL", d)
    | Not_checked why -> ("----", "not checked: " ^ why)
  in
  Fmt.pf ppf "[%s] %s — %s: %s@." tag c.id c.paper detail

let run ?(markdown = false) ?(verdicts_only = false) ppf claims =
  let verdicts =
    List.map
      (fun (c, a) ->
        let blocks, v = execute c a in
        if not verdicts_only then List.iter (print_block ~markdown ppf) blocks;
        verdict_line ppf (c, v);
        if not verdicts_only then Fmt.pf ppf "@.";
        v)
      claims
  in
  let count p = List.length (List.filter p verdicts) in
  let failed = count (function Fails _ -> true | _ -> false) in
  if List.length claims > 1 then
    Fmt.pf ppf "%d passed, %d failed, %d not checked@."
      (count (function Holds _ -> true | _ -> false))
      failed
      (count (function Not_checked _ -> true | _ -> false));
  if failed = 0 then 0 else 1
