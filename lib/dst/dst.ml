open Regemu_live
open Regemu_objects
open Regemu_chaos
module Json = Regemu_obs.Json

type config = {
  seed : int;
  algo : Live_bench.algo;
  writers : int;
  readers : int;
  f : int;
  n : int;
  ops_per_client : int;
  recovery : Recovery.mode;
  reorder : bool;
  drop_prob : float;
  dup_prob : float;
  delay_prob : float;
  max_delay_us : int;
  hedge : bool;
  nemesis : Schedule.t;
  step_ns : int;
  max_steps : int;
}

let default_config ~seed =
  {
    seed;
    algo = Live_bench.Abd;
    (* one writer: WS-regularity is only checkable on write-sequential
       histories, so concurrent writers would leave every verdict
       vacuous *)
    writers = 1;
    readers = 2;
    f = 1;
    n = 3;
    ops_per_client = 8;
    recovery = Recovery.Persist;
    reorder = true;
    drop_prob = 0.02;
    dup_prob = 0.05;
    delay_prob = 0.0;
    max_delay_us = 0;
    hedge = false;
    nemesis = [];
    step_ns = 20_000;
    max_steps = 400_000;
  }

let validate_config cfg =
  if cfg.writers < 1 then invalid_arg "Dst: need at least one writer";
  if cfg.readers < 0 then invalid_arg "Dst: readers must be >= 0";
  if cfg.ops_per_client < 1 then invalid_arg "Dst: ops_per_client must be >= 1";
  Schedule.validate ~n:cfg.n cfg.nemesis

(* what actually happened inside the scheduled run *)
type run_stats = {
  online : Checker.result;
  full_ws : Regemu_history.Ws_check.verdict;
  nemesis_counters : Nemesis.counters;
  cluster_stats : Cluster.stats;
  history_digest : string;
}

type outcome = {
  cfg : config;
  stats : run_stats option;  (* [None]: the run never reached its end *)
  report : Sched.report;
  violations : string list;  (* empty = clean run *)
}

let passed o = o.violations = []

(* a stable fingerprint of the observable history: client, op kind,
   result, logical invocation/return order — two runs with equal
   schedule digests must also agree here *)
let history_digest h =
  (* the op fields go into one buffer, hashed once with FNV-1a *)
  let b = Buffer.create 256 in
  let add_int i =
    Value.add_int b i;
    Buffer.add_char b ';'
  in
  List.iter
    (fun (op : Regemu_history.History.op) ->
      add_int (Id.Client.to_int op.client);
      Regemu_sim.Trace.add_hop_to_buffer b op.hop;
      (match op.result with
      | None -> Buffer.add_char b '?'
      | Some v -> Value.add_to_buffer b v);
      add_int op.invoked_at;
      add_int (Option.value ~default:(-1) op.returned_at))
    h;
  let bytes = Buffer.contents b in
  let d = ref 0xcbf29ce484222325L in
  for i = 0 to String.length bytes - 1 do
    let c = Int64.of_int (Char.code bytes.[i]) in
    d := Int64.mul (Int64.logxor !d c) 0x100000001b3L
  done;
  Printf.sprintf "%016Lx" !d

(* class of a WS verdict, for online-vs-full agreement: two Violated
   verdicts may flag different reads first, which is still agreement *)
let verdict_class = function
  | Regemu_history.Ws_check.Holds -> "holds"
  | Regemu_history.Ws_check.Vacuous -> "vacuous"
  | Regemu_history.Ws_check.Violated _ -> "violated"

let violations_of ~stats ~(report : Sched.report) =
  let v = ref [] in
  let add s = v := s :: !v in
  (match report.deadlock with
  | Some names ->
      add (Fmt.str "deadlock: parked actors [%s]" (String.concat ", " names))
  | None -> ());
  if report.stalled then
    add (Fmt.str "stall: exceeded %d scheduling steps" report.steps);
  List.iter
    (fun (name, exn) -> add (Fmt.str "actor-crash: %s: %s" name exn))
    report.actor_crashes;
  (match stats with
  | None ->
      if report.deadlock = None && (not report.stalled)
         && report.actor_crashes = []
      then add "run ended without a result"
  | Some s ->
      (match s.online.Checker.ws with
      | Regemu_history.Ws_check.Violated viol ->
          add
            (Fmt.str "online-checker: %a" Regemu_history.Ws_check.violation_pp
               viol)
      | _ -> ());
      (match s.full_ws with
      | Regemu_history.Ws_check.Violated viol ->
          add
            (Fmt.str "full-pass: %a" Regemu_history.Ws_check.violation_pp viol)
      | _ -> ());
      (match s.online.Checker.atomic with
      | Some false -> add "online-checker: final atomicity check failed"
      | _ -> ());
      if verdict_class s.online.Checker.ws <> verdict_class s.full_ws then
        add
          (Fmt.str "checker-disagreement: online %s vs full-pass %s"
             (verdict_class s.online.Checker.ws)
             (verdict_class s.full_ws)));
  List.rev !v

let run ?(choices = [||]) ?(sink = Sink.none) cfg =
  validate_config cfg;
  let scfg =
    { Sched.seed = cfg.seed; step_ns = cfg.step_ns; max_steps = cfg.max_steps }
  in
  let value, report =
    Sched.run ~replay:choices scfg (fun s ->
        let hook = Sched.hook s in
        let transport =
          {
            Transport.couriers = 2;
            delay_prob = cfg.delay_prob;
            max_delay_us = cfg.max_delay_us;
            dup_prob = cfg.dup_prob;
            drop_prob = cfg.drop_prob;
            reorder = cfg.reorder;
            (* a DST run is scheduler-driven: Threads is the only backend
               the cooperative scheduler can replay *)
            backend = Transport.Threads;
            seed = cfg.seed;
          }
        in
        let cluster =
          Cluster.create ~sched:hook ~sink
            {
              Cluster.n = cfg.n;
              transport;
              op_timeout_s = 300.0;
              recovery = cfg.recovery;
              retry = Some Retry.default_config;
              hedge = (if cfg.hedge then Some Hedge.default_config else None);
              deadline =
                (if cfg.hedge then Some Deadline.default_config else None);
            }
        in
        let writers =
          List.init cfg.writers (fun _ -> Cluster.new_client cluster)
        in
        let readers =
          List.init cfg.readers (fun _ -> Cluster.new_client cluster)
        in
        let write, read =
          Live_bench.emulation cfg.algo cluster ~f:cfg.f ~writers
        in
        Cluster.start cluster;
        (* the checker retains the whole run: its digest and full pass *)
        let checker =
          Checker.spawn ~sched:hook cluster ~interval_s:0.005
            ~retain:((cfg.writers + cfg.readers) * cfg.ops_per_client)
            ()
        in
        let nem =
          if cfg.nemesis = [] then None
          else Some (Nemesis.start ~sched:hook cluster cfg.nemesis)
        in
        (* workload fibers: unavailability under induced faults is
           data, not a crash — catch it per operation and push on *)
        let live = Atomic.make (cfg.writers + cfg.readers) in
        let op body =
          try body ()
          with Cluster.Unavailable _ | Cluster.Timeout _ -> ()
        in
        List.iteri
          (fun i cl ->
            Sched.spawn s ~name:(Fmt.str "writer-%d" i) (fun () ->
                for j = 1 to cfg.ops_per_client do
                  op (fun () ->
                      write cl (Value.Str (Printf.sprintf "w%d-%04d" i j)))
                done;
                Atomic.decr live))
          writers;
        List.iteri
          (fun i cl ->
            Sched.spawn s ~name:(Fmt.str "reader-%d" i) (fun () ->
                for _ = 1 to cfg.ops_per_client do
                  op (fun () -> ignore (read cl))
                done;
                Atomic.decr live))
          readers;
        (Sched.hook s).suspend (fun () -> Atomic.get live = 0);
        let nemesis_counters =
          match nem with
          | None ->
              {
                Nemesis.crashes = 0;
                restarts = 0;
                partitions = 0;
                heals = 0;
                drop_changes = 0;
                slows = 0;
                stutters = 0;
                heal_slows = 0;
              }
          | Some nm -> Nemesis.join nm
        in
        let online = Checker.stop checker in
        let h, full_ws =
          match Checker.full_pass checker with
          | Some pass -> pass
          | None -> failwith "Dst: the checker kept no history of the run"
        in
        let cluster_stats = Cluster.stats cluster in
        let history_digest = history_digest h in
        Cluster.shutdown cluster;
        { online; full_ws; nemesis_counters; cluster_stats; history_digest })
  in
  let violations = violations_of ~stats:value ~report in
  { cfg; stats = value; report; violations }

(* one string that must be byte-identical across reruns of the same
   (seed, config): the schedule digest plus the history fingerprint *)
let run_digest o =
  match o.stats with
  | None -> o.report.Sched.digest
  | Some s -> o.report.Sched.digest ^ "-" ^ s.history_digest

(* --- config (de)serialization, the replay-file core --------------------- *)

let config_json cfg =
  Json.Obj
    [
      ("seed", Json.Int cfg.seed);
      ("algo", Json.Str (Live_bench.algo_name cfg.algo));
      ("writers", Json.Int cfg.writers);
      ("readers", Json.Int cfg.readers);
      ("f", Json.Int cfg.f);
      ("n", Json.Int cfg.n);
      ("ops_per_client", Json.Int cfg.ops_per_client);
      ("recovery", Json.Str (Recovery.to_string cfg.recovery));
      ("reorder", Json.Bool cfg.reorder);
      ("drop_prob", Json.Float cfg.drop_prob);
      ("dup_prob", Json.Float cfg.dup_prob);
      ("delay_prob", Json.Float cfg.delay_prob);
      ("max_delay_us", Json.Int cfg.max_delay_us);
      ("hedge", Json.Bool cfg.hedge);
      ("step_ns", Json.Int cfg.step_ns);
      ("max_steps", Json.Int cfg.max_steps);
    ]

let config_of_json j =
  let ( let* ) = Result.bind in
  let get what conv k =
    match Option.bind (Json.member k j) conv with
    | Some v -> Ok v
    | None -> Error (Fmt.str "config: missing or bad %s %S" what k)
  in
  let int = get "int" Json.to_int_opt in
  let flt = get "float" Json.to_float_opt in
  let str = get "string" Json.to_str_opt in
  let bol = get "bool" Json.to_bool_opt in
  let* seed = int "seed" in
  let* algo_s = str "algo" in
  let* algo =
    match Live_bench.algo_of_name algo_s with
    | Some a -> Ok a
    | None ->
        Error
          (Fmt.str "config: unknown algo %S; valid: %s" algo_s
             (String.concat ", " Live_bench.algo_names))
  in
  let* writers = int "writers" in
  let* readers = int "readers" in
  let* f = int "f" in
  let* n = int "n" in
  let* ops_per_client = int "ops_per_client" in
  let* recovery_s = str "recovery" in
  let* recovery =
    match Recovery.of_string recovery_s with
    | Some r -> Ok r
    | None -> Error (Fmt.str "config: unknown recovery %S" recovery_s)
  in
  let* reorder = bol "reorder" in
  let* drop_prob = flt "drop_prob" in
  let* dup_prob = flt "dup_prob" in
  let* delay_prob = flt "delay_prob" in
  let* max_delay_us = int "max_delay_us" in
  (* absent in pre-hedging replay files: default off *)
  let hedge =
    match Option.bind (Json.member "hedge" j) Json.to_bool_opt with
    | Some b -> b
    | None -> false
  in
  let* step_ns = int "step_ns" in
  let* max_steps = int "max_steps" in
  Ok
    {
      seed;
      algo;
      writers;
      readers;
      f;
      n;
      ops_per_client;
      recovery;
      reorder;
      drop_prob;
      dup_prob;
      delay_prob;
      max_delay_us;
      hedge;
      nemesis = [];
      step_ns;
      max_steps;
    }

let outcome_json o =
  Json.Obj
    [
      ("config", config_json o.cfg);
      ("nemesis", Schedule.to_json o.cfg.nemesis);
      ("passed", Json.Bool (passed o));
      ("violations", Json.List (List.map (fun s -> Json.Str s) o.violations));
      ("digest", Json.Str (run_digest o));
      ("steps", Json.Int o.report.Sched.steps);
      ("vtime_s", Json.Float (Int64.to_float o.report.Sched.vtime_ns *. 1e-9));
      ("actors", Json.Int o.report.Sched.actors);
      ("branch_points", Json.Int (Array.length o.report.Sched.choices));
      ( "ops_completed",
        match o.stats with
        | None -> Json.Null
        | Some s -> Json.Int s.cluster_stats.Cluster.ops_completed );
      ( "online_ws",
        match o.stats with
        | None -> Json.Null
        | Some s -> Json.Str (verdict_class s.online.Checker.ws) );
      ( "full_ws",
        match o.stats with
        | None -> Json.Null
        | Some s -> Json.Str (verdict_class s.full_ws) );
      ( "nemesis_applied",
        match o.stats with
        | None -> Json.Null
        | Some s -> Nemesis.counters_json s.nemesis_counters );
    ]

let outcome_pp ppf o =
  Fmt.pf ppf "seed=%d %s: %s (%d steps, %d branch points, %.3fs virtual%s)"
    o.cfg.seed
    (Live_bench.algo_name o.cfg.algo)
    (if passed o then "PASS" else "FAIL")
    o.report.Sched.steps
    (Array.length o.report.Sched.choices)
    (Int64.to_float o.report.Sched.vtime_ns *. 1e-9)
    (match o.stats with
    | None -> ""
    | Some s ->
        Fmt.str ", %d ops" s.cluster_stats.Cluster.ops_completed);
  List.iter (fun v -> Fmt.pf ppf "@.  - %s" v) o.violations
