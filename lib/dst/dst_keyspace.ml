open Regemu_live
open Regemu_keyspace

type profile = Quiet | Chaos

let profile_name = function Quiet -> "quiet" | Chaos -> "chaos"

let profile_of_name = function
  | "quiet" -> Some Quiet
  | "chaos" -> Some Chaos
  | _ -> None

type config = {
  seed : int;
  profile : profile;
  n : int;
  f : int;
  keys : int;
  zipf : float;
  arrival_rate : float;
  total_ops : int;
  window : int;
  write_fraction : float;
  deep_sample : int;
  wipe_frac : float;
  step_ns : int;
  max_steps : int;
}

let default_config ~profile ~seed =
  {
    seed;
    profile;
    n = 5;
    f = 1;
    keys = 16;
    zipf = 0.8;
    arrival_rate = 400.0;
    total_ops = 120;
    window = 3;
    write_fraction = 0.6;
    deep_sample = 4;
    wipe_frac = 0.5;
    step_ns = 20_000;
    max_steps = 2_000_000;
  }

type outcome = {
  cfg : config;
  result : Kchecker.result option;
  load : Openload.outcome option;
  report : Sched.report;
  settled_at_wipe : int;
  caught : bool;
  problems : string list;
}

let transport_of cfg =
  let clean =
    {
      Transport.couriers = 2;
      delay_prob = 0.0;
      max_delay_us = 0;
      dup_prob = 0.0;
      drop_prob = 0.0;
      reorder = false;
      backend = Transport.Threads;
      seed = cfg.seed;
    }
  in
  match cfg.profile with
  | Quiet -> clean
  | Chaos ->
      { clean with drop_prob = 0.02; dup_prob = 0.05; reorder = true }

let run ?(sink = Sink.none) cfg =
  if cfg.wipe_frac < 0.0 || cfg.wipe_frac >= 1.0 then
    invalid_arg "Dst_keyspace: wipe_frac must be in [0, 1)";
  let scfg =
    { Sched.seed = cfg.seed; step_ns = cfg.step_ns; max_steps = cfg.max_steps }
  in
  let settled_at_wipe = ref (-1) in
  let value, report =
    Sched.run scfg (fun s ->
        let hook = Sched.hook s in
        let cluster =
          Cluster.create ~sched:hook ~sink
            {
              Cluster.n = cfg.n;
              transport = transport_of cfg;
              op_timeout_s = 300.0;
              recovery = Recovery.Amnesia;
              retry = Some Retry.default_config;
              hedge = None;
              deadline = None;
            }
        in
        let ks = Kspace.create cluster ~f:cfg.f () in
        Cluster.start cluster;
        let checker =
          Kchecker.spawn ~sched:hook ~sink
            ~config:
              {
                Kchecker.interval_s = 0.002;
                deep_sample = cfg.deep_sample;
                deep_cap = 65_536;
              }
            (Kspace.klog ks)
        in
        (* the injection fiber: after [wipe_frac] of the load's virtual
           duration, roll a diskless wipe across every server — one at
           a time, so a quorum is always up and operations keep
           completing on the wiped state *)
        if cfg.wipe_frac > 0.0 then begin
          let duration = float_of_int cfg.total_ops /. cfg.arrival_rate in
          Sched.spawn s ~name:"wiper" (fun () ->
              hook.Sched_hook.sleep (cfg.wipe_frac *. duration);
              settled_at_wipe := Checker.settled checker;
              for srv = 0 to cfg.n - 1 do
                Cluster.crash cluster srv;
                Cluster.restart cluster srv
              done)
        end;
        let load =
          Openload.run ~sched:hook ks
            {
              Openload.keys = cfg.keys;
              zipf = cfg.zipf;
              arrival_rate = cfg.arrival_rate;
              total_ops = cfg.total_ops;
              window = cfg.window;
              write_fraction = cfg.write_fraction;
              seed = cfg.seed;
            }
        in
        let result = Kchecker.stop checker in
        Cluster.shutdown cluster;
        (result, load))
  in
  let result = Option.map fst value in
  let load = Option.map snd value in
  let problems = ref [] in
  let add p = problems := p :: !problems in
  (match report.Sched.deadlock with
  | Some names ->
      add (Fmt.str "deadlock: parked actors [%s]" (String.concat ", " names))
  | None -> ());
  if report.Sched.stalled then
    add (Fmt.str "stall: exceeded %d scheduling steps" report.Sched.steps);
  List.iter
    (fun (name, exn) -> add (Fmt.str "actor-crash: %s: %s" name exn))
    report.Sched.actor_crashes;
  (match result with
  | None ->
      if !problems = [] then add "run ended without a result"
  | Some r ->
      if r.Kchecker.deep_mismatches > 0 then
        add
          (Fmt.str "deep-check mismatch on %d keys: the GC lost an answer"
             r.Kchecker.deep_mismatches));
  let caught =
    match result with Some r -> r.Kchecker.violations > 0 | None -> false
  in
  {
    cfg;
    result;
    load;
    report;
    settled_at_wipe = !settled_at_wipe;
    caught;
    problems = List.rev !problems;
  }

let gc_soundness_holds o =
  o.problems = [] && o.settled_at_wipe > 0 && o.caught

let outcome_pp ppf o =
  Fmt.pf ppf "seed=%d %s keyspace: %s (%d steps, %.3fs virtual)" o.cfg.seed
    (profile_name o.cfg.profile)
    (if o.problems = [] then "ran" else "FAILED")
    o.report.Sched.steps
    (Int64.to_float o.report.Sched.vtime_ns *. 1e-9);
  (match o.result with
  | Some r ->
      Fmt.pf ppf
        "@.  checks=%d violations=%d settled=%d (at wipe: %d) resident<=%d \
         caught=%b"
        r.Kchecker.checks r.Kchecker.violations r.Kchecker.settled_writes
        o.settled_at_wipe r.Kchecker.max_resident_ops o.caught
  | None -> ());
  List.iter (fun p -> Fmt.pf ppf "@.  - %s" p) o.problems
