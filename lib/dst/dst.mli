(** One deterministic simulation run: the full live stack — cluster,
    transport, checker, nemesis, workload — driven by {!Sched} so the
    entire run is a pure function of [(config, choices)].

    The harness mirrors [Regemu_bench.Bench.run]: writer and
    reader fibers issue operations through the selected algorithm while
    the incremental online checker ticks in virtual time and a
    {!Regemu_chaos.Schedule} replays against the virtual clock.  At the
    end it runs the {e full-pass} WS-Regularity check over the complete
    history and compares the two verdicts — the online checker's
    incrementality argument, tested rather than trusted.

    A run {e fails} when any of these hold: the online checker or the
    full pass reports a violation, their verdict classes disagree, the
    final atomicity check fails, an actor crashed, or the scheduler
    declared a deadlock or stall. *)

open Regemu_live
open Regemu_chaos

type config = {
  seed : int;  (** drives the schedule PRNG and every transport lane *)
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
      (** hedged quorum rounds + adaptive deadlines
          ({!Regemu_live.Hedge.default_config} /
          {!Regemu_live.Deadline.default_config}); default off *)
  nemesis : Schedule.t;  (** replayed in virtual time *)
  step_ns : int;  (** {!Sched.config} *)
  max_steps : int;
}

(** ABD, 1 writer × 2 readers × 8 ops, f=1 n=3, reorder + light
    drop/duplication, no nemesis.  One writer because WS-regularity
    is only checkable on write-sequential histories — concurrent
    writers would leave every verdict vacuous. *)
val default_config : seed:int -> config

type run_stats = {
  online : Checker.result;
  full_ws : Regemu_history.Ws_check.verdict;
  nemesis_counters : Nemesis.counters;
  cluster_stats : Cluster.stats;
  history_digest : string;
}

type outcome = {
  cfg : config;
  stats : run_stats option;  (** [None]: the run never reached its end *)
  report : Sched.report;
  violations : string list;  (** empty = clean run *)
}

val passed : outcome -> bool

(** [run ?choices cfg] executes one simulation.  [choices] replays a
    recorded interleaving ({!Sched.report.choices}); omitted, the
    seeded PRNG decides.  [sink] instruments the run
    ({!Regemu_live.Cluster.create}); since the whole stack runs in
    virtual time on a deterministic scheduler, two replays of one
    schedule yield byte-identical trace exports.  Pass a fresh sink
    per run.  Raises [Invalid_argument] on a malformed config. *)
val run : ?choices:int array -> ?sink:Regemu_live.Sink.t -> config -> outcome

(** The determinism fingerprint: schedule digest plus a hash of the
    observable history (clients, operations, results, logical order).
    Two invocations of [run] with equal inputs must agree on it
    byte-for-byte. *)
val run_digest : outcome -> string

(** Verdict class ("holds" / "vacuous" / "violated") — the unit of
    online-vs-full agreement. *)
val verdict_class : Regemu_history.Ws_check.verdict -> string

val config_json : config -> Regemu_obs.Json.t

(** Inverse of {!config_json} except [nemesis], which travels
    separately in the replay file ({!Dst_fuzz}). *)
val config_of_json : Regemu_obs.Json.t -> (config, string) result

val outcome_json : outcome -> Regemu_obs.Json.t
val outcome_pp : outcome Fmt.t
