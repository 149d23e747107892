(** Deterministic-schedule testing of the keyspace and its GC'd
    checker.

    A run drives an open-loop keyspace workload under the virtual
    scheduler ({!Sched}), with {!Regemu_keyspace.Kchecker} as a
    cooperative actor — one (seed, config) pair fully determines the
    run.  With [wipe_frac > 0], after that fraction of the virtual
    load duration an injection fiber rolls an {e amnesia wipe} over
    every server (crash + diskless restart, one at a time, so quorums
    stay live): every per-key register silently reverts to the initial
    value, a WS-Regularity violation for any key written earlier.

    The point of the regression: the wipe fires {e after} the checker
    has settled (GC'd) a prefix of history — [settled_at_wipe] proves
    it — and the checker must flag the fallout anyway, from the
    floor writes it kept.  Settled means settled. *)

type profile = Quiet  (** clean transport *) | Chaos  (** drops + dups + reorder *)

val profile_name : profile -> string
val profile_of_name : string -> profile option

type config = {
  seed : int;
  profile : profile;
  n : int;
  f : int;
  keys : int;
  zipf : float;
  arrival_rate : float;  (** virtual ops/s *)
  total_ops : int;
  window : int;
  write_fraction : float;
  deep_sample : int;
  wipe_frac : float;  (** 0 disables injection; else fraction of the
                          load duration after which the wipe rolls *)
  step_ns : int;
  max_steps : int;
}

(** A small wiped run on the given profile. *)
val default_config : profile:profile -> seed:int -> config

type outcome = {
  cfg : config;
  result : Regemu_keyspace.Kchecker.result option;
      (** [None]: the run never reached its end *)
  load : Regemu_keyspace.Openload.outcome option;
  report : Sched.report;
  settled_at_wipe : int;  (** GC'd writes when the wipe began; -1 if no wipe *)
  caught : bool;  (** the checker flagged a violation *)
  problems : string list;  (** harness-level failures (deadlock, crash…) *)
}

val run : ?sink:Regemu_live.Sink.t -> config -> outcome

(** The regression predicate: the run completed, a prefix was settled
    before the wipe, and the checker caught the fallout. *)
val gc_soundness_holds : outcome -> bool

val outcome_pp : outcome Fmt.t
