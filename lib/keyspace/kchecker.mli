(** The online checker of a keyspace run: {!Regemu_live.Checker} over
    the cluster's operation log, one key per register, with the
    keyspace's defaults.

    Consistency is checked {e per key}: each key's subhistory must be
    WS-Regular, and the checker keeps, per key, only what future reads
    can still be compared against (see doc/keyspace.md for the
    frontier argument).  With [deep_sample = s > 0], keys whose
    {!Placement.hash} ({!Regemu_live.Checker.key_hash}) is [0 mod s]
    also retain their full subhistory
    (capped at [deep_cap]), and {!stop} re-checks each offline, the
    tail-end audit that keeps settling honest in every run. *)

type config = Regemu_live.Checker.config = {
  interval_s : float;  (** the least time between two passes *)
  deep_sample : int;  (** deep-check 1 key in this many; 0 disables *)
  deep_cap : int;  (** max retained ops per deep-checked key *)
}

(** Passes at least 20 ms apart, 1 key in 64 deep-checked, 4096 ops
    each. *)
val default_config : config

type t = Regemu_live.Checker.t

type violation = Regemu_live.Checker.Stats.violation = {
  v_key : int;
  v_detail : string;  (** pretty-printed first per-key violation *)
}

type result = Regemu_live.Checker.Stats.t = {
  checks : int;  (** reads decided *)
  violations : int;  (** reads that failed their window check *)
  first_violation : violation option;
  broken_keys : int;  (** keys gone non-write-sequential (vacuous) *)
  settled_writes : int;  (** completed writes folded away by settling *)
  pending_undecided : int;  (** reads never decided *)
  deep_keys : int;  (** keys deep-checked at {!stop} *)
  deep_evicted : int;  (** sampled keys over [deep_cap], excluded *)
  deep_mismatches : int;
      (** deep verdict Violated where the incremental check saw a clean
          write-sequential key — the settle-soundness alarm *)
  max_resident_ops : int;
      (** high-water mark of window + held reads + deep cells + aborted
          writes in flight *)
}

(** Start the checker over [log], gauges in [sink]: its passes run on
    the threads that complete operations ({!Regemu_live.Checker.start};
    an actor under [sched]). *)
val spawn :
  ?sched:Regemu_live.Sched_hook.t ->
  ?sink:Regemu_live.Sink.t ->
  ?config:config ->
  Klog.t ->
  t

(** Stop polling, consume the log's tail, decide every decidable read,
    run the deep cross-checks, and report.  Call after the workers have
    quiesced. *)
val stop : t -> result
