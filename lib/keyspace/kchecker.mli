(** Memory-bounded online WS-Regularity checker for a keyspace.

    The keyspace is many independent per-key max-register emulations,
    so consistency is checked {e per key}: each key's subhistory must
    be WS-Regular.  The checker consumes the {!Klog} incrementally and
    keeps, per key, only what future reads can still be compared
    against — not the key's whole history.  Each key's state is one
    {!Regemu_history.Write_order}, the incremental WS-Regularity rule
    the live checker runs too:

    - a {e window} of completed writes whose returns are at or above
      the GC frontier, plus
    - the {e floor}: the single latest write settled below the frontier
      (the "latest preceding write" base any future read may still
      need), plus a sticky broken flag.

    {2 The frontier argument (settled means settled)}

    The frontier [F] is the least event tick any {e unconsumed}
    operation can carry: per worker it is the tick of the first
    unconsumed cell (or the clock read under that worker's lock when
    fully consumed — see {!Klog.poll_view}), and [F] is the minimum
    over workers.  Every operation consumed later is invoked at or
    after [F].  Hence:

    - A read is {e decided} only once its return tick is [<= F]: every
      write invoked before the read returned has then been consumed,
      so the read's window of admissible writes
      ({!Regemu_history.Write_order.check_read}) is complete.
      Undecidable reads wait in a pending queue bounded by the
      in-flight window.
    - A write returning strictly below [F] is final in the key's write
      order (any later-consumed write is invoked at or after [F],
      strictly after this one returned) and can only ever serve a
      future read as "latest preceding write" if it is the {e newest}
      such write.  So the settle step folds all such writes into the
      floor and discards the rest — GC that never discards an answer
      a future read could need.  A violation injected {e after} a
      prefix is settled is therefore still caught: the stale value the
      fault resurrects conflicts with the floor.

    {2 Per-round cost}

    A round costs O(cells consumed + pending reads + open windows):
    it consumes each writer's new cells, scans the pending-read queue
    once to decide what the frontier allows, and settles only the
    {e open} keys — those with a non-empty window, tracked as a set
    that a completed write joins and that a key leaves when its window
    empties (settled or broken).  A key that settles to its floor costs
    nothing more until it is written again; no per-round walk visits
    every key ever seen.  Only {!stop} folds over all keys, once.

    Keys whose write order goes non-sequential (concurrent or aborted
    writes) turn sticky-broken: their later reads are vacuous, exactly
    as the closed-form check requires.

    {2 Sampled deep-checking}

    With [deep_sample = s > 0], keys with [Placement.hash key mod s =
    0] additionally retain their {e full} subhistory (capped; a key
    overflowing the cap is excluded and counted), and {!stop} runs the
    offline {!Regemu_history.Ws_check.check_ws_regular} on each,
    cross-checking the incremental verdicts — the tail-end audit that
    keeps the GC honest in every run, not just in tests. *)

type config = {
  interval_s : float;  (** poll pacing *)
  deep_sample : int;  (** deep-check 1 key in this many; 0 disables *)
  deep_cap : int;  (** max retained ops per deep-checked key *)
}

val default_config : config

type t

type violation = {
  v_key : int;
  v_detail : string;  (** pretty-printed first per-key violation *)
}

type result = {
  checks : int;  (** reads decided *)
  violations : int;  (** reads that failed their window check *)
  first_violation : violation option;
  broken_keys : int;  (** keys gone non-write-sequential (vacuous) *)
  settled_writes : int;  (** completed writes discarded by the GC *)
  pending_undecided : int;  (** reads never decided (quiescence gap) *)
  deep_keys : int;  (** keys deep-checked at {!stop} *)
  deep_evicted : int;  (** sampled keys over [deep_cap], excluded *)
  deep_mismatches : int;
      (** deep verdict Violated where incremental saw a clean
          write-sequential key — the GC-soundness alarm *)
  max_resident_ops : int;
      (** high-water mark of window + pending + deep cells — the
          bounded-memory claim, measured *)
}

(** Spawn the checker over [klog].  Gauges ([kchecker.resident_ops],
    [kchecker.keys], [kchecker.open_keys], [kchecker.violations]) and
    the settled-prefix counter register in [sink]'s metrics registry. *)
val spawn :
  ?sched:Regemu_live.Sched_hook.t ->
  ?sink:Regemu_live.Sink.t ->
  ?config:config ->
  Klog.t ->
  t

(** Current decided-read count (monotone; test/progress use). *)
val checks : t -> int

(** Distinct keys the checker holds state for (every key ever read or
    written). *)
val keys : t -> int

(** Keys with a non-empty window right now — the only keys the next
    settle step visits. *)
val open_keys : t -> int

(** Writes discarded by the settle GC so far — the regression tests
    read it mid-run to prove a prefix was GC'd {e before} a fault was
    injected. *)
val settled : t -> int

(** Violations seen so far. *)
val violations_so_far : t -> int

(** Resident window + pending + deep cells right now. *)
val resident_ops : t -> int

(** Stop polling, consume the log's tail, decide every decidable read,
    run the deep cross-checks, and report.  Call after the workers have
    quiesced (joined); reads still pending then are counted in
    [pending_undecided], never guessed at. *)
val stop : t -> result
