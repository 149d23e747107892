(** Online consistency checking of a live run.

    A checker polls a {!Histlog} in passes at most [interval_s] apart
    and checks the paper's WS-Regularity incrementally, per key: a
    register run is the one key 0, a keyspace run has many.  It owns no
    thread.  Without a scheduler its passes run on the clients' own
    threads: the operation that completes once [interval_s] has passed
    since the last pass runs the next one, after its cell is logged
    and before it returns to its client (see {!Histlog.attach}).  Under a scheduler it is one actor whose
    pauses elapse in virtual time.  Each key's completed writes join
    one {!Regemu_history.Write_order}, and each completed read is
    checked once against its window of admissible writes, so a
    violation is caught while the run is still in progress, not
    post-mortem.  The checker is the log's one consumer: it trims each
    client's log behind its cursor, and its own state is bounded by the
    operations in flight (per key, the write order settled up to the
    frontier below which nothing can still arrive; the reads not yet
    checked; the keys it retains).

    Mid-run checks are sound: a pending write is treated as concurrent
    with everything after its invocation, which is exactly its status
    in real time, and so is an aborted write, for good.

    {2 Retention and the deep cross-check}

    What must outlive the trim is retained per key: with
    [deep_sample = s > 0], keys whose {!key_hash} is [0 mod s] keep
    their whole subhistory up to [deep_cap] operations (a key past the
    cap keeps none, and is counted), and {!finish} runs the offline
    {!Regemu_history.Ws_check.check_ws_regular} on each, cross-checking
    the incremental verdicts.  A register run retains key 0 this way
    when it needs its history afterwards ({!spawn}'s [retain]); its
    {!stop} runs no offline pass. *)

type config = {
  interval_s : float;
      (** the least time between two passes; mid-run passes come only
          with completing operations, so an idle run runs none *)
  deep_sample : int;  (** retain and deep-check 1 key in this many; 0 none *)
  deep_cap : int;  (** max retained ops per key *)
}

(** 20 ms passes, nothing retained. *)
val default_config : config

(** Deterministic non-negative hash of a key (FNV-1a over its decimal
    digits, 62 bits), the same in every process and OCaml version: it
    picks the deep sample, and the keyspace places keys with it. *)
val key_hash : int -> int

(** What a checker saw, counted per read and per key. *)
module Stats : sig
  type violation = {
    v_key : int;
    v_detail : string;  (** pretty-printed first per-key violation *)
  }

  type t = {
    checks : int;  (** reads decided *)
    violations : int;  (** reads that failed their window check *)
    first_violation : violation option;
    broken_keys : int;  (** keys gone non-write-sequential (vacuous) *)
    settled_writes : int;  (** completed writes folded away by settling *)
    pending_undecided : int;  (** reads never decided *)
    deep_keys : int;  (** keys deep-checked at {!finish} *)
    deep_evicted : int;  (** retained keys past [deep_cap], excluded *)
    deep_mismatches : int;
        (** deep verdict Violated where the incremental check saw a
            clean write-sequential key — the settle-soundness alarm *)
    max_resident_ops : int;
        (** high-water mark of {!resident_ops} *)
  }
end

type t

(** A checker that runs a pass only when {!tick} is called. *)
val online : ?config:config -> Histlog.t -> t

(** [tick t] polls every client's new cells, trims what it consumed,
    and checks the reads that completed since the last tick.
    [Violated] for the first read of this tick outside its admissible
    window, else [Vacuous] while some key's writes are not
    write-sequential (its reads are held for a later tick, or decided
    vacuous once that is for good), else [Holds].  An aborted write
    stays in flight for good; an aborted read constrains nothing. *)
val tick : t -> Regemu_history.Ws_check.verdict

(** Log cells visited by all ticks so far: O(new cells + pending
    cells) per tick. *)
val cells_polled : t -> int

(** Distinct keys with state (every key ever read or written). *)
val keys : t -> int

(** Keys with a non-empty window: the only keys a settle visits. *)
val open_keys : t -> int

(** Writes folded away by settling so far. *)
val settled : t -> int

(** Reads that failed their window check so far. *)
val violations_so_far : t -> int

(** Window writes, held reads, retained cells and aborted writes still
    in flight, across keys. *)
val resident_ops : t -> int

(** [start log] fills [log]'s consumer slot ({!Histlog.attach}), so
    the operation that completes once [config.interval_s] has passed
    since the last pass runs the next {!tick} on its own thread
    before the operation returns, so that client's next operation
    waits for the pass; a client that completes while a pass runs
    skips it, and a build starts no thread.  With
    [sched] it spawns a cooperative actor that ticks every
    [config.interval_s] of virtual time instead.  Gauges
    ([checker.checks], [checker.violations], [checker.cells_polled],
    [checker.resident_bytes], [checker.pending_ops],
    [checker.resident_ops], [checker.keys], [checker.open_keys]) and
    the [checker.settled] counter register in [sink].  [final_atomic]
    is {!spawn}'s. *)
val start :
  ?sched:Sched_hook.t ->
  ?sink:Sink.t ->
  ?config:config ->
  ?final_atomic:bool ->
  Histlog.t ->
  t

(** Stop the passes (a pass running on a client's thread ends first;
    nothing waits out an interval), run a last pass over the log's
    tail, and the deep cross-checks.  Returns the last pass's verdict.
    Call after the clients have quiesced; reads still pending then are counted in
    [pending_undecided], never guessed at. *)
val finish : t -> Regemu_history.Ws_check.verdict

(** Call after {!finish}. *)
val stats : t -> Stats.t

(** Key 0's retained history and its offline WS-Regularity verdict,
    computed on each call (after {!finish} or {!stop}); [None] when
    key 0 is not retained or went past the cap (never a truncated
    history). *)
val full_pass :
  t -> (Regemu_history.History.t * Regemu_history.Ws_check.verdict) option

(** Key 0's retained latencies in invocation order, in nanoseconds;
    [None] as for {!full_pass}. *)
val latencies_ns : t -> int list option

(** {2 The register front-end} *)

type result = {
  checks : int;  (** passes over the log (including the final one) *)
  ws : Regemu_history.Ws_check.verdict;
      (** first violation seen, otherwise the final verdict *)
  atomic : bool option;
      (** final linearizability verdict, when requested and the
          history is small enough to brute-force *)
  ops_checked : int;  (** operations invoked in the run *)
}

(** [true] when nothing was violated. *)
val ok : result -> bool

val result_pp : result Fmt.t

(** [spawn cluster ()] starts a checker over the cluster's log, its
    gauges in the cluster's sink.  [retain] keeps key 0's history of
    up to that many operations for {!full_pass} and {!latencies_ns}.
    [final_atomic] additionally runs {!Regemu_history.Linearize} with
    register semantics on that history when it has at most 600
    operations (the brute force is exponential in concurrency, not
    length, but stay modest). *)
val spawn :
  ?sched:Sched_hook.t ->
  Cluster.t ->
  ?interval_s:float ->
  ?final_atomic:bool ->
  ?retain:int ->
  unit ->
  t

(** Stop the passes and run a last pass, as {!finish} does but with
    no deep cross-check, then the register verdicts.  Costs the log's
    tail, never an interval. *)
val stop : t -> result
