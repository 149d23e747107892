(** Online consistency checking of a live run.

    A checker thread periodically polls the cluster's history log and
    checks the paper's WS-Regularity incrementally: each newly
    completed write joins one {!Regemu_history.Write_order}, and each
    newly completed read is checked once against its window of
    admissible writes, so a violation is caught while the run is still
    in progress, not post-mortem.  [stop] runs one more pass over the
    log's tail and, when requested, the brute-force atomicity
    (linearizability) check for write-back variants.

    Mid-run checks are sound: a pending write is treated as concurrent
    with everything after its invocation, which is exactly its status
    in real time. *)

type result = {
  checks : int;  (** passes over the log (including the final one) *)
  ws : Regemu_history.Ws_check.verdict;
      (** first violation seen, otherwise the final verdict *)
  atomic : bool option;
      (** final linearizability verdict, when requested and the
          history is small enough to brute-force *)
  ops_checked : int;  (** operations in the final history *)
}

(** [true] when nothing was violated. *)
val ok : result -> bool

val result_pp : result Fmt.t

type t

(** [spawn cluster ()] starts the checker thread (or, with [sched], a
    cooperative checker actor whose ticks elapse in virtual time).
    [final_atomic] additionally runs {!Regemu_history.Linearize} with
    register semantics on the final history when it has at most
    [atomic_limit] operations (default 600 — the brute force is
    exponential in concurrency, not length, but stay modest). *)
val spawn :
  ?sched:Sched_hook.t ->
  Cluster.t ->
  ?interval_s:float ->
  ?final_atomic:bool ->
  ?atomic_limit:int ->
  unit ->
  t

(** Join the checker thread, then the final pass and checks. *)
val stop : t -> result

(** {2 The incremental core}

    What the checker thread runs each tick, usable on its own over any
    {!Histlog}.  Its state is bounded by the operations in flight: per
    client a cursor past every completed or aborted cell, the write
    order settled up to the frontier below which nothing can still
    arrive, and the completed reads not yet checked. *)

type online

val online : Histlog.t -> online

(** [tick o] polls every client's new cells and checks the reads that
    completed since the last tick.  [Vacuous] while the writes seen are
    not write-sequential (then the reads are held for a later tick),
    [Violated] for the first read outside its admissible window, else
    [Holds].  An aborted write stays in flight for good; an aborted
    read constrains nothing. *)
val tick : online -> Regemu_history.Ws_check.verdict

(** History cells visited by all ticks so far: O(new cells + pending
    cells) per tick. *)
val cells_polled : online -> int
