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
