(** Sharded history of high-level operations for a live run.

    Plays the role the trace plays in the simulator: every [write]/
    [read] on the emulated register takes a ticket at invocation and
    completes it at return.  Event order is a shared atomic counter, so
    the [invoked_at]/[returned_at] fields of the resulting
    {!Regemu_history.History.t} reflect {e real-time order}: operation
    [a] precedes operation [b] exactly when [a] returned before [b] was
    invoked, which is what the WS-Regularity and atomicity checkers
    need.

    Storage is sharded per client: each {!writer} appends into its own
    chunks under its own lock, so the op hot path never contends across
    clients.  A chunk holds its cells as parallel arrays (invocation
    tick and kind, written value, return tick, one int that is the
    invocation time until return and the latency after, result), so an
    operation costs five words and no per-op record, hop or option
    box.  Chunks start at 8 slots and double up to 256.  Latency is
    measured on the {e monotonic} clock ({!Clock}), immune to NTP
    steps.  Cells are merged and sorted by the atomic event counter
    only at {!snapshot}.

    A snapshot taken while writers are live is a consistent per-client
    prefix: an operation that returns during the snapshot may still
    appear pending, which the checkers already treat soundly (a pending
    operation is concurrent with everything after it).  The final
    snapshot, taken after client threads join, is exact. *)

open Regemu_objects
open Regemu_sim

type t
type writer
type ticket

val create : unit -> t

(** Register a client's private append log.  Called once per client,
    before its first operation.  A client is sequential: it invokes
    its next operation only after the previous one returned or was
    aborted, so its one pending cell, if any, is its newest. *)
val new_writer : t -> client:Id.Client.t -> writer

(** Take an invocation ticket.  Must be called before the operation
    sends its first message.  Lock-free across clients. *)
val invoke : writer -> Trace.hop -> ticket

(** Complete a ticket with the operation's result.  Must be called
    after the operation's last await. *)
val return : ticket -> Value.t -> unit

(** Mark a ticket whose operation escaped with an exception.  It stays
    pending in {!snapshot} and {!completed} (its effect may still land,
    so it has no return point), but {!poll} reports it [v_aborted], so
    an incremental reader can step past it instead of re-polling it
    forever. *)
val abort : ticket -> unit

(** Consistent snapshot of all operations so far (completed and
    pending), in invocation order, ready for the checkers. *)
val snapshot : t -> Regemu_history.History.t

(** {2 Incremental access (the online checker's feed)} *)

val writers : t -> writer list
val writer_client : writer -> Id.Client.t

type cell_view = {
  v_hop : Trace.hop;
  v_invoked_at : int;
  v_returned_at : int;  (** [0] while pending or aborted *)
  v_aborted : bool;
  v_result : Value.t;  (** meaningful once [v_returned_at > 0] *)
}

(** [poll w ~from f] visits [w]'s operations from position [from]
    onward, oldest first, under the writer's lock, and returns the
    writer's current length.  A poll that is nearly caught up costs
    O(new cells), not O(history) — the basis of incremental online
    checking.  A cell seen pending may be completed or aborted by a
    later poll of the same range; callers keep their own cursors.
    Every cell this poll missed is invoked at or after any {!clock}
    value read before the poll began. *)
val poll : writer -> from:int -> (cell_view -> unit) -> int

(** The next event tick: every invocation and return so far is below
    it. *)
val clock : t -> int

(** Number of completed operations. *)
val completed : t -> int

(** Number of invoked operations. *)
val invoked : t -> int

(** Bytes the log keeps alive, counted from what it holds: every
    chunk's arrays (allocated slots, not just used ones) and the chunk
    tables.  Written values and read results are the callers' data and
    are not counted.  Grows O(ops) — the log is
    never trimmed, unlike the keyspace's [Regemu_keyspace.Klog]. *)
val approx_bytes : t -> int

(** Monotonic-clock latency of each completed operation, in
    nanoseconds, in invocation order. *)
val latencies_ns : t -> int list
