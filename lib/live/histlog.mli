(** The operation log of a live run: every high-level operation, on the
    one register or on any key of a keyspace, takes a ticket at
    invocation and completes it at return.

    Event order is a shared atomic counter, so ticks reflect
    {e real-time order}: operation [a] precedes operation [b] exactly
    when [a] returned before [b] was invoked, which is what the
    WS-Regularity and atomicity checkers need.

    Storage is sharded per client: each {!writer} appends into its own
    chunks under its own lock, so the op hot path never contends across
    clients.  A chunk holds its cells as parallel arrays (key,
    invocation tick and kind, written value, return tick, one int that
    is the invocation time until return and the latency after, result),
    so an operation costs six words and no per-op record, hop or option
    box.  Chunks start at 8 slots and double up to 256.  Latency is
    measured on the {e monotonic} clock ({!Clock}), immune to NTP
    steps.

    The log has one consumer, the online checker ([Checker]), which
    polls each writer behind its own cursor and {!trim}s what it has
    consumed: the log holds the operations in flight and the polling
    lag, not the run.  Without a scheduler the consumer's passes run
    on the completing clients' threads ({!attach}).  What must outlive the trim (a history to replay,
    latencies to report) the consumer copies into a {!store}. *)

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

(** Take an invocation ticket for an operation on [key] (default 0,
    the one register of a register run).  Must be called before the
    operation sends its first message.  The tick is taken under the
    writer's lock, so once a {!poll} of this writer has returned, every
    cell it missed is invoked at or after any {!clock} value read
    before that poll. *)
val invoke : writer -> ?key:int -> Trace.hop -> ticket

(** Complete a ticket with the operation's result.  Must be called
    after the operation's last await, holding no lock the {!attach}ed
    pass could need: once the cell is logged and the writer's lock
    released, a pass that is due runs here. *)
val return : ticket -> Value.t -> unit

(** Mark a ticket whose operation escaped with an exception.  It has
    no return point (its effect may still land), but {!poll} reports
    it [v_aborted], so the consumer can step past it instead of
    re-polling it forever.  A due pass runs here, as in {!return}. *)
val abort : ticket -> unit

(** [attach t ~interval_s pass] fills the log's one consumer slot.
    From then on a {!return} or {!abort} that finds [interval_s]
    elapsed since the last pass (or since [attach]) runs [pass] on
    its own thread, after logging the cell and before returning, so
    that one client starts its next operation only after the pass.
    Passes never overlap: a completing thread that finds one running
    skips it rather than wait, so no other client waits on the
    consumer.  An operation that runs no pass pays one compare
    against the clock {!return} reads anyway.  Raises
    [Invalid_argument] when the slot is filled. *)
val attach : t -> interval_s:float -> (unit -> unit) -> unit

(** Empty the consumer slot: waits for a running pass to end, and no
    pass starts after it returns.  A no-op on an empty slot. *)
val detach : t -> unit

val writers : t -> writer list
val writer_client : writer -> Id.Client.t

type cell_view = {
  v_key : int;
  v_hop : Trace.hop;
  v_invoked_at : int;
  v_returned_at : int;  (** [0] while pending or aborted *)
  v_aborted : bool;
  v_result : Value.t;  (** meaningful once [v_returned_at > 0] *)
  v_latency_ns : int;  (** meaningful once [v_returned_at > 0] *)
}

(** [poll w ~from f] visits [w]'s operations at absolute positions
    [from] onward, oldest first, under the writer's lock, and returns
    the writer's length (trimmed positions included).  A poll that is
    nearly caught up costs O(new cells), not O(history).  A cell seen
    pending may be completed or aborted by a later poll of the same
    range; callers keep their own cursors and never ask for trimmed
    positions back. *)
val poll : writer -> from:int -> (cell_view -> unit) -> int

(** [trim w ~upto] releases every chunk wholly below absolute position
    [upto]; the caller has consumed those positions. *)
val trim : writer -> upto:int -> unit

(** The next event tick: every invocation and return so far is below
    it. *)
val clock : t -> int

(** Number of completed operations (aborted ones excluded). *)
val completed : t -> int

(** Number of invoked operations. *)
val invoked : t -> int

(** Bytes the log keeps alive, counted from what it holds: every live
    chunk's arrays (allocated slots, not just used ones) and the chunk
    tables.  Written values and read results are the callers' data and
    are not counted. *)
val approx_bytes : t -> int

(** {2 Retained copies}

    A store keeps consumed cells in the log's own layout (the key
    column holds the client), for a consumer that needs them after the
    trim. *)

type store

val store : unit -> store

(** Copy a cell seen by {!poll} (completed or aborted). *)
val keep : store -> client:Id.Client.t -> cell_view -> unit

(** Cells kept. *)
val kept : store -> int

(** Bytes the store keeps alive, counted as {!approx_bytes} counts. *)
val store_bytes : store -> int

(** The kept cells in invocation order with dense indexes, ready for
    the offline checkers.  An aborted cell is pending: its effect has
    no return point. *)
val history : store -> Regemu_history.History.t

(** Monotonic-clock latency of each completed kept cell, in
    nanoseconds, in invocation order. *)
val latencies_ns : store -> int list
