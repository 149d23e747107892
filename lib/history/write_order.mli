(** The incremental WS-Regularity rule for one register (Appendix A.3).

    In a write-sequential schedule the writes form a total order, and a
    read may return any value in a contiguous window of it: from the
    latest write that precedes the read to the last one invoked before
    the read returned, with [v0] at position 0.  {!Ws_check} states
    this in closed form over a whole history, as the offline reference;
    this module keeps the order as operations complete, for the online
    checkers (one per register in the live checker, one per key in the
    keyspace checker).  Times are log ticks, and [a] precedes [b] iff
    [a] returned before [b] was invoked ({!History.precedes}).

    The order is, oldest first: the {e floor} (the latest settled
    write, or [v0]); the {e window} of completed writes not yet
    settled, by invocation; and a tail of in-flight writes that the
    caller supplies per query. *)

open Regemu_objects

type t

(** No write; the floor is [v0]. *)
val create : unit -> t

(** [add t ~inv ~ret v] inserts a completed write at its invocation
    position; writes may arrive in any order.  The order breaks when
    the write overlaps a neighbour or the floor.  A no-op once broken. *)
val add : t -> inv:int -> ret:int -> Value.t -> unit

(** Break the order for good and drop the window, e.g. for an aborted
    write, whose effect may land at any later time. *)
val break : t -> unit

(** Two writes overlapped or {!break} was called: reads are vacuous. *)
val broken : t -> bool

(** Writes in the window. *)
val length : t -> int

(** [settle t ~frontier] folds the window writes returning strictly
    below [frontier] into the floor and returns how many.  Sound only
    while every write still to be added and every read still to be
    checked is invoked at or after [frontier]: every folded write then
    precedes such a read, so only the newest can still be its value. *)
val settle : t -> frontier:int -> int

(** In-flight writes as (invocation tick, value), sorted by invocation. *)
type in_flight = (int * Value.t) array

(** The writes are totally ordered now: not broken, and at most one
    in-flight write, invoked after the latest return.  Under {!settle}'s
    contract this is {!History.write_sequential} of every write seen. *)
val total : t -> in_flight:in_flight -> bool

(** [check_read t ?in_flight ~inv ~ret got] checks a read invoked at
    [inv] that returned [got] at [ret].  Binary search finds positions
    [p..q] over the floor (0), the window and the tail: [p] the latest
    write preceding the read, [q] the last one invoked by [ret].
    [None] when [got] is among their values or the order is broken,
    else [Some] those values in order.  Meaningful while
    [total t ~in_flight] holds and every write invoked by [ret] has
    been added or is in flight (default: none in flight). *)
val check_read :
  t -> ?in_flight:in_flight -> inv:int -> ret:int -> Value.t -> Value.t list option
