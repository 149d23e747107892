(** Algorithm-level invariants decidable from a trace.

    Unlike {!Wellformed} (substrate correctness), these are properties
    of specific {e algorithms}, checkable post-hoc on any recorded run:

    - {!single_pending_write_per_writer_register}: a client never has
      two of its own writes pending on one register.  Algorithm 2's
      coverSet discipline and the layered construction's queueing
      guarantee it; the naive algorithm violates it (that is exactly
      its flaw).
    - {!max_pending_writes_at_return}: when a high-level write returns,
      its writer has at most [f] of its own low-level writes pending —
      the "leaves no more than f covered registers" obligation from the
      paper's upper-bound argument (Observation 3).

    Both are stated once, as the incremental {!Monitor}; the offline
    checks are folds of it over a whole trace. *)

open Regemu_objects
open Regemu_sim

type violation = { at : int; client : Id.Client.t; detail : string }

val violation_pp : violation Fmt.t

(** Both invariants in one pass over a growing trace, on int-array
    counters of pending low-level writes per client and per
    (client, object).  Each verdict is the first violation of its
    invariant ([at] is the violating entry's time), or [Ok ()]. *)
module Monitor : sig
  type t

  (** [f] is the bound {!pending_at_return} checks. *)
  val create : f:int -> t

  (** [observe m tr] feeds [m] the entries [tr] recorded since the last
      call (all of them on the first).  [tr] must be the one trace [m]
      has been observing, grown since. *)
  val observe : t -> Trace.t -> unit

  val single_pending : t -> (unit, violation) result
  val pending_at_return : t -> (unit, violation) result
end

val single_pending_write_per_writer_register :
  Trace.t -> (unit, violation) result

(** [max_pending_writes_at_return tr ~f] checks every high-level write
    return. *)
val max_pending_writes_at_return :
  Trace.t -> f:int -> (unit, violation) result
