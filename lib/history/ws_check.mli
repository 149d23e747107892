(** Checkers for the paper's consistency conditions (Appendix A.3).

    Both conditions constrain only {e write-sequential} schedules; on a
    schedule with concurrent writes they hold vacuously.

    - {e WS-Regularity}: every complete read, together with all writes,
      has a linearization.
    - {e WS-Safety}: as WS-Regularity, but only for complete reads that
      are concurrent with no write.

    In a write-sequential schedule the writes are totally ordered by
    precedence, which reduces both checks to closed-form conditions on
    each read; no linearization search is needed.

    This module is the offline reference: it re-derives the write order
    from a whole history on every call.  The incremental rule the
    online checkers run lives in {!Write_order}; this module does not
    use it, so DPOR's terminal check, DST's online-against-full-pass
    agreement and the keyspace checker's deep cross-check compare two
    independent statements of the rule. *)

open Regemu_objects

type violation = {
  read : History.op;
  got : Value.t;
  allowed : Value.t list;  (** return values a linearization would permit *)
  reason : string;
}

val violation_pp : violation Fmt.t

type verdict =
  | Holds
  | Vacuous  (** the schedule is not write-sequential *)
  | Violated of violation

val verdict_pp : verdict Fmt.t
val verdict_equal : verdict -> verdict -> bool

val check_ws_regular : History.t -> verdict
val check_ws_safe : History.t -> verdict

(** The reason a WS-Regularity violation carries, shared with the
    online checkers so their reports read the same. *)
val regular_reason : string

(** [true] iff the corresponding check does not return [Violated]. *)
val is_ws_regular : History.t -> bool

val is_ws_safe : History.t -> bool
