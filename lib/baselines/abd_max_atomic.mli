(** Atomic multi-writer ABD over max-registers: {!Abd_max} plus a
    reader {e write-back} phase ({!Abd_max.make}
    [~write_back_reads:true]).

    The paper targets WS-Regularity for its upper bounds precisely
    because atomicity usually requires readers to write (Section 1),
    which can make space depend on the number of readers for plain
    registers.  With max-register base objects the write-back reuses
    the same [2f+1] objects, so atomicity costs no extra space — only
    an extra round per read.  This gives the classic linearizable
    register: after a read returns [v], every later read returns a
    value at least as recent.

    Timestamps are totally ordered as [(ts, value)] pairs, so
    concurrent writers that pick the same numeric timestamp are still
    ordered consistently across all servers (write-max keeps the pair
    maximum).

    Atomicity is validated in the test suite by exhaustive
    linearization search over random concurrent schedules. *)

val factory : Regemu_core.Emulation.factory
