(** The {e unsound} strawman the lower bound rules out: ABD run
    verbatim over [2f+1] plain read/write registers (one per server),
    treating register writes as if they were write-max.

    With blind overwrites and no covering discipline, a stale pending
    low-level write left behind by an earlier high-level write can take
    effect {e after} a newer value was stored, erasing it on enough
    registers that a later read misses the newest value entirely.  The
    run of Lemma 4 / Figure 2 does exactly this;
    [Regemu_adversary.Violation] builds it against this factory and the
    WS-Safety checker flags the result.

    Under benign (e.g. synchronous, responses-first) schedules the
    algorithm behaves fine — which is why the asynchrony argument of
    the paper is needed at all.

    It is {!Regemu_netsim.Quorum_client.Alg2} in naive mode, the same
    strawman {!Regemu_netsim.Alg2_net} and the live backends build. *)

val factory : Regemu_core.Emulation.factory
