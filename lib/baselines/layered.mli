(** The [(2f+1)k]-register construction for [n = 2f+1] (Sections 1
    and 4): every server implements a [k]-writer max-register out of
    [k] base registers (one per writer), and a quorum protocol runs on
    top.

    Because base registers can crash with their server, a writer may
    not wait for its own register on every server; it waits for [f+1]
    servers to durably hold its new timestamped value.  A register
    whose previous low-level write is still pending is not written
    again; its response handler re-sends the current value instead.

    This is Algorithm 2 at [n = 2f+1]: there [z = 1], so each writer
    owns a set of [2f+1] registers and its quorum is [|R| - f = f+1].
    It is built by {!Regemu_core.Algorithm2.make}, with register [j] of
    every set placed on server [j].

    At [n = 2f+1] the object count [(2f+1)k = kf + k(f+1)] is exactly
    [Formulas.register_upper_bound] — the point where the paper's lower
    and upper bounds coincide. *)

val factory : Regemu_core.Emulation.factory
