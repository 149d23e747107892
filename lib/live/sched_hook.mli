(** The pluggable scheduler seam of the live runtime.

    Every blocking primitive in [lib/live] — mailbox pop, courier lane
    wait, client await, injector / checker / nemesis pacing — consults
    an optional hook of this type.  With no hook installed (the
    default), the runtime blocks on real [Condition]s and [Thread.delay]
    exactly as before: the OS scheduler owns the interleaving.  With a
    hook installed, those same yield points are surrendered to an
    external cooperative scheduler (see [Regemu_dst.Sched]), which runs
    exactly one actor at a time, picks the next one deterministically,
    and owns a virtual clock — so one (seed, config) pair fully
    determines the run.

    Contract for implementations:

    - [spawn ~name body] registers [body] as a new actor instead of
      [Thread.create].  The actor must not run until the scheduler
      grants it a turn.
    - [suspend ?timeout_s ?mutex ready] parks the calling actor until
      [ready ()] is true or, if [timeout_s] is given, until that much
      virtual time has passed — whichever comes first.  [mutex], when
      given, is released while parked and re-acquired before returning
      (the [Condition.wait] protocol).  [ready] is evaluated by the
      scheduler while no actor runs, so it must be a pure read of
      state the caller shares with other actors and must not itself
      suspend.
    - [sleep s] parks the calling actor for [s] {e virtual} seconds.

    Code holding a mutex across a yield point must pass it to
    [suspend]; an actor is never parked while holding a lock another
    actor can contend on.  A breach fails loudly rather than hanging:
    the deterministic scheduler runs every actor on one thread and
    OCaml's mutexes are error-checking, so the next actor to lock that
    mutex raises [Sys_error "Mutex.lock: Resource deadlock avoided"],
    which the scheduler reports as that actor's crash. *)

type t = {
  spawn : name:string -> (unit -> unit) -> unit;
  suspend : ?timeout_s:float -> ?mutex:Mutex.t -> (unit -> bool) -> unit;
  sleep : float -> unit;
}
