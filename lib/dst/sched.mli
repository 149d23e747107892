(** The deterministic cooperative scheduler — FoundationDB-style
    simulation for the live cluster.

    Every actor of a run (server loops, transport couriers, the
    checker, the fault injector, the nemesis, workload clients, and the
    root function itself) is an OCaml 5 effect-handler fiber inside the
    thread that called {!run}; none gets an OS thread.  A yield point
    ({!Regemu_live.Sched_hook.t}'s [suspend] or [sleep]) performs an
    effect carrying the actor's new state, and the handler parks the
    continuation.  At each step the runner evaluates which parked
    actors are runnable — [Ready], blocked with a true predicate or an
    expired timeout, or sleeping past their deadline — picks one from
    a seeded PRNG, and resumes it until its next yield point.  Since no
    two actors ever run concurrently, the whole run (message
    interleavings, fault timings, history timestamps) is a pure
    function of [(seed, config, program)].

    All actors share one thread, and OCaml's mutexes are
    error-checking: an actor that parks holding a mutex it did not pass
    to [suspend] makes the next actor that locks it fail with
    [Sys_error], reported in the report's [actor_crashes], instead of
    hanging the run.

    {2 Virtual time}

    The scheduler owns a virtual nanosecond clock, installed as the
    {!Regemu_live.Clock} source for the duration of {!run}.  Time
    advances by [step_ns] per scheduling step and jumps to the earliest
    parked deadline when nothing is runnable — a 5-second backoff
    elapses in microseconds of wall time.  If nothing is runnable and
    no deadline is pending, the run is declared {e deadlocked} (the
    parked actor names are reported) and torn down.

    {2 Choice trace and replay}

    A choice is recorded only at real branch points (≥ 2 eligible
    actors).  Passing a recorded trace back via [?replay] reproduces
    the run step for step; a trace edited by the shrinker still
    replays safely — out-of-range values fold back in modulo the
    branch width, and an exhausted trace falls back to the PRNG.  The
    [digest] folds every step's chosen actor and branch width through
    FNV-1a, so two runs are schedule-identical iff their digests
    match.

    One run at a time per process: the virtual clock override is
    global. *)

(** Raised inside parked actors when the run is torn down after a
    deadlock or stall; treated as a clean actor exit.  [suspend]
    re-locks its [?mutex] before raising it, and an actor first granted
    after the teardown began never runs its body. *)
exception Halt

type config = {
  seed : int;
  step_ns : int;  (** virtual time elapsing per scheduling step *)
  max_steps : int;  (** livelock backstop: exceeded ⇒ [stalled] *)
}

(** [step_ns] 20 µs, [max_steps] 2,000,000. *)
val default_config : seed:int -> config

type t

type report = {
  steps : int;
  vtime_ns : int64;  (** final virtual clock *)
  digest : string;  (** FNV-1a over the schedule, hex *)
  choices : int array;  (** recorded branch choices, replayable *)
  sites : int array;
      (** per-branch-point coverage sites, aligned with [choices]: each
          packs the chosen actor's id and the branch width, the raw
          signal for the coverage-guided fuzzer's edge bitmap *)
  replay_clamped : int;
      (** replayed values that were out of range for their branch point
          and folded back in modulo the width *)
  replay_unused : int;
      (** replay entries left unconsumed because the run branched fewer
          times than the trace is long *)
  deadlock : string list option;  (** parked actors, if wedged *)
  stalled : bool;  (** hit [max_steps] *)
  actor_crashes : (string * string) list;  (** actor name, exception *)
  actors : int;  (** total actors over the run's lifetime *)
}

(** The {!Regemu_live.Sched_hook.t} connecting this scheduler to the
    live runtime — pass it to [Cluster.create ~sched], etc. *)
val hook : t -> Regemu_live.Sched_hook.t

(** Register a new actor (used by the harness for workload fibers; the
    cluster's own actors arrive through {!hook}). *)
val spawn : t -> name:string -> (unit -> unit) -> unit

(** [run cfg f] drives [f] (the root actor) and everything it spawns
    to completion under the deterministic schedule; returns [f]'s
    value — [None] if the root crashed or the run was torn down — and
    the {!report}.  Raises [Invalid_argument] on a non-positive
    [step_ns] or [max_steps]. *)
val run : ?replay:int array -> config -> (t -> 'a) -> 'a option * report
