(** A live cluster: every server of the network model as a real OS
    thread draining a {!Mailbox} (started by the first request queued
    there), clients as caller threads blocking on per-client
    [Condition]s, and the environment as the {!Transport} couriers
    plus whatever crash/partition/loss faults are injected.

    The servers execute {!Regemu_netsim.Proto.step} — byte-for-byte the
    same protocol core as the scripted simulator in
    {!Regemu_netsim.Net}.  What changes is only the environment: the OS
    scheduler and the transport's seeded faults replace the scripted
    event choice.

    {2 Crash semantics}

    {!crash} halts a server's message processing; its mailbox keeps
    queueing.  {!restart} resumes it.  What the server remembers is the
    {!Recovery.mode} of the cluster: [Persist] (storage survives, the
    paper's model) or [Amnesia] (a diskless reboot — the store is
    wiped, and the consistency checkers are expected to flag the
    fallout).  In the asynchronous model a crashed process is
    indistinguishable from an arbitrarily slow one, so "stop consuming,
    never lose" is the faithful translation of a [Persist] crash.

    {2 Losing messages, and surviving it}

    With a loss-free transport a request eventually arrives; with
    {!Transport} drops or partitions it may not.  The client layer
    compensates: {!rpc} registers retransmission state for every
    request and {!await} retransmits due requests (exponential backoff,
    decorrelated jitter — see {!Retry}) each time the awaiting thread
    wakes.  Retransmissions reuse the request id, and reply dispatch is
    one-shot per id, so duplicate replies — whether from transport
    duplication or retransmission — never double-count toward a
    quorum.

    {2 Graceful degradation}

    [await ~need:(servers, required)] also runs the liveness watchdog:
    once an await has stalled past the retry grace period while fewer
    than [required] of the operation's [servers] are up and reachable,
    the operation fails fast with a structured {!Unavailable} instead
    of blocking until the deadline — and once the fault heals,
    subsequent operations proceed normally.  An operation that
    out-lives the per-op retry deadline fails the same way.  The
    legacy [op_timeout_s] backstop ({!Timeout}) remains for
    retry-disabled clusters and genuine liveness bugs.

    {2 Where a round runs}

    Without a scheduler, on the [Threads] backend, a request whose
    lane is idle and whose server is up, has no backlog and is not
    mid-step is stepped on the sending thread, and its reply is
    delivered there too: an uncontended quorum round runs to
    completion inside {!rpc}, with no server, courier or client
    wake-up.  Anything else (a backlog, a crashed or frozen server, a
    busy lane or server, transport delays, any scheduled run) takes
    the asynchronous path through the couriers and the server
    threads, which start the first time such a request needs them.
    Each server has one execution lock, held for every step and every
    amnesia wipe, so steps stay mutually exclusive and a request is
    never stepped ahead of one queued before it.

    {2 Locking discipline}

    Each client has one mutex guarding its reply-handler table,
    retransmission table, and any protocol state owned by that client.
    Reply handlers run {e under} that mutex, on whichever thread
    delivers the reply: a courier, a server thread, or the thread that
    holds the mutex and sent the request — then the handler runs in
    place, inside {!rpc}.  Handler bodies and the client's own thread
    never race; client code wraps its accesses in {!locked}.  A thread
    holding a client's mutex only ever blocks on leaf locks (lanes,
    mailboxes, server state) and only try-locks a server's execution
    lock; replies reach only the client that sent the request, so no
    thread holds one client's mutex while waiting for another's, and
    the system is deadlock-free by ordering. *)

open Regemu_objects
open Regemu_netsim

type config = {
  n : int;  (** number of server threads *)
  transport : Transport.config;
  op_timeout_s : float;
      (** an operation awaiting longer than this raises [Timeout] —
          turns a liveness bug into a test failure instead of a hang *)
  recovery : Recovery.mode;  (** what restart preserves *)
  retry : Retry.config option;
      (** [None] disables retransmission and the watchdog (the loss-free
          PR 1 behaviour); [Some] makes clients survive a lossy
          transport *)
  hedge : Hedge.config option;
      (** [Some] makes {!rpc_quorum} contact a health-biased subset
          first and retransmit to the rest after an adaptive delay —
          the gray-failure defense; [None] (the default) broadcasts to
          every replica as before *)
  deadline : Deadline.config option;
      (** [Some] tightens the static per-op retry deadline to an
          adaptive estimate learned from this client's observed reply
          latencies; [None] (the default) keeps the static budget *)
}

val default_config : n:int -> seed:int -> config
(** [Persist] recovery, retry enabled with {!Retry.default_config},
    hedging and adaptive deadlines off. *)

exception Timeout of string

type cause = Quorum_lost | Deadline_exceeded

val cause_pp : cause Fmt.t

type unavailable = {
  client : Id.Client.t;
  cause : cause;
  elapsed_s : float;  (** since the operation's invocation *)
  reachable : int;  (** needed servers up and reachable at failure *)
  required : int;
}

(** The structured fail-fast result of an operation that cannot make
    progress: more than [f] of the servers it needs are down or
    partitioned away ([Quorum_lost]), or it out-lived its retry
    deadline ([Deadline_exceeded]).  Never raised while the cluster
    satisfies the model's [≤ f] fault bound. *)
exception Unavailable of unavailable

val unavailable_pp : unavailable Fmt.t

type t
type client

(** Raises [Invalid_argument] on a non-positive [n] or [op_timeout_s],
    or an invalid transport/retry configuration.  With [sched], every
    server loop and courier runs as a cooperative actor on the given
    scheduler and all blocking points park on it ({!Sched_hook}) —
    deterministic-schedule testing; without it (the default) the
    cluster runs on OS threads exactly as before.

    With [sink] ({!Sink.none} by default), the cluster traces itself:
    each client records sampled operation spans (with nested [await]
    quorum-wait spans) plus always-recorded [retry]/[unavailable]
    events, a control-plane recorder logs
    [crash]/[restart]/[partition]/[heal]/[set-drop] instants, the
    transport records per-lane message points, and the cluster's
    counters — message totals, retries, backoff histogram, op and
    mailbox totals — register in the metrics registry.  The sink also
    reaches components built {e on} this cluster ({!Checker},
    {!Fault}) via {!sink}. *)
val create : ?sched:Sched_hook.t -> ?sink:Sink.t -> config -> t

(** The observability sink the cluster was created with. *)
val sink : t -> Sink.t

(** Start the cluster.  Under [?sched], register every server and
    courier as a scheduler actor (timed parks replace the heartbeat
    and the hedge pacer).  Without one, start no thread here: each
    starts the first time it has work — a server's at the first
    request queued in its mailbox, a lane's couriers at the first
    envelope queued on it, the heartbeat at the first client that
    parks, the hedge pacer at the first armed hedge
    ({!stats}[.threads_started]).  Allocate clients and register
    cells before starting. *)
val start : t -> unit

val num_servers : t -> int
val recovery_mode : t -> Recovery.mode
val new_client : t -> client
val client_id : client -> Id.Client.t

(** Allocate a plain register cell on a server (before {!start}). *)
val alloc_reg : t -> server:int -> int

(** {2 Client-side primitives}

    The cluster is a {!Regemu_netsim.Quorum_client.RUNTIME}: the client
    protocols in [Quorum_client] run on it unchanged. *)

(** Run [f] under the client's mutex.  All client-side protocol state
    must be touched only under it. *)
val locked : client -> (unit -> 'a) -> 'a

(** [rpc t ~src server ~make ~handler] allocates a fresh rid, sends
    [make rid] to [server], registers the one-shot [handler], and (when
    retry is enabled) a retransmission entry that {!await} keeps
    resending until the first reply arrives.  [sticky] entries survive
    the end of the await that created them and keep being retransmitted
    by this client's later awaits — for requests whose acknowledgement
    matters beyond the current operation (Algorithm 2's covering
    writes).  The caller must hold the client's mutex.  [handler] may
    run before [rpc] returns, on the calling thread (see "Where a
    round runs" above). *)
val rpc :
  t ->
  src:client ->
  ?sticky:bool ->
  int ->
  make:(int -> Proto.payload) ->
  handler:(Proto.payload -> unit) ->
  unit

(** [rpc_quorum t ~src ~quorum ~make ~handler replicas] issues one
    quorum round's RPCs.  Without a hedge config this is exactly
    [List.iter (rpc ...)]: broadcast to every replica.  With one, the
    round contacts an initial subset of [quorum + spares] replicas —
    rotated by the client's seeded RNG, biased toward the healthiest
    (lowest reply-latency EWMA) — and arms the deferred rest behind the
    adaptive hedge delay; if the round is still open when it elapses,
    the deferred replicas are contacted too (fresh rids, so the
    one-shot dispatch dedupes hedged replies like retransmitted ones).
    The hedge disarms with the round.  The caller must hold the
    client's mutex and should pass the same [replicas] to [await]'s
    [need] so the watchdog sees the whole replica set. *)
val rpc_quorum :
  t ->
  src:client ->
  quorum:int ->
  make:(int -> Proto.payload) ->
  handler:(Proto.payload -> unit) ->
  int list ->
  unit

(** Block the calling thread until [pred] holds.  [pred] is evaluated
    under the client's mutex; it is re-checked whenever a reply is
    dispatched to this client and on a periodic heartbeat, and each
    wake retransmits the client's due requests.  [need = (servers,
    required)] names the servers the operation draws replies from
    (with multiplicity, if several awaited replies live on one server)
    and how many replies the predicate needs: the watchdog uses it to
    fail fast with {!Unavailable} when the quorum is unreachable.
    Raises {!Timeout} after [op_timeout_s] as a last-resort backstop. *)
val await : t -> client -> ?need:int list * int -> (unit -> bool) -> unit

(** What {!invoke} yields: the operation's result. *)
type call = Value.t

(** {2 High-level operations}

    [invoke t cl ?key hop body] records the operation on [key] (default
    0, the one register of a register run) in the cluster's
    {!Histlog} (real-time invocation ticket), runs [body] on the
    calling thread, records the return, and yields the result.  Starts
    the per-op retry-deadline clock.  If [body] escapes with an
    exception (e.g. {!Unavailable}), the ticket is aborted
    ({!Histlog.abort}) and the exception re-raised: sound for the
    checker, which treats an aborted write as in flight for good. *)
val invoke :
  t -> client -> ?key:int -> Regemu_sim.Trace.hop -> (unit -> Value.t) -> call

(** {2 Failures} *)

val crash : t -> int -> unit

(** Resume a crashed server; under [Amnesia] recovery its store is
    wiped first. *)
val restart : t -> int -> unit

val is_up : t -> int -> bool
val crashed_count : t -> int

(** Up {e and} reachable through the current partition. *)
val is_reachable : t -> int -> bool

(** {2 Network faults (nemesis passthroughs to {!Transport})} *)

val split : t -> groups:int list list -> clients_with:int -> unit
val heal : t -> unit
val set_drop : t -> ?requests:float -> ?replies:float -> unit -> unit

(** {2 Gray faults (nemesis passthroughs to {!Transport})} *)

(** Add [us] microseconds to every envelope on a server's link
    (0 heals); the replica is slow, not dead. *)
val set_slow : t -> server:int -> int -> unit

val slow_us : t -> server:int -> int

(** Freeze / resume a server's request lane (a stutter burst). *)
val freeze : t -> server:int -> unit

val thaw : t -> server:int -> unit
val frozen : t -> server:int -> bool

(** Clear every slow link and frozen lane. *)
val heal_gray : t -> unit

(** A server's reply-latency EWMA as observed by the clients, seconds
    (0 until a reply from it is seen; meaningful only with hedging or
    adaptive deadlines on). *)
val server_health : t -> server:int -> float

(** {2 Observation} *)

(** The operation log: register and keyed operations alike.  Its one
    consumer, the online {!Checker}, polls it incrementally and trims
    what it has consumed. *)
val log : t -> Histlog.t

type stats = {
  msgs_sent : int;
  msgs_delivered : int;
  msgs_duplicated : int;
  msgs_delayed : int;
  msgs_slowed : int;  (** held by a gray slow link *)
  msgs_dropped : int;  (** lost to the random drop rates *)
  msgs_cut : int;  (** lost to a partition *)
  crashes : int;
  restarts : int;
  wipes : int;  (** amnesia restarts that erased a store *)
  retries : int;  (** client retransmissions *)
  unavailable : int;  (** operations failed fast with {!Unavailable} *)
  hedges : int;  (** hedged retransmissions to deferred replicas *)
  hedge_wins : int;  (** hedged replies that counted toward a quorum *)
  inline_steps : int;
      (** requests stepped on their delivering thread instead of the
          server thread (unscheduled [Threads] backend only) *)
  threads_started : int;
      (** server, courier, heartbeat and hedge-pacer threads this
          cluster started (see {!start}); 0 under a scheduler *)
  ops_completed : int;
}

val stats : t -> stats

(** Retransmission backoffs bucketed by duration:
    [(bucket_upper_bound_ms, count)], last bucket unbounded. *)
val backoff_histogram : t -> (int * int) list

(** Peek a server's storage (assertions/debugging only). *)
val peek_reg : t -> server:int -> int -> Value.t

(** Keys resident in a server's max-register table (see
    {!Regemu_netsim.Proto.num_keys}) — the per-server space metric of
    the keyspace experiments. *)
val server_num_keys : t -> server:int -> int

(** One CDS per-writer slot of one server's store; {!Value.v0} for a
    slot never written there. *)
val peek_slot : t -> server:int -> int -> Value.t

(** Cells resident on one server's store — see
    {!Regemu_netsim.Proto.resident_cells}. *)
val server_resident_cells : t -> server:int -> int

(** Bytes resident on one server's store (canonical wire encoding). *)
val server_resident_bytes : t -> server:int -> int

(** [(cells_max, bytes_max, cells_total)] over all servers: the
    per-server maxima of resident cells and bytes plus the cluster-wide
    cell total.  Best-effort: the stores are read without
    synchronisation, so a read racing a server step may see a store
    mid-update or raise.  Parent-side only on [Socket] (children own
    the real stores). *)
val resident_space : t -> int * int * int

(** Stop everything: revive crashed servers so they can exit, close
    mailboxes, stop the transport, join every thread that started.
    No thread starts once shutdown has begun.  Idempotent. *)
val shutdown : t -> unit
