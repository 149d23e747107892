(** The live message fabric: one nemesis-ready network API, one fault
    model, two backends that differ only in how messages move.

    {2 The fault model}

    The faults of the paper's asynchronous model are injected on every
    backend by the same code ({!Transport_intf}).  Each envelope is
    decided in two steps, with draws from a seeded per-lane RNG in a
    fixed order:

    + {e admit}: an envelope whose link server (its destination, or for
      a reply its source) is on the far side of a partition
      ({!split} / {!heal}) is {e cut}; otherwise it is {e dropped}
      with the current request or reply rate ([drop_prob], adjustable
      with {!set_drop}); otherwise it is {e duplicated} with
      [dup_prob] (at-least-once delivery; the protocol layer must
      tolerate it).  Drops and cuts lose the message for good: the
      client layer retransmits ({!Retry}).
    + {e hold}, for each surviving copy: a random {e delay} of up to
      [max_delay_us] with [delay_prob], plus the link's {e gray
      slowness} ({!set_slow}) — the replica is slow, not dead.

    Beyond the per-envelope decision, {e reorder} lets a lane pick a
    random queued envelope instead of the oldest, and a {e stutter}
    freezes a server's request lane ({!freeze} / {!thaw}): queued
    requests wait, nothing is lost, and replies the server already
    produced still flow.  Every fault is counted ({!cut}, {!dropped},
    {!duplicated}, {!delayed}, {!slowed}) and traced as a [msg] point
    event on the deciding lane's recorder.

    Messages to a {e crashed but reachable} server wait — in its
    mailbox or its parked lane — indistinguishable from an arbitrarily
    slow server, exactly the asynchronous model's treatment of
    crashes.

    {2 The backends}

    {ul
    {- [Threads] (the default): the seeded in-process courier fabric,
       sharded into per-destination {e lanes} — one per server plus
       one for all client-bound replies.  Each lane has its own lock,
       condition variable, ring buffer ({!Ringbuf}), seeded RNG and pool of
       [couriers] threads, started when the first envelope queues on
       the lane.  [send] admits under the lane lock; the
       couriers drain in batches, draw each envelope's hold, and
       deliver.  A courier holding a delayed envelope sleeps while its
       lane's other couriers deliver past it, so with [couriers = 1] a
       lane serialises its holds: one slow server's replies then delay
       every reply on the client lane (on a 2-vCPU VM, a 50 ms slow
       link on one server held the other servers' replies about 50 ms
       with one courier, and under 1 ms with two).  When a lane is idle and nothing needs
       holding, [send] delivers on the calling thread (without
       [reorder], or unscheduled), so [deliver] must be safe to call
       from courier {e and} sending threads.  A lane's admit draws
       and its couriers' reorder draws share the lane's RNG, so its
       fault stream is a pure function of the seed and the order in
       which sends and drains take the lane lock: under a scheduler
       that order is the schedule's.  This is the deterministic
       backend, and the only one a {!Sched_hook} can drive — a
       scheduler forces it regardless of the configured backend
       ({!effective_backend}).}
    {- [Socket]: each server is a forked process of the current
       executable speaking the length-prefixed binary {!Codec} over a
       Unix-domain socketpair (TCP-ready framing).  A per-server
       writer thread decides request faults before writing to the
       child; a reader thread decides reply faults before delivering.
       [reorder] is ignored: a stream socket is FIFO.  Crash injection
       SIGKILLs the process and in-kernel bytes die with it (real
       message loss); restarts exec a fresh image, so recovery is
       inherently amnesiac.  Executables hosting this backend must
       call {!Transport_socket.child_check} first thing in [main].}}

    {!sent} counts an envelope after admission on [Threads], and at
    [send] on [Socket] (where admission happens later, off the sending
    thread); duplicates count on both backends. *)

type backend = Transport_intf.backend = Threads | Socket

val backends : backend list
(** Every backend, [Threads] first: the one list the CLI enums, the
    bench A/B arms and the JSON validators derive from. *)

val backend_name : backend -> string
(** ["threads"], ["socket"] — the CLI/JSON spelling. *)

val backend_of_name : string -> backend option
(** The inverse of {!backend_name} over {!backends}. *)

val backend_pp : backend Fmt.t

type dest = Transport_intf.dest = To_server of int | To_client of int

type envelope = Transport_intf.envelope = {
  src : int;
  dest : dest;
  payload : Regemu_netsim.Proto.payload;
}

type config = Transport_intf.config = {
  couriers : int;  (** delivery threads {e per lane}; ≥ 2 interleaves *)
  delay_prob : float;  (** chance a delivery sleeps first *)
  max_delay_us : int;  (** uniform sleep bound, microseconds *)
  dup_prob : float;  (** chance a send is enqueued twice *)
  drop_prob : float;
      (** chance a send is discarded (initial rate for both requests
          and replies; adjustable at runtime with {!set_drop}) *)
  reorder : bool;  (** couriers pick a random queued envelope *)
  backend : backend;  (** which fabric carries the messages *)
  seed : int;
}

val default_config : seed:int -> config
(** [Threads] backend: 2 couriers per lane, reorder on, no delays, no
    duplication, no loss. *)

(** The backend a given configuration will actually run: [cfg.backend],
    except that a scheduler forces [Threads]. *)
val effective_backend : ?sched:Sched_hook.t -> config -> backend

type t

(** [create ?sched cfg ~servers ~deliver] builds the fabric for a
    cluster of [servers] server endpoints; no thread runs until
    {!start}, and an unscheduled [Threads] lane starts its couriers
    only when an envelope first queues on it ({!threads_started}).
    With [sched], couriers run as cooperative actors and
    delivery delays elapse in virtual time ({!Sched_hook}) — and the
    backend is forced to [Threads].  With [sink] ({!Sink.none} by
    default), every lane records sampled
    [send]/[recv]/[drop]/[cut]/[dup]/[delay]/[slow] point events on
    its own trace recorder and the message counters below register in the
    metrics registry.  [server_regs] (used by the [Socket] backend
    only) reports the parent-side register-cell count of a server, so
    freshly spawned or restarted children can mirror parent-side
    [alloc_reg] calls.  Raises [Invalid_argument] if a probability is
    outside [0,1], [couriers < 1], [servers < 1], or
    [max_delay_us < 0]. *)
val create :
  ?sched:Sched_hook.t ->
  ?sink:Sink.t ->
  ?server_regs:(int -> int) ->
  config ->
  servers:int ->
  deliver:(envelope -> unit) ->
  t

(** The backend this fabric runs on. *)
val backend : t -> backend

val start : t -> unit

(** [set_server_up t ~server up] tells the fabric about a crash or
    restart.  [Threads]: a no-op (the server's mailbox gates).
    [Socket]: down SIGKILLs the child process; up execs a fresh one
    (empty store) and resumes the parent-side outbox. *)
val set_server_up : t -> server:int -> bool -> unit

(** Enqueue an envelope (dropped silently after {!stop}). *)
val send : t -> envelope -> unit

(** {2 Hostile-network controls (the nemesis interface)} *)

(** [split t ~groups ~clients_with] installs a partition: server [s]
    is reachable iff its group is [List.nth groups clients_with] (the
    side the clients are on).  Servers not listed in any group are
    isolated.  Raises [Invalid_argument] on overlapping groups, a
    negative server id, or an out-of-range [clients_with]. *)
val split : t -> groups:int list list -> clients_with:int -> unit

(** Remove any partition: every server reachable again. *)
val heal : t -> unit

(** Adjust the message-loss rates at runtime (requests are
    client→server envelopes, replies server→client).  Raises
    [Invalid_argument] on a rate outside [0,1]. *)
val set_drop : t -> ?requests:float -> ?replies:float -> unit -> unit

(** Is [server] currently reachable from the clients? *)
val reachable : t -> server:int -> bool

(** {2 Gray-failure controls}

    Gray faults model a replica that is {e slow, not dead}: the
    quorum layers above must route around it rather than wait for it.
    All controls are runtime-adjustable from the nemesis, like
    {!split}/{!set_drop}. *)

(** [set_slow t ~server us] adds [us] microseconds to the delivery of
    every envelope on [server]'s link (requests to it and replies
    from it); [0] heals the link.  Only that link's envelopes wait,
    except on a [Threads] lane with [couriers = 1], which serialises
    its holds.  Raises [Invalid_argument] on a
    negative delay or an out-of-range server. *)
val set_slow : t -> server:int -> int -> unit

(** The current added delay on [server]'s link, microseconds. *)
val slow_us : t -> server:int -> int

(** [freeze t ~server] stops [server]'s request lane from draining:
    requests queue (nothing is dropped) until {!thaw}.  Replies from
    the server still flow. *)
val freeze : t -> server:int -> unit

(** Resume a frozen request lane, delivering its backlog. *)
val thaw : t -> server:int -> unit

(** Is [server]'s request lane currently frozen? *)
val frozen : t -> server:int -> bool

(** Clear every slow link and frozen lane at once. *)
val heal_gray : t -> unit

(** Stop accepting sends, discard the queues, join the couriers. *)
val stop : t -> unit

(** {2 Accounting} *)

val lanes : t -> int
(** Number of lanes: servers + 1 on [Threads] (the client lane), one
    per server on [Socket]. *)

val threads_started : t -> int
(** Courier threads started so far.  An unscheduled [Threads] lane
    starts its [couriers] at the first envelope it queues rather than
    delivers inline, so a fabric whose every send delivered inline
    reads 0.  Always 0 under a scheduler (its couriers are actors) and
    on [Socket] (its servers are child processes). *)

val sent : t -> int  (** envelopes accepted, duplicates included *)

val delivered : t -> int
val duplicated : t -> int
val delayed : t -> int

val slowed : t -> int  (** envelopes held by a gray slow link *)

val dropped : t -> int  (** lost to the random drop rates *)

val cut : t -> int  (** lost to a partition *)
