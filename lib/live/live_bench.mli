(** Throughput/latency benchmark of the live cluster runtime: ABD (and
    its atomic write-back variant) vs the paper's Algorithm 2 vs the
    CDS multi-writer data store ({!Cds_live}), across client-thread
    counts and fault rates, every run validated online by the
    consistency checkers.

    A run spawns [n] server threads, [k] writer + [readers] reader
    threads, an online {!Checker}, optionally a {!Fault} injector, and
    measures wall-clock ops/s, p50/p95/p99 operation latency (via
    {!Regemu_sim.Stats.percentiles}), and the resident-space maxima
    sampled from the server stores through the run. *)

type algo = Abd | Abd_wb | Alg2 | Cds

val algo_name : algo -> string

(** Every valid {!algo_name}, in declaration order — the list CLI
    errors quote. *)
val algo_names : string list

val algo_of_name : string -> algo option

(** [emulation algo cluster ~f ~writers] builds [algo] on [cluster]
    before {!Cluster.start} and returns its [(write, read)]; Algorithm 2
    is sized [k = List.length writers], [n = Cluster.num_servers
    cluster]. *)
val emulation :
  algo ->
  Cluster.t ->
  f:int ->
  writers:Cluster.client list ->
  (Cluster.client -> Regemu_objects.Value.t -> unit)
  * (Cluster.client -> Regemu_objects.Value.t)

(** A gray-failure run: every server link slowed, optionally one
    straggler slowed further, and the hedge/deadline machinery armed
    ({!Hedge}, {!Deadline}). *)
type gray = {
  base_us : int;  (** per-envelope delay on every server link *)
  straggler : (int * int) option;
      (** [(server, delay_us)]: the one server whose links run slower *)
  hedge_fires : bool;  (** [false] arms the hedge but never fires it *)
}

type spec = {
  algo : algo;
  k : int;  (** writer threads *)
  readers : int;
  f : int;
  n : int;
  ops_per_client : int;
  couriers : int;
  chaos : bool;  (** crash/restart injector + delays + duplication *)
  reorder : bool;  (** transport reordering (off in saturation mode) *)
  backend : Transport.backend;  (** message fabric under the cluster *)
  seed : int;
  gray : gray option;  (** [None]: no link delay, no hedge, no deadline *)
}

(** [k + readers = 4] client threads, [n = 2f+1] servers by default;
    [backend] defaults to [Threads], no gray. *)
val default_spec :
  ?backend:Transport.backend -> algo:algo -> chaos:bool -> seed:int -> unit -> spec

type outcome = {
  spec : spec;
  ops : int;  (** completed operations *)
  wall_s : float;
  throughput : float;  (** completed ops per second *)
  mean_us : float;
  pcts_us : (float * float) list;  (** (level, latency µs) for p50/p95/p99 *)
  msgs_sent : int;
  msgs_delivered : int;
  msgs_duplicated : int;
  msgs_delayed : int;
  msgs_dropped : int;  (** lost to the chaos drop rate *)
  msgs_cut : int;  (** lost to a partition *)
  crashes : int;
  restarts : int;
  retries : int;  (** client retransmissions *)
  unavailable : int;  (** operations failed fast *)
  inline_steps : int;
      (** requests stepped on their delivering thread rather than by
          the server thread ({!Cluster.stats}) *)
  hedges : int;  (** hedge requests sent *)
  hedge_wins : int;  (** rounds a hedged reply completed *)
  msgs_slowed : int;  (** envelopes held back by a gray link *)
  space_cells : int;
      (** resident cells, max over servers and over the run — sampled
          every 5 ms plus once at quiesce ({!Cluster.resident_space}) *)
  space_bytes : int;  (** resident bytes, same maxima *)
  space_cells_total : int;  (** cluster-wide resident cells at the peak *)
  check : Checker.result;
}

(** [true] when the run completed all operations and no checker
    violation was found. *)
val clean : outcome -> bool

(** [pct o p] is the latency in µs at level [p] (one of 0.50, 0.95,
    0.99); 0 when nothing was measured. *)
val pct : outcome -> float -> float

val outcome_pp : outcome Fmt.t

(** Run one specification to completion (spawns and joins all threads).
    An operation that fails with {!Cluster.Unavailable} or
    {!Cluster.Timeout} leaves the outcome short of its target, so not
    {!clean}.  [sink] instruments the run ({!Cluster.create}).  One
    sink may span several runs: trace recorders are per-run (thread
    names repeat), and metric registration is idempotent, so counters
    accumulate across the runs Prometheus-style.  Raises
    [Invalid_argument] on a malformed [gray]. *)
val run : ?sink:Sink.t -> spec -> outcome

(** [run_reps ~reps ~by specs] runs the whole list [reps] times
    round-robin, rep [i] at [seed + 1000 i], and keeps each spec's
    median outcome under [by] (throughput for a sweep, p99 for the
    tail A/B), its [spec] field set back to the caller's spec.  A
    point's repetitions are spread across the list, so a transient
    machine stall cannot poison all of them at once.  A rep that is
    not {!clean} is surfaced instead, so failures are never averaged
    away.  Default [reps = 1].  [sink] spans every run (see {!run}). *)
val run_reps :
  ?reps:int ->
  ?sink:Sink.t ->
  by:(outcome -> float) ->
  spec list ->
  outcome list

(** The standard suite: quiet and chaos runs of each algorithm. *)
val suite : ?ops_per_client:int -> seed:int -> unit -> spec list

(** The bounded, seed-fixed smoke suite for CI on the given backend
    (default [Threads]).  The [Socket] backend's smoke runs quiet
    (no chaos): a SIGKILLed child execs back with an empty store, and
    ABD under quorum-visible amnesia is not WS-regular — the checker
    would rightly flag it. *)
val smoke_suite : ?backend:Transport.backend -> unit -> spec list

(** The [regemu-live-bench/1] document: schema id, specs, and results. *)
val to_json : outcome list -> Regemu_obs.Json.t

(** Structural validation of a [regemu-live-bench/1] document: schema
    id, a non-empty [results] list, each with a [spec] object naming a
    known [algo] and [backend], numeric [ops_per_s] and
    [latency_p50/95/99_us], and a boolean [clean]. *)
val validate_live_json : Regemu_obs.Json.t -> (unit, string) result

(** {2 Saturation mode}

    The perf-trajectory benchmark: sweep client-thread counts at fixed
    [k = 1], [readers = clients - 1], [f = 1], [n = 3] on a quiet,
    non-reordering transport (peak pipeline), and report ops/s and
    latency percentiles per point, against the recorded pre-sharding
    baseline. *)

(** One saturation point.  Raises [Invalid_argument] if [clients < 2]. *)
val saturate_spec :
  ?backend:Transport.backend ->
  algo:algo ->
  clients:int ->
  ops_per_client:int ->
  seed:int ->
  unit ->
  spec

(** The default sweep: [2; 4; 8; 16]. *)
val saturate_clients : int list

(** The full single-backend sweep, ABD, Algorithm 2, and CDS at each
    client count. *)
val saturate_specs :
  ?backend:Transport.backend ->
  ?clients:int list ->
  ?ops_per_client:int ->
  seed:int ->
  unit ->
  spec list

(** {2 The three-way backend A/B}

    ABD at each client count on each backend, backends adjacent per
    count so {!run_reps}'s round-robin repeats every
    (clients, backend) triple under the same machine weather. *)

(** The A/B client counts: [16; 32; 64; 128; 256]. *)
val saturate_ab_clients : int list

(** [Threads; Domains; Socket] — the A/B arms, in emission order. *)
val saturate_ab_backends : Transport.backend list

val saturate_ab_specs :
  ?clients:int list -> ?ops_per_client:int -> seed:int -> unit -> spec list

(** Pre-sharding throughput on the reference machine, [(algo, clients,
    ops/s)] — the "before" column baked into the emitted document. *)
val seed_baseline_ops_s : (algo * int * float) list

(** The [BENCH_live.json] document in the [regemu-bench/2] schema:
    one benchmark entry per outcome ([ns_per_run] = ns per completed
    op) with throughput, percentiles, and a [backend] column; a
    non-threads row carries [speedup_vs_threads] against the
    same-algo same-clients threads row, a threads row the recorded
    pre-sharding [baseline_ops_per_s]/[speedup] extras. *)
val saturate_json : outcome list -> Regemu_obs.Json.t

(** Structural validation of a [regemu-bench/2] document: schema id,
    a valid [backend] on every row, numeric [ns_per_run], and no
    lingering [r_square] (dropped in /2). *)
val validate_bench_json : Regemu_obs.Json.t -> (unit, string) result
