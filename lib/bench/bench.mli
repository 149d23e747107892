(** The one live benchmark runner: a {!spec} names a cluster and a
    load, {!run} builds the cluster, drives the load, quiesces, reads
    the online checker's verdict and the cluster's counters after
    shutdown, and returns one {!row}.  Every [BENCH_*.json] the live
    stack writes is a {!document} of such rows in the [regemu-bench/3]
    envelope, written by {!to_json} and checked by {!validate}.

    Two loads share the runner:
    - {!Clients}: closed-loop writer and reader threads over one
      register of [algo] ({!Regemu_live.Live_bench.emulation}), judged
      by the register checker ({!Regemu_live.Checker.spawn});
    - {!Keyspace}: Poisson arrivals over zipf-popular keys of the keyed
      ABD store ({!Regemu_keyspace.Openload}), judged per key by the
      memory-bounded checker ({!Regemu_keyspace.Kchecker}) against a
      resident-op budget. *)

open Regemu_live

(** A gray-failure run: every server link slowed, optionally one
    straggler slowed further, and the hedge/deadline machinery armed
    ({!Hedge}, {!Deadline}) whether or not hedges fire, so a tail A/B's
    arms differ only in the straggler and the firing. *)
type gray = {
  base_us : int;  (** per-envelope delay on every server link *)
  straggler : (int * int) option;
      (** [(server, delay_us)]: the one server whose links run slower *)
  hedge_fires : bool;  (** [false] arms the hedge but never fires it *)
}

type clients = {
  k : int;  (** writer threads *)
  readers : int;  (** reader threads *)
  ops_per_client : int;
}

type keyspace = {
  keys : int;
  zipf : float;  (** key popularity skew; 0 is uniform *)
  arrival_rate : float;  (** ops per second *)
  total_ops : int;
  window : int;  (** worker-pool size, the in-flight bound *)
  write_fraction : float;
  deep_sample : int;  (** deep-check 1 key in this many *)
  budget_ops : int;  (** resident ops the checker must stay within *)
}

type load = Clients of clients | Keyspace of keyspace

type spec = {
  label : string;  (** the row's key within its document *)
  algo : Live_bench.algo;  (** a {!Keyspace} load runs keyed [Abd] only *)
  f : int;
  n : int;  (** servers *)
  couriers : int;  (** transport delivery threads *)
  chaos : bool;
      (** crash/restart injector plus message delays, duplication and
          drops *)
  reorder : bool;  (** transport reordering *)
  backend : Transport.backend;
  gray : gray option;
  seed : int;
  load : load;
}

(** A closed-loop spec at [f = 1], [n = 3], 3 couriers, quiet,
    reordering, no gray, empty label; [backend] defaults to [Threads]. *)
val closed :
  ?backend:Transport.backend ->
  algo:Live_bench.algo ->
  seed:int ->
  clients ->
  spec

(** An open-loop keyed-ABD spec, 2 couriers, quiet, reordering, labelled
    [zipf=<skew>]. *)
val keyspace :
  ?backend:Transport.backend -> n:int -> f:int -> seed:int -> keyspace -> spec

(** The cluster-wide cell count the construction commits to for a
    closed-loop spec: [2f+1] for ABD,
    {!Regemu_bounds.Formulas.register_upper_bound} for Algorithm 2,
    [k(2f+1)] for CDS; [None] for a keyspace load. *)
val formula_cells_total : spec -> int option

(** The [baseline; unhedged; hedged] arms of a tail A/B, labelled so:
    no straggler, the straggler with hedges that never fire, the
    straggler with hedges live.  Raises [Invalid_argument] unless the
    spec's [gray] names a straggler. *)
val tail_arms : spec -> spec list

type latency = {
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
}

type verdict =
  | Register of Checker.result  (** a {!Clients} run's register verdicts *)
  | Keys of Checker.Stats.t  (** a {!Keyspace} run's per-key counts *)

type row = {
  spec : spec;
  ops : int;  (** completed operations *)
  failed : int;  (** operations that ended [Unavailable] or [Timeout] *)
  wall_s : float;  (** the load's wall-clock time *)
  ops_per_s : float;
  latency : latency option;
      (** [None] when no per-operation latency was kept (keyspace) *)
  max_lateness_s : float;  (** open loop: worst start past arrival *)
  stats : Cluster.stats;  (** read once, after shutdown *)
  space_cells : int;  (** resident cells, max over servers, after shutdown *)
  space_bytes : int;  (** resident bytes, max over servers *)
  space_cells_total : int;  (** resident cells summed over servers *)
  check : verdict;
}

(** Every operation of the load completed and the checker found nothing:
    no WS-Regularity or atomicity violation, and for a keyspace no
    deep mismatch and the resident ops within [budget_ops]. *)
val clean : row -> bool

val row_pp : row Fmt.t

(** Run one spec to completion, every thread it starts joined.  [sink]
    instruments the run ({!Cluster.create}); one sink may span several
    runs.  Raises [Invalid_argument] on a malformed [gray] or a keyspace
    load under an algorithm other than ABD. *)
val run : ?sink:Sink.t -> spec -> row

(** [run_reps ~reps ~by specs] runs the whole list [reps] times
    round-robin, rep [i] at [seed + 1000 i], and keeps each spec's
    median row under [by], its [spec] set back to the caller's.  A rep
    that is not {!clean} is kept instead, so a failure is never a
    median away.  Default [reps = 1]. *)
val run_reps :
  ?reps:int -> ?sink:Sink.t -> by:(row -> float) -> spec list -> row list

(** {2 Documents} *)

type document = {
  name : string;  (** [regemu bench <name>] *)
  doc : string;  (** one line for the command's help *)
  file : string option;  (** the committed [BENCH_*.json], if any *)
  full : spec list;
  smoke : spec list;  (** bounded, for [dune runtest] *)
  reps : int;  (** per full spec; a smoke list runs once *)
  by : row -> float;  (** the median key *)
  summary : row list -> (string * Regemu_obs.Json.t) list;
  check : Regemu_obs.Json.t list -> (unit, string) result;
      (** what the document's rows must satisfy beyond each row's shape *)
}

(** [saturate] (BENCH_live.json), [tail] (BENCH_tail.json), [compare]
    (BENCH_compare.json), [keyspace] (BENCH_keyspace.json) and [suite]
    (no committed file; [regemu live] writes its one run as a suite
    document). *)
val documents : document list

(** The document of that name; raises [Not_found]. *)
val document : string -> document

val row_json : row -> Regemu_obs.Json.t

(** The [regemu-bench/3] envelope: [schema], [doc], [commit] (the
    checked-out git commit, suffixed [-dirty] when a tracked file other
    than a [BENCH_*.json] differs from it, or ["unknown"]), [machine]
    ([nproc], [ocaml]), [rows], the document's [summary] and [clean]. *)
val to_json : document -> row list -> Regemu_obs.Json.t

(** A [regemu-bench/3] document: a known [doc], a non-empty [commit], a
    [machine] with a positive [nproc], a non-empty [rows] list each with
    a [label], a known [algo] and [backend], numeric [ops_per_s], the
    four latency fields (numbers, or [null] when not measured), integer
    counters ([ops], [failed], [retries], [unavailable],
    [threads_started], [inline_steps], [violations]) and a
    boolean [clean]; a [summary] object, a boolean [clean], and the
    document's own {!document.check}. *)
val validate : Regemu_obs.Json.t -> (unit, string) result
