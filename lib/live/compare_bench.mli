(** The three-way space-vs-throughput-vs-fault-tolerance comparison:
    ABD, the paper's Algorithm 2, and the CDS multi-writer data store
    ({!Cds_live}, arXiv:1508.03762), raced on the same live cluster at
    the same load points and reported side by side.

    Each row of the emitted [regemu-compare/1] document is one
    (algorithm, backend, load point) cell carrying measured throughput,
    latency percentiles, the resident-space maxima sampled from the
    server stores ({!Cluster.resident_space}), and the paper-side
    predicted cluster-wide cell count for that configuration:

    - ABD: [2f+1] cells total (one unbounded max-register per replica,
      independent of the writer count);
    - Algorithm 2: {!Regemu_bounds.Formulas.register_upper_bound},
      i.e. [kf + ceil(k/z)(f+1)] cells spread across the cluster;
    - CDS: [k(2f+1)] cells (one slot per writer on every replica).

    The committed [BENCH_compare.json] is produced by [regemu compare];
    [regemu compare --smoke] runs the bounded variant in CI. *)

type load = {
  label : string;  (** row key, e.g. ["k2-f1"] *)
  k : int;  (** writers *)
  readers : int;
  f : int;
  n : int;
}

(** The full-bench load points: ["k2-f1"] (k=2, f=1, n=5) and
    ["k6-f2"] (k=6, f=2, n=7) — chosen so the three constructions'
    space budgets actually separate (at [k = 1] all three hold one
    resident cell per server). *)
val loads : load list

(** The CI smoke point: ["k2-f1"] with fewer readers. *)
val smoke_loads : load list

(** [Abd; Alg2; Cds] — one write-path per construction (the ABD
    write-back read variant occupies the same space as ABD and is
    left out). *)
val algos : Live_bench.algo list

(** [Threads; Domains].  The socket backend's stores live in child
    processes the space sampler cannot observe, so it is excluded
    from the comparison. *)
val backends : Transport.backend list

(** The predicted cluster-wide resident cell count for [algo] at a
    load point (see the module header). *)
val formula_cells_total : algo:Live_bench.algo -> load -> int

(** The full matrix as [(load, spec)] pairs: every load × algorithm ×
    backend, backends adjacent per (load, algo) so
    {!Live_bench.run_reps}'s round-robin measures each
    threads/domains pair under the same machine weather.  Default
    [ops_per_client = 150]. *)
val specs :
  ?loads:load list -> ?ops_per_client:int -> seed:int -> unit -> (load * Live_bench.spec) list

(** {!specs} restricted to {!smoke_loads} at 25 ops per client. *)
val smoke_specs : seed:int -> unit -> (load * Live_bench.spec) list

type row = { load : load; outcome : Live_bench.outcome }

(** Run the matrix through {!Live_bench.run_reps}, median by
    throughput, and zip the load points back on.  Default [reps = 1];
    pass [reps = 3] for the committed table. *)
val run :
  ?sink:Sink.t -> ?reps:int -> (load * Live_bench.spec) list -> row list

(** Every row's outcome is {!Live_bench.clean}. *)
val clean : row list -> bool

val row_pp : row Fmt.t

(** The [regemu-compare/1] document: schema id, seed, smoke flag,
    one row per (algorithm, backend, load), and an overall [clean]
    verdict. *)
val to_json : seed:int -> smoke:bool -> row list -> Regemu_obs.Json.t

(** Structural validation of a [regemu-compare/1] document — applied
    both to the document about to be written and to the bytes read
    back from disk: schema id, non-empty rows, known algorithm and
    backend names, numeric measurement fields, boolean [clean], and
    full coverage (exactly one row per algorithm × backend for every
    load label present — a missing or duplicated cell is an error). *)
val validate_compare_json : Regemu_obs.Json.t -> (unit, string) result
