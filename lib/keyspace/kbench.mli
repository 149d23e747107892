(** The keyspace benchmark: one open-loop run per zipf skew, emitting
    the [regemu-keyspace/1] JSON trajectory.

    Each skew gets a fresh cluster, keyspace, and memory-bounded
    checker; the outcome records throughput, per-key server space
    (max/total resident cells), checker verdicts, and the checker's
    resident high-water mark against the spec's fixed [budget_ops] —
    the measured form of the bounded-memory claim. *)

(** The per-key quorums are the keyed ABD construction
    ({!Kspace}); the document records it as ["algo": "abd"]. *)
type spec = {
  n : int;
  f : int;
  keys : int;
  zipfs : float list;  (** one run per skew *)
  arrival_rate : float;
  total_ops : int;  (** per skew *)
  window : int;
  write_fraction : float;
  seed : int;
  deep_sample : int;
  budget_ops : int;  (** resident-op budget the checker must stay under *)
  backend : Regemu_live.Transport.backend;
      (** message fabric under each skew's cluster *)
}

val default_spec : spec

(** Small enough for [dune runtest]. *)
val smoke_spec : spec

type skew_outcome = {
  zipf : float;
  ops_per_s : float;
  completed : int;
  failed : int;
  elapsed_s : float;
  max_lateness_s : float;
  checks : int;
  violations : int;
  settled_writes : int;
  max_resident_ops : int;
  within_budget : bool;
  server_cells_max : int;
  server_cells_total : int;
  deep_keys : int;
  deep_mismatches : int;
}

type outcome = { spec : spec; skews : skew_outcome list }

(** One fresh cluster + keyspace + checker per skew; [quiet] silences
    the per-skew progress lines.  [sink] reaches each skew's cluster,
    keyspace gauges, and checker. *)
val run : ?quiet:bool -> ?sink:Regemu_live.Sink.t -> spec -> outcome

val schema : string
(** ["regemu-keyspace/1"] *)

val to_json : outcome -> Regemu_obs.Json.t

(** Structural check of a [regemu-keyspace/1] document — run before
    every write of BENCH_keyspace.json, so a malformed trajectory is
    rejected instead of persisted. *)
val validate_keyspace_json : Regemu_obs.Json.t -> (unit, string) result

val outcome_pp : outcome Fmt.t
