(** The tail-latency A/B bench: what a single 10x gray straggler does
    to operation latency (ABD by default, any {!Live_bench.algo}), and
    how much of it hedged quorum rounds claw back.

    A tail run is a {!Live_bench.spec} whose [gray] names a straggler.
    Three arms are derived from it and run through {!Live_bench.run},
    all with the hedge/deadline machinery armed (so subset selection
    and the adaptive deadline are held constant across arms):

    - [baseline]: no straggler — the fault-free reference;
    - [unhedged]: the straggler, but hedges never fire — each round
      sends to its quorum-sized subset and waits, the ablation;
    - [hedged]: the same straggler, hedges live.

    Every server link carries [base_us] per envelope (the network
    floor), so a straggler at [10 * base_us] is a 10x straggler.  The
    headline number is hedged-under-straggler p99 over fault-free p99,
    written to the [regemu-tail/1] document.  The functions below take
    the arms' outcomes in {!arms} order, e.g. from
    [Live_bench.run_reps ~by:(fun o -> Live_bench.pct o 0.99) (arms s)]. *)

(** 1+3 clients, f=1 n=3, 120 ops/client, base 1ms, straggler 10ms on
    server 2; [algo] defaults to [Abd]. *)
val default_spec :
  ?backend:Transport.backend ->
  ?algo:Live_bench.algo ->
  seed:int ->
  unit ->
  Live_bench.spec

(** [default_spec] cut to 25 ops/client for CI. *)
val smoke_spec :
  ?backend:Transport.backend ->
  ?algo:Live_bench.algo ->
  seed:int ->
  unit ->
  Live_bench.spec

(** The [baseline; unhedged; hedged] arms of a tail run; the hedged
    arm is the spec itself with hedges on.  Raises [Invalid_argument]
    unless the spec's [gray] names a straggler. *)
val arms : Live_bench.spec -> Live_bench.spec list

(** Hedged-under-straggler p99 over fault-free p99; 0 when the
    baseline measured nothing. *)
val p99_ratio : Live_bench.outcome list -> float

val outcome_pp : Live_bench.outcome list Fmt.t

(** The [regemu-tail/1] document. *)
val to_json : Live_bench.outcome list -> Regemu_obs.Json.t

(** Structural check of a [regemu-tail/1] document: schema tag, the
    three arms in order with numeric latency percentiles, a numeric
    headline ratio. *)
val validate_tail_json : Regemu_obs.Json.t -> (unit, string) result
