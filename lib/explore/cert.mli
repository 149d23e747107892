(** [regemu-cert/1] exploration certificates.

    A certificate is the durable artifact of a bounded-exhaustive
    {!Regemu_mcheck.Dpor} run: the exact configuration explored, the
    transition counts, how much of the schedule space the reduction
    pruned, and the verdict.  It is the machine-checkable record that
    "algorithm X on configuration C has no WS-Safety or WS-Regularity
    violation under {e any} interleaving of this scenario" — or the
    counterexample tally when it does.

    [brute_force_floor = explored + pruned] is a lower bound on the
    transitions an unreduced search of the same tree would have
    executed: every pruned transition was enabled at a visited state
    and roots at least one unexplored subtree.

    The document also carries ["dpor": true] and ["sleep": true], and
    {!of_json} rejects any other value: certificates come only from
    the reduced search with sleep sets.  The brute-force search it is
    tested against is {!Regemu_mcheck.Explore.Make}. *)

type config = {
  algo : string;
  k : int;
  f : int;
  n : int;
  mode : string;  (** ["sequential"] or ["eager"] *)
  writer_ops : int list;  (** operations per writer *)
  readers : int;
  reads_each : int;
  crashes : int;
  max_explored : int;  (** the bound the search ran under *)
}

type t = {
  config : config;
  explored : int;
  pruned : int;
  pruned_ratio : float;  (** [pruned / (explored + pruned)] *)
  brute_force_floor : int;
  terminal_runs : int;
  stuck_runs : int;
  distinct_states : int;
  max_depth : int;
  exhaustive : bool;
  ws_safe_violations : int;
  ws_regular_violations : int;
  invariant_violations : int;
  first_violation : string option;
  verdict : string;
      (** ["verified-clean"] (exhaustive, zero violations),
          ["violations-found"], or ["inconclusive"] (bound hit before
          the space was exhausted, nothing found) *)
}

val schema : string

val make : config:config -> Regemu_mcheck.Dpor.stats -> t

val to_json : t -> Regemu_obs.Json.t
val of_json : Regemu_obs.Json.t -> (t, string) result

(** Internal-consistency check of a parsed certificate: counters
    non-negative, ratio and floor recomputable from [explored] /
    [pruned], verdict coherent with [exhaustive] and the violation
    counters, [distinct_states] bounded by terminal+stuck runs. *)
val validate : t -> (unit, string) result

val pp : t Fmt.t
