(** Bounded-exhaustive exploration with dynamic partial-order
    reduction (Flanagan–Godefroid style), over any {!Model.S} — the
    simulator's {!Explore.Session} and the network's {!Net_model}.

    Where {!Explore.run} fires every enabled transition at every state,
    this engine executes one transition per state and plants {e
    backtrack points} only where two transitions genuinely race:
    happens-before is tracked over the footprints the model gives each
    choice ({!Model.footprint}) — on the simulator a per-client
    component (predicate wake-ups and response delivery), a per-object
    component (state application at respond), and a history component
    carried by every step that records an invocation or return — and a
    transition is re-ordered against an earlier one only when their
    footprints intersect and neither is in the other's causal past.
    Sleep sets prune the remaining commutative permutations.  Crash
    choices are treated as globally dependent, so every crash placement
    is still explored.

    A clock is the set of DFS depths whose events are in the causal
    past, kept as a bitset.  Every clock is closed downward per thread
    (an event's clock contains its thread's previous clock, and clocks
    only grow by joins), so this set says exactly what a per-thread
    vector clock says, and a join is a word-wise [lor].  The current
    node's clocks, per thread and per component, are rows of flat int
    tables written on the way down and restored from a trail on the way
    up, and a node's backtrack and done sets are one mark per choice, so
    bookkeeping and race detection allocate nearly nothing.  A choice
    the parent node also offered, whose thread the parent's event did
    not touch, was raced there against every earlier event; only the
    parent's event is checked again.

    The search is stateless.  A model's state cannot be cloned (on the
    simulator, clients are one-shot effect continuations), so the first
    child of a node is explored on the live run and every other child
    on a fresh run ([M.create]) that re-fires the path down to the
    node.  The tree fixes how many fresh runs there are and how deep:

    {v fired = explored + (sum of the depths of all replays) v}

    and a search's cost is the transitions it explores, plus the fresh
    runs it starts and the transitions they re-fire ([replays] and
    [replayed] below), each at the model's price.

    Soundness relies on two facts about each model, checked against
    the brute-force {!Explore.Make} in test/suite_explore.ml and
    test/suite_net_explore.ml: high-level history entries are recorded
    only during [Step] events (so any two history-recording
    transitions share the history component and the WS verdict is
    invariant across a Mazurkiewicz trace class), and commuting
    independent transitions changes at most low-level operation and
    message numbering, which no recorded verdict reads.  Dependence is
    over-approximated (a step's static footprint includes the history
    component even if it ends up recording nothing), which can only
    cost pruning, never soundness.

    Every terminal (and stuck) state is checked for WS-Safety,
    WS-Regularity, and the model's invariants; its {!Model.judge}
    fingerprint is collected so reduced and brute-force searches can be
    compared for state equality.  The WS verdicts are computed once per
    history key ({!Model.Verdicts}); the invariants, once per state. *)

type stats = {
  explored : int;  (** transitions executed (DFS edges) *)
  replays : int;  (** fresh runs started to rebuild a state *)
  replayed : int;
      (** prefix transitions re-fired to rebuild states: the sum of the
          replays' depths *)
  pruned : int;
      (** enabled transitions never fired at visited states — a lower
          bound on the extra work brute force would have done, since
          each also roots an unexplored subtree *)
  sleep_skipped : int;  (** backtrack picks skipped as sleeping *)
  terminal_runs : int;
  stuck_runs : int;
  distinct_states : int;  (** distinct terminal fingerprints *)
  judged : int;
      (** histories built and checked: the distinct history keys among
          the terminal and stuck runs ({!Model.Verdicts}) *)
  max_depth : int;
  exhaustive : bool;  (** finished within [max_explored] *)
  ws_safe_violations : int;
  ws_regular_violations : int;
  invariant_violations : int;
  first_violation : string option;
  state_fingerprints : string list;
      (** sorted; for DPOR-vs-brute-force equivalence checks *)
}

val stats_pp : stats Fmt.t

(** DPOR over any {!Model.S}. *)
module Make (M : Model.S) : sig
  (** [run scenario ~max_explored] explores until done or until
      [max_explored] transitions have been executed.
      [~check_invariants:false] skips the model's invariant checks (the
      naive algorithm violates them by design). *)
  val run : ?check_invariants:bool -> M.scenario -> max_explored:int -> stats
end

(** [Make (Explore.Session).run]: DPOR over the simulator. *)
val run :
  ?check_invariants:bool -> Explore.scenario -> max_explored:int -> stats
