(** Bounded systematic schedule exploration (stateless model checking).

    Where the fuzzer samples schedules and the scripted adversary
    replays one known-bad schedule, this module enumerates {e all}
    schedules of a small scenario by depth-first search with replay:
    every branch re-executes the run from a fresh model, following a
    recorded prefix of choices and then diverging.  On tiny
    configurations the search is exhaustive, upgrading "no violation
    found" from a sampling statement to a proof over the bounded
    scenario.  The search is written once ({!Make}) and runs on the
    simulator ({!Session}, {!run}) and on the network ({!Net_model});
    it is the reference the DPOR engine ({!Dpor}) is tested against.

    Scenario semantics: each client runs its operations in program
    order; an operation is invoked eagerly as soon as the client is
    free (so concurrency between clients is maximal, which only
    strengthens the check).  Exploration stops a branch when every
    operation has returned — responses that would fire after the last
    return cannot affect any recorded result — or when no event is
    enabled (a stuck state, recorded separately).

    The total number of fired events across all branches is capped;
    [exhaustive] in the result tells whether the cap was hit.  The cap
    is checked before each branch fires, so a space of exactly
    [max_fired] events is covered, and exhaustive. *)

open Regemu_bounds
open Regemu_objects
open Regemu_sim
open Regemu_history

(** What each client does, in program order. *)
type script = (Id.Client.t * Trace.hop list) list

(** When operations are invoked:
    - [Eager]: each client invokes its next operation as soon as it is
      free — maximal concurrency across clients;
    - [Sequential]: one high-level operation at a time, in script order
      across all clients — the write-sequential runs of the paper's
      lower bound, where all the adversarial freedom lives in the
      low-level response timing. *)
type mode = Eager | Sequential

(** A scenario builds a fresh system and returns, for every client
    mentioned in the script, a function invoking one operation. *)
type scenario = {
  params : Params.t;
  mode : mode;
  crashes : int;  (** crash choices available per schedule *)
  make : unit -> Sim.t * (Id.Client.t -> Trace.hop -> Sim.call) * script;
}

(** Build a scenario for an emulation factory: [writer_ops.(i)] is the
    list of values writer [i] writes; [reader_ops] is the number of
    reads performed by each of [readers] extra clients.

    [crashes] adds crash {e timing} to the explored choices: at every
    step the environment may also crash any correct server, up to
    [crashes] times per schedule.  Exhaustive exploration then covers
    every interleaving {e and} every crash placement — at a heavy
    multiplicative cost, so keep the scenario tiny. *)
val emulation_scenario :
  Regemu_core.Emulation.factory ->
  Params.t ->
  ?mode:mode ->
  ?crashes:int ->
  writer_ops:Value.t list list ->
  readers:int ->
  reads_each:int ->
  unit ->
  scenario

type result = {
  terminal_runs : int;  (** complete schedules explored *)
  distinct_histories : int;
      (** distinct terminal states among the terminal and stuck runs —
          the length of [state_fingerprints], usually far fewer than
          the schedules *)
  stuck_runs : int;  (** schedules ending with no enabled event *)
  fired_events : int;  (** total events fired across all replays *)
  replayed : int;
      (** of those, the events re-fired to rebuild a state; the rest
          are the search tree's edges *)
  judged : int;
      (** histories built and checked: the distinct history keys among
          the terminal and stuck runs ({!Model.Verdicts}) *)
  exhaustive : bool;  (** the whole space was covered within budget *)
  max_depth : int;
  ws_safe_violations : History.t list;  (** first few violating runs *)
  ws_regular_violations : History.t list;
  first_violation_at : int option;
      (** total fired events when the first violation surfaced *)
  state_fingerprints : string list;
      (** sorted {!Model.judge} fingerprints, the key {!Dpor} counts
          [distinct_states] by; for DPOR-vs-brute-force equivalence
          checks *)
}

val result_pp : result Fmt.t

(** The brute-force search, over any {!Model.S}: a depth-first search
    that fires every choice at every state. *)
module Make (M : Model.S) : sig
  (** [run scenario ~max_fired] explores depth-first until done or
      until [max_fired] events have been fired in total.  With
      [~stop_on_violation:true] the search also stops at the first
      violating run (useful as a bug-finding mode). *)
  val run : ?stop_on_violation:bool -> M.scenario -> max_fired:int -> result
end

(** The simulator model: a live run of a scenario, auto-invoking
    eligible script operations after every event.  Its choices are the
    enabled simulator events, then crashing each server still correct
    while the scenario's crash budget lasts.  A [Step] writes its
    client and the history component; a [Respond] accumulates into its
    client and writes its object.  It feeds every step's trace entries
    to an {!Regemu_history.Invariants.Monitor}, so its [invariants] at a
    terminal state read the monitor's verdicts.  [choices] is one walk
    of {!Regemu_sim.Sim.fold_enabled}, [finished] reads a count of
    uninvoked operations and the calls still open, and [history_key]
    is one pass over the trace's invoke and return entries.  Both
    engines search it: {!run} below and {!Dpor.run}. *)
module Session : sig
  include Model.S with type scenario = scenario

  val sim : t -> Sim.t
end

(** [Make (Session).run]. *)
val run : ?stop_on_violation:bool -> scenario -> max_fired:int -> result
