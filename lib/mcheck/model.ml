(** The transition system the search engines run over.

    A model is a scenario that can be started fresh and advanced one
    chosen transition at a time.  A choice is named by its {!thread}:
    no thread has two choices at one state, so a search records and
    replays a schedule as the threads it fired.  The brute-force search
    ({!Explore.Make}) needs only the threads of the choices at a state;
    the DPOR engine ({!Dpor.Make}) also needs each choice's {e
    footprint} — which state components it touches — and what a fired
    step actually did.

    Two models implement {!S}: {!Explore.Session} over the
    shared-memory simulator and {!Net_model} over the message-passing
    network. *)

open Regemu_objects
open Regemu_history

(** Who fires a choice.  A thread's choices are totally ordered; two
    choices of different threads may race. *)
type thread =
  | Client of int  (** a client's steps *)
  | Job of int
      (** one spawned unit of environment work: the response of a
          low-level operation, or the delivery of one message *)
  | Crash of int  (** crashing server [i] *)

(** A component of the state a choice may touch: a client's local
    state, a base object (or a server's store), or the high-level
    history. *)
type comp = Cclient of int | Cobj of int | Chist

(** [Accum] is a commutative update: two accumulations on the same
    component commute exactly (delivering two responses to one client
    adds both to its response set either way, and a quorum-crossing
    delivery triggers the same follow-up operations in either order),
    but an accumulation races with a [Write] (the client's step
    observes the set's intermediate state). *)
type access = Write | Accum

(** A choice's static footprint.  It may over-approximate what firing
    the choice touches, which costs pruning, never soundness.  Crashes
    are globally dependent: they race with every choice. *)
type footprint = { thread : thread; comps : (comp * access) list }

let is_crash = function Crash _ -> true | Client _ | Job _ -> false

(* Footprints are immutable, so those of the first few clients and
   servers are built once and shared by every run. *)
let shared = 64

(* on both models a client step writes its client and the history (it
   may record returns and invokes; the DPOR engine drops [Chist] when
   it recorded nothing) *)
let build_client_step c =
  { thread = Client c; comps = [ (Cclient c, Write); (Chist, Write) ] }

let client_steps = Array.init shared build_client_step

let client_step c =
  if c >= 0 && c < shared then client_steps.(c) else build_client_step c

let crashes = Array.init shared (fun s -> { thread = Crash s; comps = [] })

let crash s =
  if s >= 0 && s < shared then crashes.(s) else { thread = Crash s; comps = [] }

(** [fire_crash candidates crash s] crashes server [s] if it is one of
    the [candidates], and raises [Invalid_argument] otherwise: both
    simulators' own crash is a no-op on a crashed server, so a replay
    that crashed one twice would pass unnoticed. *)
let fire_crash candidates crash s =
  let s = Id.Server.of_int s in
  if not (List.exists (Id.Server.equal s) candidates) then
    invalid_arg "Model.fire: crash not available";
  crash s

(** What a fired choice did. *)
type step = {
  recorded : bool;  (** it recorded a high-level invoke or return *)
  spawned : int list;  (** the [Job] threads it created *)
  invoked : int list;  (** the clients it invoked an operation on *)
}

module type S = sig
  type scenario
  type t

  (** Fresh run, with the initially eligible operations invoked. *)
  val create : scenario -> t

  (** The footprints of the choices available now, in choice order;
      empty at a stuck state. *)
  val choices : t -> footprint array

  (** [fire t th] fires [th]'s choice and invokes the operations that
      became eligible.  Choices are deterministic, so firing a recorded
      sequence of threads on a fresh run reproduces the state exactly.
      Raises [Invalid_argument] if [th] has no choice now. *)
  val fire : t -> thread -> unit

  (** What the last {!fire} did.  Separate from it so that replays,
      which fire most transitions, skip the bookkeeping. *)
  val last_step : t -> step

  (** Every scripted operation invoked and returned. *)
  val finished : t -> bool

  val history : t -> History.t

  (** The invoke/return field of this state's {!judge} fingerprint:
      exactly the text {!history_key_of} prints for [history t], built
      without building the history.  The WS verdicts read only what the
      key records — which operations were invoked and returned in which
      order, by which client, with which argument and result — so two
      states with equal keys have equal verdicts, and the engines judge
      each key once per run ({!Verdicts}). *)
  val history_key : t -> string

  (** The model's algorithm-level invariants, one message per
      violated invariant. *)
  val invariants : t -> string list
end

(** [add_event b ~ret client hop result] appends one entry of a history
    key: an invocation, or a return with its result. *)
let add_event b ~ret client hop result =
  Buffer.add_char b (if ret then 'R' else 'I');
  Value.add_int b client;
  Buffer.add_char b ':';
  Regemu_sim.Trace.add_hop_to_buffer b hop;
  (match result with
  | Some v when ret ->
      Buffer.add_char b '=';
      Value.add_to_buffer b v
  | _ -> ());
  Buffer.add_char b ';'

(** [history_key_of h] is [h]'s invoke/return order with every result:
    the first field of {!judge}'s fingerprint. *)
let history_key_of h =
  (* high-level entries are recorded only by steps that share [Chist],
     so their order is class-invariant.  Entries go straight into one
     buffer: formatting each through [Fmt] cost more than the rest of
     the terminal check. *)
  let b = Buffer.create 128 in
  let events =
    List.concat_map
      (fun (o : History.op) ->
        (o.invoked_at, o, false)
        :: Option.fold ~none:[] ~some:(fun t -> [ (t, o, true) ]) o.returned_at)
      h
    |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
  in
  List.iter
    (fun (_, (o : History.op), ret) ->
      add_event b ~ret (Id.Client.to_int o.client) o.hop o.result)
    events;
  Buffer.contents b

(** [key], the two verdict letters and a stuck mark: {!judge}'s
    fingerprint of a history whose key is [key]. *)
let fingerprint ~key vs vr ~stuck =
  let letter = function
    | Ws_check.Holds -> 'H'
    | Ws_check.Vacuous -> 'V'
    | Ws_check.Violated _ -> 'X'
  in
  let b = Buffer.create (String.length key + 9) in
  Buffer.add_string b key;
  Buffer.add_char b '|';
  Buffer.add_char b (letter vs);
  Buffer.add_char b (letter vr);
  if stuck then Buffer.add_string b "|stuck";
  Buffer.contents b

(** [judge h ~stuck] checks a run's history for WS-Safety and
    WS-Regularity and returns both verdicts with the run's terminal
    fingerprint: the invoke/return order with every result
    ({!history_key_of}), the two verdict letters, and a stuck mark.
    Times, low-level operation and message ids (their numbering shifts
    under commuting transitions), and raw base-object values (a
    leftover response firing after the last return changes them
    without affecting anything any client observed) stay out, so the
    fingerprint is the same for every schedule of one Mazurkiewicz
    trace class and reduced and brute-force searches can be compared
    for state equality.  It is the reference the engines' {!Verdicts}
    table reproduces. *)
let judge h ~stuck =
  let vs = Ws_check.check_ws_safe h in
  let vr = Ws_check.check_ws_regular h in
  (vs, vr, fingerprint ~key:(history_key_of h) vs vr ~stuck)

(** One run's terminal verdicts, keyed by {!S.history_key}.  A key seen
    before reuses its verdicts; only a new key builds the history and
    runs {!Ws_check}.  Equal keys give equal verdicts (see
    {!S.history_key}), so every count and fingerprint is the one
    {!judge} would give each state, and a violating key is judged on
    the history of the first state that reaches it.  The table is also
    the run's fingerprint set: each key with the stuck marks it was
    seen with. *)
module Verdicts = struct
  type entry = {
    vs : Ws_check.verdict;
    vr : Ws_check.verdict;
    mutable plain : bool;  (* seen at a finished state *)
    mutable stuck : bool;  (* seen at a stuck state *)
  }

  type t = { table : (string, entry) Hashtbl.t; mutable misses : int }

  let create () = { table = Hashtbl.create 16; misses = 0 }

  (** [judge t key ~stuck history s] is the verdicts of state [s] with
      key [key], and [Some (history s)] when the key was new. *)
  let judge t key ~stuck history s =
    let e, h =
      match Hashtbl.find_opt t.table key with
      | Some e -> (e, None)
      | None ->
          let h = history s in
          let e =
            {
              vs = Ws_check.check_ws_safe h;
              vr = Ws_check.check_ws_regular h;
              plain = false;
              stuck = false;
            }
          in
          Hashtbl.add t.table key e;
          t.misses <- t.misses + 1;
          (e, Some h)
    in
    if stuck then e.stuck <- true else e.plain <- true;
    (e.vs, e.vr, h)

  (** Keys judged: the histories built and checked. *)
  let misses t = t.misses

  (** The distinct fingerprints {!judge} gives the states seen, sorted. *)
  let fingerprints t =
    Hashtbl.fold
      (fun key e acc ->
        let add stuck acc = fingerprint ~key e.vs e.vr ~stuck :: acc in
        let acc = if e.plain then add false acc else acc in
        if e.stuck then add true acc else acc)
      t.table []
    |> List.sort compare
end
