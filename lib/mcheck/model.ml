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

(* on both models a client step writes its client and the history (it
   may record returns and invokes; the DPOR engine drops [Chist] when
   it recorded nothing) *)
let client_step c =
  { thread = Client c; comps = [ (Cclient c, Write); (Chist, Write) ] }

let crash s = { thread = Crash s; comps = [] }

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

  (** The model's algorithm-level invariants, one message per
      violated invariant. *)
  val invariants : t -> string list
end

(** [judge h ~stuck] checks a run's history for WS-Safety and
    WS-Regularity and returns both verdicts with the run's terminal
    fingerprint: the invoke/return order with every result, the two
    verdict letters, and a stuck mark.  Times, low-level operation and
    message ids (their numbering shifts under commuting transitions),
    and raw base-object values (a leftover response firing after the
    last return changes them without affecting anything any client
    observed) stay out, so the fingerprint is the same for every
    schedule of one Mazurkiewicz trace class and reduced and
    brute-force searches can be compared for state equality. *)
let judge h ~stuck =
  let vs = Ws_check.check_ws_safe h in
  let vr = Ws_check.check_ws_regular h in
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
      Buffer.add_char b (if ret then 'R' else 'I');
      Buffer.add_string b (string_of_int (Id.Client.to_int o.client));
      Buffer.add_char b ':';
      Regemu_sim.Trace.add_hop_to_buffer b o.hop;
      (match o.result with
      | Some v when ret ->
          Buffer.add_char b '=';
          Value.add_to_buffer b v
      | _ -> ());
      Buffer.add_char b ';')
    events;
  let letter = function
    | Ws_check.Holds -> 'H'
    | Ws_check.Vacuous -> 'V'
    | Ws_check.Violated _ -> 'X'
  in
  Buffer.add_char b '|';
  Buffer.add_char b (letter vs);
  Buffer.add_char b (letter vr);
  if stuck then Buffer.add_string b "|stuck";
  (vs, vr, Buffer.contents b)
