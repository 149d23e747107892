(** The Lemma 1 run construction, executable.

    Builds the write-only sequential runs [r_1, ..., r_k]: epoch [i]
    has a fresh client invoke a high-level write of a fresh value while
    the environment behaves like [Ad_i] (Definition 3): no failures, no
    blocked write ever responds, everything else eventually does.
    After the write returns, the run is extended (still under [Ad_i])
    until no register of [F] remains newly covered, establishing
    Lemma 1's invariants (a) [|Cov(t_i)| >= i*f] and
    (b) [delta(Cov(t_i)) ∩ F = ∅] for algorithms that match the lower
    bound; for any correct algorithm the construction yields at least
    these covering counts.

    The construction is written once, in {!Make}, over a small
    {!MODEL}: {!execute} runs it on the simulator ({!On_sim}), and
    [Regemu_harness.Wire.staircase] runs it on the message-passing
    network.  It optionally monitors the Lemma 2 invariants at every
    step. *)

open Regemu_bounds
open Regemu_objects
open Regemu_core

type epoch_stats = {
  epoch : int;  (** [i], 1-based *)
  write_returned : bool;
      (** Lemma 3: the write must return despite the blocking *)
  cov_total : int;  (** [|Cov(t_i)|] *)
  cov_new : int;  (** registers newly covered this epoch *)
  cov_on_f : int;  (** [|delta(Cov(t_i)) ∩ F|] — 0 per Lemma 1(b) *)
  q_size : int;  (** [|Q_i|] at the write's return — f per Corollary 2 *)
  f_size : int;  (** [|F_i|] at the write's return *)
  fresh_servers_triggered : int;
      (** [|delta(Tr_i \ Cov(t_{i-1}))|] — > 2f per Lemma 4 and
          extended Lemma 1(c) *)
  new_cov_servers : int;
      (** [|delta(Cov(t_i) \ Cov(t_{i-1}))|] — >= f per extended
          Lemma 1(d) *)
  cov_monotone : bool;
      (** [Cov(t_i) ⊇ Cov(t_{i-1})] — extended Lemma 1(e) *)
  objects_used_total : int;  (** resource consumption so far *)
  point_contention : int;  (** 1 throughout (Theorem 8's hypothesis) *)
  lemma2_failure : string option;
}

val epoch_stats_pp : epoch_stats Fmt.t

(** [F] when none is given: the last [f+1] servers. *)
val default_f_set : Params.t -> Id.Server.Set.t

(** What the construction needs of a model of the system.  Events are
    client steps or the completion of one pending operation; the
    covering-write actions feed {!Epoch_state}. *)
module type MODEL = sig
  type t
  type event

  (** The events the environment may fire now, in a fixed order. *)
  val enabled : t -> event list

  val fire : t -> event -> unit

  (** [None] for a client step; otherwise the id of the operation the
      event completes, in the id space of {!actions}. *)
  val completes : event -> int option

  (** The covering-write actions since the last call, in order. *)
  val actions : t -> Epoch_state.action list

  (** Base objects accessed so far. *)
  val objects_used : t -> int
end

(** The construction, once for every model: epoch [i] invokes
    [write (List.nth writers (i-1)) "v<i>"] (the returned thunk says
    whether it has returned), fires an [Ad_i]-allowed event picked by
    the seeded RNG until it returns, then fires the first allowed
    completion until none is left, and fails unless [F] then holds no
    newly covered register.  [f_set] must have [f+1] servers.  With
    [check_lemma2] (the default) Lemma 2 is checked after every event.
    Fails with a message if a write does not return within the budget
    or every enabled event is blocked (an obstruction-freedom violation
    under [Ad_i]). *)
module Make (M : MODEL) : sig
  val execute :
    M.t ->
    Params.t ->
    writers:Id.Client.t list ->
    write:(Id.Client.t -> Value.t -> unit -> bool) ->
    f_set:Id.Server.Set.t ->
    ?check_lemma2:bool ->
    ?budget_per_epoch:int ->
    seed:int ->
    unit ->
    (epoch_stats list, string) result
end

(** The simulator as a model: the actions are the trace's register-write
    triggers and responses from the model's creation on, with the
    low-level operation ids as ids. *)
module On_sim : sig
  include MODEL with type event = Regemu_sim.Sim.event

  val create : Regemu_sim.Sim.t -> t
end

type run = {
  params : Params.t;
  algo : string;
  f_set : Id.Server.Set.t;
  epochs : epoch_stats list;
  final_cov : int;
  final_objects_used : int;
  final_cov_per_server : (Id.Server.t * int) list;
      (** covered registers per server at the end of the run — the
          quantity Theorem 6 bounds below by [k] on every server
          outside [F] when [n = 2f+1] *)
  trace : Regemu_sim.Trace.t;  (** the full run, for audits *)
  kind_of : Id.Obj.t -> Regemu_objects.Base_object.kind;
}

(** [execute factory p ~seed ()] runs {!Make}'s construction on the
    simulator for all [k] writers.  [f_set] defaults to
    {!default_f_set}. *)
val execute :
  Emulation.factory ->
  Params.t ->
  ?f_set:Id.Server.Set.t ->
  ?check_lemma2:bool ->
  ?budget_per_epoch:int ->
  seed:int ->
  unit ->
  (run, string) result
