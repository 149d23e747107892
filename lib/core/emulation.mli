(** The common interface of all register emulations, plus a fiber-side
    helper shared by the shared-memory constructions.

    An {!instance} is a live emulated [k]-register wired to a simulator;
    a {!factory} knows how to build one.  The harness, the tests, and
    the lower-bound adversary are all generic over factories, so every
    algorithm (the paper's Algorithm 2 and all baselines) is driven by
    the same machinery. *)

open Regemu_objects
open Regemu_bounds
open Regemu_sim

type instance = {
  algo : string;
  kind : Base_object.kind;  (** base object type the emulation consumes *)
  params : Params.t;
  write : Id.Client.t -> Value.t -> Sim.call;
      (** invoke a high-level write; the client must be one of the [k]
          registered writers *)
  read : Id.Client.t -> Sim.call;
      (** invoke a high-level read; any client *)
  objects : unit -> Id.Obj.t list;  (** base objects allocated *)
}

type factory = {
  name : string;
  obj_kind : Base_object.kind;
  expected_objects : Params.t -> int;
      (** object count the construction promises (Table 1 row) *)
  accepts : Params.t -> (unit, string) result;
      (** the parameters the construction is defined for, beyond
          {!Params.make}'s; [Error] says why not *)
  make : Sim.t -> Params.t -> writers:Id.Client.t list -> instance;
      (** requires [Sim.num_servers sim = p.n],
          [List.length writers = p.k] and [accepts p = Ok ()] *)
}

(** [accepts] for a construction defined at every valid [Params.t]. *)
val any_params : Params.t -> (unit, string) result

(** {2 Fiber-side helper} *)

(** [call_sync sim ~client b op] triggers [op] on [b] and blocks the
    fiber until the response arrives.  Only safe when [b]'s server
    cannot crash (used by the shared-memory constructions). *)
val call_sync :
  Sim.t -> client:Id.Client.t -> Id.Obj.t -> Base_object.op -> Value.t
