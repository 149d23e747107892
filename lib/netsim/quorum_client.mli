(** The client side of every message-passing register emulation, written
    once as a functor over the runtime it runs on: {!Net_runtime} (the
    scripted simulator) or [Regemu_live.Cluster] (real threads).  The
    server side is already shared ({!Proto.step}), so a simulated and a
    live run of one algorithm differ only in their environment. *)

open Regemu_bounds
open Regemu_objects

(** The client primitives a protocol needs.  Servers are numbered
    [0 .. n-1].  The contract the protocols keep and rely on:
    - protocol state is touched only under [locked]: reply handlers run
      under the client's lock, and the client's own thread takes it for
      every access to state a handler may also touch;
    - a handler may run inside the [rpc] (or [rpc_quorum]) that sent
      its request, on the calling thread, before the call returns:
      whatever the handler reads must be set up before the send;
    - a [~sticky:true] request outlives the operation that issued it: it
      is retransmitted by the client's later awaits until acknowledged;
    - [await ~need:(servers, required)] lists one server per awaited
      reply, with multiplicity, and [required] of those replies are
      needed; the live watchdog fails the operation fast when they are
      unreachable. *)
module type RUNTIME = sig
  type t
  type client
  type call  (** what [invoke] yields *)

  val client_id : client -> Id.Client.t
  val num_servers : t -> int
  val alloc_reg : t -> server:int -> int
  val locked : client -> (unit -> 'a) -> 'a

  (** Send [make rid] under a fresh [rid]; run [handler] once on its
      reply. *)
  val rpc :
    t ->
    src:client ->
    ?sticky:bool ->
    int ->
    make:(int -> Proto.payload) ->
    handler:(Proto.payload -> unit) ->
    unit

  (** One round's requests to the given replicas, [quorum] of whose
      replies will be awaited. *)
  val rpc_quorum :
    t ->
    src:client ->
    quorum:int ->
    make:(int -> Proto.payload) ->
    handler:(Proto.payload -> unit) ->
    int list ->
    unit

  val await : t -> client -> ?need:int list * int -> (unit -> bool) -> unit
  val invoke : t -> client -> Regemu_sim.Trace.hop -> (unit -> Value.t) -> call
end

(** {!Net}: no lock, no retransmission, [rpc_quorum] sends to every
    replica and [await] ignores [need]. *)
module Net_runtime :
  RUNTIME
    with type t = Net.t
     and type client = Id.Client.t
     and type call = Net.call

module Round (R : RUNTIME) : sig
  (** Send [request rid] to [replicas], await [quorum] replies, and fold
      them from [init] in arrival order. *)
  val quorum_round :
    R.t ->
    R.client ->
    replicas:int list ->
    quorum:int ->
    request:(int -> Proto.payload) ->
    fold:('a -> Proto.payload -> 'a) ->
    init:'a ->
    'a
end

(** Multi-writer ABD; see {!Abd_net}. *)
module Abd (R : RUNTIME) : sig
  type t

  val create : R.t -> f:int -> ?write_back_reads:bool -> unit -> t
  val replicas : t -> int
  val write : t -> R.client -> Value.t -> R.call
  val read : t -> R.client -> R.call
end

(** The paper's Algorithm 2 over register cells; see {!Alg2_net}. *)
module Alg2 (R : RUNTIME) : sig
  type t

  val create :
    R.t -> Params.t -> ?naive:bool -> writers:R.client list -> unit -> t

  val cells : t -> int
  val write : t -> R.client -> Value.t -> R.call
  val read : t -> R.client -> R.call
end

(** The CDS multi-writer data store; see {!Cds_net}. *)
module Cds (R : RUNTIME) : sig
  type t

  val create : R.t -> f:int -> writers:R.client list -> unit -> t
  val replicas : t -> int
  val writer_slots : t -> int
  val write : t -> R.client -> Value.t -> R.call
  val read : t -> R.client -> R.call
end
