(** The client side of every message-passing register emulation, written
    once as a functor over the runtime it runs on: {!Sim_runtime} (the
    paper's shared-memory model, which Table 1, the adversaries and the
    model checkers drive), {!Net_runtime} (the scripted network
    simulator) or [Regemu_live.Cluster] (real threads).  The server side
    is already shared ({!Proto.step}), so a simulated and a live run of
    one algorithm differ only in their environment. *)

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

  (** Run one high-level operation.  [key] names the register of a
      keyed runtime (the live cluster's keyspace); the single-register
      runtimes take none. *)
  val invoke :
    t -> client -> ?key:int -> Regemu_sim.Trace.hop -> (unit -> Value.t) -> call
end

(** {!Net}: no lock, no retransmission, [rpc_quorum] sends to every
    replica and [await] ignores [need]. *)
module Net_runtime :
  RUNTIME
    with type t = Net.t
     and type client = Id.Client.t
     and type call = Net.call

(** {!Regemu_sim.Sim}: each request is one low-level operation on a base
    object of this instance, and its reply is that operation's
    response.  The one rule the runtime keeps is the paper's
    Assumption 1: a low-level operation takes effect at its respond
    step, which is its linearization point, and the environment decides
    when that is.  [Query]/[Update] on key 0 go to the instance's
    max-register on the target server, [Reg_read]/[Reg_write] to the
    register [alloc_reg] returned; any other payload, a non-zero key
    included, raises.  No lock (fibers are cooperative), no
    retransmission, no rids (a response is matched to its trigger),
    and [await] ignores [need]. *)
module Sim_runtime : sig
  include
    RUNTIME
      with type client = Id.Client.t
       and type call = Regemu_sim.Sim.call

  (** [create sim ~max_registers] is one emulation instance's view of
      [sim] (several instances may share one [Sim]): a max-register on
      each of servers [0 .. max_registers-1], allocated now, plus the
      registers its [alloc_reg] calls add. *)
  val create : Regemu_sim.Sim.t -> max_registers:int -> t

  (** The instance's base objects, in allocation order. *)
  val objects : t -> Id.Obj.t list
end

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

(** Multi-writer ABD; see {!Abd_net}.  A register is one key of the
    servers' max-register table: a write's query round reads the key
    on its replicas and keeps the largest value of [f+1] replies, and
    its update round stores the value with the next timestamp on
    [f+1] of them; a read is the query round plus, with
    [write_back_reads], the update round. *)
module Abd (R : RUNTIME) : sig
  type t

  val create : R.t -> f:int -> ?write_back_reads:bool -> unit -> t
  val replicas : t -> int

  (** The register: key 0 on servers [0 .. 2f]. *)
  val write : t -> R.client -> Value.t -> R.call

  val read : t -> R.client -> R.call

  (** [key]'s register on [replicas] ([2f+1] servers), the operation
      invoked with [~key] — the keyspace's entry points. *)
  val write_key :
    t -> R.client -> key:int -> replicas:int list -> Value.t -> R.call

  val read_key : t -> R.client -> key:int -> replicas:int list -> R.call
end

(** The paper's Algorithm 2 over register cells (Theorem 3's upper
    bound); see also {!Alg2_net}.

    Each writer owns a {e slot} over its register set [R_{i/z}] of the
    Section 3.3 layout, kept across high-level writes (the paper's
    [State_i]).  A write collects every cell of [n - f] servers, then
    sends its timestamped value under the covering discipline (lines
    6–11 and 29–34): a cell whose previous request of the writer is
    still pending is not written again; when that stale request is
    finally acknowledged, the handler immediately re-sends the current
    value.  The write returns once [|R_j| - f] cells acknowledged it.
    So a writer never has two of its own writes pending on one
    register and leaves at most [f] registers covered when a write
    returns, which is what defeats the adversarial environment of
    Definition 3 with only [f] spare registers per write quorum. *)
module Alg2 (R : RUNTIME) : sig
  type t

  (** [create rt p ~writers ()] allocates the layout's cells.
      - [placement] maps register [index] of set [set] to its server
        (default {!Formulas.placement}); the colocated ablation passes
        a rule that breaks [|delta(R_i)| = |R_i|].
      - [readers] registers readers with slots [k .. k+r-1] of a layout
        sized for [k + r] slots: such a reader writes the value it
        collected back into its own set before returning, which makes
        the register atomic; only registered readers may then read.
      - [naive] builds the 2f+1-cell strawman instead: one cell on each
        of servers [0 .. 2f], shared by every client, with no covering
        discipline (every write sends to every cell and waits for
        [f + 1] acknowledgements of its own value). *)
  val create :
    R.t ->
    Params.t ->
    ?naive:bool ->
    ?placement:(set:int -> index:int -> n:int -> int) ->
    ?readers:R.client list ->
    writers:R.client list ->
    unit ->
    t

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
