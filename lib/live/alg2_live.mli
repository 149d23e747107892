(** The paper's Algorithm 2 (space-optimal register-based emulation)
    over a live {!Cluster} — the same protocol as
    {!Regemu_netsim.Alg2_net}, with blocking awaits in place of
    simulator fibers.

    Register cells are laid out by the Section 3.3 construction
    ({!Regemu_bounds.Formulas.placement}); each writer owns a
    slot over its register set and follows the covering discipline: a
    stale acknowledgement (the cell now holds an old value) triggers an
    immediate re-send of the current value.  Reads collect every cell
    of [n-f] servers and return the maximum.  WS-Regular, wait-free
    with at most [f] crashed servers. *)

open Regemu_bounds
open Regemu_objects

type t

(** [create cluster p ~writers ()] allocates the layout's register
    cells (call before {!Cluster.start}) and registers the [k] writer
    clients.  [naive] uses the unsafe 2f+1-cell strawman instead;
    [placement] and [readers] as in
    {!Regemu_netsim.Quorum_client.Alg2.create}. *)
val create :
  Cluster.t ->
  Params.t ->
  ?naive:bool ->
  ?placement:(set:int -> index:int -> n:int -> int) ->
  ?readers:Cluster.client list ->
  writers:Cluster.client list ->
  unit ->
  t

(** Total register cells allocated. *)
val cells : t -> int

(** Blocking; records the operation in the cluster history.  [write]
    requires a registered writer client. *)
val write : t -> Cluster.client -> Value.t -> unit

val read : t -> Cluster.client -> Value.t
