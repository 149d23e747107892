(** The keyspace: many per-key max-register emulations multiplexed
    over one live {!Regemu_live.Cluster}.

    Each key runs the one ABD client,
    {!Regemu_netsim.Quorum_client.Abd}, whose [Query]/[Update]
    requests carry the key, against the [2f+1] replicas {!Placement}
    assigns it, awaiting [f+1] replies per round.  The register ABD
    is key 0 of the same server table, so a keyspace and a register
    must not share a cluster.  All keys share the cluster's sharded
    transport lanes — a lane drain carries a batch of messages for
    {e many} keys — its retry/watchdog machinery, and its fault
    injectors; nothing per-key is spawned.

    An operation runs through {!Regemu_live.Cluster.invoke} with its
    key, so it is recorded in the cluster's operation log like a
    register operation, gets its op spans, and on
    {!Regemu_live.Cluster.Unavailable} is {e aborted} in the log and
    the exception re-raised.  The log's one consumer, the online
    checker ({!Kchecker}), trims it as it goes, so a long open-loop run
    holds its operations in flight, not its history. *)

open Regemu_objects

type t

(** [create cluster ~f ()] — the cluster must already have
    [>= 2f+1] servers; placement spans {e all} its servers.  A read is
    the query round only: WS-Regularity needs no write-back.

    Registers keyspace gauges in the cluster's sink:
    [keyspace.server_cells.total] / [.max] (resident per-key cells
    across/on servers). *)
val create : Regemu_live.Cluster.t -> f:int -> unit -> t

val cluster : t -> Regemu_live.Cluster.t
val placement : t -> Placement.t

(** The cluster's operation log. *)
val klog : t -> Klog.t

(** A worker: one sequential stream of keyspace operations, a cluster
    client.  The open-loop generator runs a bounded pool of these;
    harnesses that own their clients (the chaos campaign) pass them
    as they are. *)
type worker = Regemu_live.Cluster.client

(** A new cluster client. *)
val new_worker : t -> worker

val worker_client : worker -> Regemu_live.Cluster.client

(** [write t w ~key v] writes [v] to [key]'s register: query-max round
    on the key's replicas, then update with timestamp +1. *)
val write : t -> worker -> key:int -> Value.t -> unit

(** [read t w ~key] reads [key]'s register (query-max round),
    returning the payload. *)
val read : t -> worker -> key:int -> Value.t

(** Max over servers of resident per-key cells, and their sum —
    polled by the gauges, asserted by the capacity tests. *)
val server_cells : t -> int * int
