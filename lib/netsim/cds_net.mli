(** The Chockler–Dobre–Shraer–Spiegelman multi-writer data store
    (arXiv:1508.03762) over message passing — the protocol of
    [Regemu_live.Cds_live] on the scripted {!Net}, so the explorer can
    search its delivery orders.

    Each of the [2f+1] replicas holds one slot per writer.  A write
    collects every slot from [f+1] replicas, then writes [(seq+1, v)]
    into its own slot at [f+1]; a read collects and returns the largest
    timestamped value.  Timestamps embed the writer's slot index, so
    concurrent writers never tie. *)

open Regemu_objects

type t

(** Uses servers [s0 .. s2f]; writer [i] of [writers] owns slot [i]; at
    most 1024 writers. *)
val create : Net.t -> f:int -> writers:Id.Client.t list -> unit -> t

val replicas : t -> int
val writer_slots : t -> int

(** Raises [Invalid_argument] for a client not in [writers]. *)
val write : t -> Id.Client.t -> Value.t -> Net.call

val read : t -> Id.Client.t -> Net.call
