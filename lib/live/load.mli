(** The load generator: a pool of client threads driving an emulated
    register as fast as it will go.

    Each writer thread performs [ops_per_client] writes of distinct
    values ("w<writer>-<seq>"), each reader thread [ops_per_client]
    reads, all concurrently.  An operation that raises
    {!Cluster.Unavailable} or {!Cluster.Timeout} counts as failed and
    its thread carries on with the next one; [run] returns the number
    of failed operations.  Any other exception raised by a worker is
    re-raised on the calling thread after all workers have been
    joined. *)

open Regemu_objects

val run :
  write:(Cluster.client -> Value.t -> unit) ->
  read:(Cluster.client -> Value.t) ->
  writers:Cluster.client list ->
  readers:Cluster.client list ->
  ops_per_client:int ->
  int
