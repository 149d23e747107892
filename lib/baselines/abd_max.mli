(** Multi-writer ABD over max-registers: the [2f+1] upper bound of
    Table 1 for the max-register row.

    One max-register per server on [2f+1] servers.  A write reads-max
    from a majority to pick a fresh timestamp and writes-max the
    timestamped value to a majority; a read reads-max from a majority
    and returns the payload of the maximum.  Pending stale write-max
    operations are harmless — write-max is monotone — so no covering
    discipline is needed and the object count is independent of [k]:
    exactly the separation from plain registers the paper proves.

    The protocol is {!Regemu_netsim.Quorum_client.Abd}, the code the
    network simulator and the live backends run, here on
    {!Regemu_netsim.Quorum_client.Sim_runtime}: one max-register of the
    instance per replica server. *)

val factory : Regemu_core.Emulation.factory

(** [make ~algo sim p ~writers] is [factory.make] reporting [algo] as
    its name; [write_back_reads] adds the read write-back of
    {!Abd_max_atomic}. *)
val make :
  ?write_back_reads:bool ->
  algo:string ->
  Regemu_sim.Sim.t ->
  Regemu_bounds.Params.t ->
  writers:Regemu_objects.Id.Client.t list ->
  Regemu_core.Emulation.instance
