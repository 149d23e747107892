(** The message-passing model: a tiny wire-protocol scenario over
    {!Regemu_netsim.Net}, searched by the same engines as the simulator
    ({!Explore.Make} and {!Dpor.Make}).  It runs the
    {!Regemu_netsim.Quorum_client} code that also runs live.

    A choice point offers every steppable client, every deliverable
    message, and — within the [crashes] budget — crashing any correct
    server.  High-level operations run sequentially in script order
    (one at a time), which is where the interesting nondeterminism
    lives for quorum protocols: which requests a quorum is built from,
    and which stale datagrams land later.

    Footprints: a client step writes its client and the history
    component; a delivery to server [s] writes [s]'s store; a delivery
    to client [c] writes [c] (a write, not an accumulation: Algorithm
    2's reply handler re-sends).  A step spawns the messages it put in
    flight.  The model checks no algorithm-level invariants. *)

open Regemu_bounds
open Regemu_objects
open Regemu_netsim

type scenario = {
  params : Params.t;
  protocol : Net_scenario.protocol;
  ops : [ `Write of Value.t | `Read ] list;
      (** executed sequentially; writes rotate through the [k] writers *)
  crashes : int;  (** crash choices available per schedule *)
}

include Model.S with type scenario := scenario
