(** Algorithm 2 — the paper's upper-bound construction (Theorem 3).

    An [f]-tolerant, wait-free, WS-Regular [k]-register emulated from
    [kf + ceil(k/z)(f+1)] read/write registers laid out as in
    {!Layout}, where [z = floor((n-(f+1))/f)].

    The protocol, with its covering discipline, is
    {!Regemu_netsim.Quorum_client.Alg2}, the code the network simulator
    and the live backends run; here its runtime is
    {!Regemu_netsim.Quorum_client.Sim_runtime}, so every request is a
    low-level operation on a base register of the simulator. *)

open Regemu_bounds
open Regemu_objects
open Regemu_sim

(** The factory; [expected_objects] is
    [Regemu_bounds.Formulas.register_upper_bound]. *)
val factory : Emulation.factory

(** [make ~algo sim p ~writers] is [factory.make] reporting [algo] as
    its name; [naive] and [placement] are passed to
    {!Regemu_netsim.Quorum_client.Alg2.create}.  The strawman
    ({!Regemu_baselines.Naive_reg}), the layered construction and the
    placement ablation are built this way. *)
val make :
  ?naive:bool ->
  ?placement:(set:int -> index:int -> n:int -> int) ->
  algo:string ->
  Sim.t ->
  Params.t ->
  writers:Id.Client.t list ->
  Emulation.instance
