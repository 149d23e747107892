(** Workload scenarios over the message-passing substrate — the
    counterpart of {!Regemu_workload.Scenario} for wire protocols
    ({!Abd_net}, {!Alg2_net}, {!Cds_net}), with the network-level fault injections:
    server crashes, message reordering (always on — delivery order is
    the environment's choice), and message duplication. *)

open Regemu_bounds
open Regemu_objects
open Regemu_history

(** The protocol under test: how to build it on a fresh network and how
    to invoke its operations. *)
type protocol = {
  name : string;
  make :
    Net.t ->
    Params.t ->
    writers:Id.Client.t list ->
    (Id.Client.t -> Value.t -> Net.call) * (Id.Client.t -> Net.call);
      (** returns [(write, read)] *)
}

(** ABD over the built-in max-register servers. *)
val abd : write_back:bool -> protocol

(** Algorithm 2 over network-attached register cells. *)
val alg2 : protocol

(** The CDS data store over per-writer server slots. *)
val cds : protocol

type result = {
  net : Net.t;
  history : History.t;
  messages_delivered : int;
}

type error = { stage : string }

val error_pp : error Fmt.t

(** [write_sequential ~p ~rounds ~crashes ~duplication ~seed ()] runs
    [rounds * p.k] sequential writes with a read after each, over the
    given [protocol] (default: ABD without read write-back).
    [crashes <= p.f] servers crash at random times; with [duplication]
    an in-flight message is duplicated roughly every 20 events. *)
val write_sequential :
  ?protocol:protocol ->
  p:Params.t ->
  rounds:int ->
  crashes:int ->
  duplication:bool ->
  seed:int ->
  unit ->
  (result, error) Result.t

(** Sequential writes with [readers] clients reading concurrently. *)
val concurrent_reads :
  ?protocol:protocol ->
  p:Params.t ->
  rounds:int ->
  readers:int ->
  crashes:int ->
  duplication:bool ->
  seed:int ->
  unit ->
  (result, error) Result.t
