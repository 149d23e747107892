(** An asynchronous message-passing network of clients and server
    processes — the layer the paper's model abstracts away.

    In the fault-prone shared-memory model a client {e triggers} an
    operation and the environment decides when it {e responds}.  Over a
    real network each of those corresponds to two message deliveries
    (request to the server, reply to the client), each delayed
    arbitrarily and independently by the environment.  This module
    implements that finer-grained substrate so that the ABD protocol
    can be run as originally stated (message passing, [2f+1] server
    processes), and its runs checked with the same history checkers as
    the shared-memory emulations.

    The environment is again an explicit event choice: which in-flight
    message to deliver next, or which waiting client to step.  Message
    deliveries to a crashed server are lost; a server processes a
    request atomically and its replies enter the network.  Messages may
    be delivered in any order (no FIFO assumption), matching the
    asynchronous model. *)

open Regemu_objects

(** Wire payloads.  [rid] is a client-chosen request id used to match
    replies to requests.

    [Query]/[Update] talk to the server's {e max-register} for [key]
    (the ABD server; the register is key 0); [Reg_read]/[Reg_write]
    talk to plain {e register cells} allocated with {!alloc_reg} —
    network-attached disks with read/write-only interfaces, the
    setting of the paper's reference [2] and of its register lower
    bound.  A delayed [Reg_write]
    request is a covering write on the wire: it overwrites whatever
    the cell holds when it is finally delivered.

    The type (and the server behaviour) is shared with the live
    threaded runtime; see {!Proto}. *)
type payload = Proto.payload =
  | Query of { rid : int; key : int }  (** read [key]'s stored value *)
  | Query_reply of { rid : int; stored : Value.t }
  | Update of { rid : int; key : int; proposed : Value.t }
      (** store [max(stored, proposed)] under [key] — the server-side
          write-max the paper observes inside ABD *)
  | Update_reply of { rid : int }
  | Reg_read of { rid : int; reg : int }
  | Reg_read_reply of { rid : int; stored : Value.t }
  | Reg_write of { rid : int; reg : int; proposed : Value.t }
      (** plain overwrite: last delivered wins *)
  | Reg_write_reply of { rid : int }
  | Cquery of { rid : int }
      (** collect every resident CDS per-writer slot (see {!Proto}) *)
  | Cquery_reply of { rid : int; slots : (int * Value.t) list }
  | Cwrite of { rid : int; slot : int; proposed : Value.t }
      (** per-writer write-max into slot [slot] *)
  | Cwrite_reply of { rid : int; slot : int }

val payload_pp : payload Fmt.t

type dest = To_server of Id.Server.t | To_client of Id.Client.t

(** A network event: deliver an in-flight message, or step a client
    whose wait predicate holds. *)
type event = Deliver of int  (** message id *) | Step of Id.Client.t

val event_pp : event Fmt.t

type t

val create : n:int -> unit -> t
val num_servers : t -> int
val servers : t -> Id.Server.t list
val new_client : t -> Id.Client.t

(** Allocate a plain register cell on [server]; returns its index
    (per-server).  Cells start at {!Value.v0}. *)
val alloc_reg : t -> Id.Server.t -> int

(** Number of register cells allocated on a server. *)
val regs_on : t -> Id.Server.t -> int

(** Read a cell's current content — assertions/debugging only. *)
val peek_reg : t -> Id.Server.t -> int -> Value.t

(** {2 Failures} *)

val crash_server : t -> Id.Server.t -> unit
val server_crashed : t -> Id.Server.t -> bool

(** {2 Client-side API (fiber context)} *)

(** [send t ~from dest payload] puts a message in flight. *)
val send : t -> from:Id.Client.t -> Id.Server.t -> payload -> unit

(** [on_reply t ~client ~rid f] registers [f] to run when a reply with
    request id [rid] is delivered to [client]. *)
val on_reply : t -> client:Id.Client.t -> rid:int -> (payload -> unit) -> unit

(** Fresh request id, unique per network. *)
val fresh_rid : t -> int

(** Suspend the calling fiber until the predicate holds (same semantics
    as {!Regemu_sim.Sim.wait_until}). *)
val wait_until : (unit -> bool) -> unit

(** {2 High-level operations} *)

type call

val call_returned : call -> bool
val call_result : call -> Value.t option

val invoke :
  t -> client:Id.Client.t -> Regemu_sim.Trace.hop -> (unit -> Value.t) -> call

(** {2 The environment} *)

(** Deliverable messages and steppable clients, deterministic order.
    Messages addressed to crashed servers are not enabled (they are
    lost in transit). *)
val enabled : t -> event list

val fire : t -> event -> unit

(** In-flight message count (for tests). *)
val in_flight : t -> int

(** In-flight messages with ids, destinations, and payloads — for
    scripted (adversarial) delivery schedules. *)
val flight : t -> (int * dest * payload) list

(** Sender of an in-flight request ([None] for server replies or
    unknown ids) — the adversary's rule 1 needs it. *)
val src_of : t -> int -> Id.Client.t option

(** [duplicate t mid] clones an in-flight message (at-least-once
    delivery).  The protocol layer must tolerate this: reply handlers
    are one-shot, and the server-side update is idempotent (write-max).
    Raises if [mid] is not in flight. *)
val duplicate : t -> int -> unit

(** {2 History} *)

(** The high-level operations of the run so far (complete and pending),
    ready for the {!Regemu_history} checkers. *)
val history : t -> Regemu_history.History.t

(** Total messages delivered (a time-complexity measure). *)
val delivered : t -> int

(** Total messages ever put in flight (sends, replies, duplicates).
    Invariant: [sent = delivered + in_flight]. *)
val sent : t -> int
