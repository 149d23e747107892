(** The asynchronous fault-prone shared-memory simulator.

    This is the executable counterpart of the paper's formal model
    (Appendix A): base objects are mapped to servers via an explicit
    [delta]; clients run emulation code as cooperative fibers; the
    environment — a {!Policy.t} chosen by the caller — decides at every
    step which enabled action fires.  Two kinds of actions exist:

    - [Step c]: resume client [c], currently blocked on a
      [wait_until] predicate that now holds;
    - [Respond lid]: make the pending low-level operation [lid] take
      effect on its base object {e and} respond, atomically.  This
      realizes the paper's Assumption 1 (writes linearize at their
      respond step), which is exactly what lets the adversary keep a
      register covered for arbitrarily long.

    Crashes are injected explicitly with {!crash_server} /
    {!crash_client}.  A server crash instantly crashes all objects
    mapped to it; their pending operations never respond.  Pending
    operations of a {e crashed client} may still respond (the
    environment may apply them), but the client's handler is skipped. *)

open Regemu_objects

type t

(** [create ~n ()] is a fresh system with [n] servers and no objects or
    clients. *)
val create : n:int -> unit -> t

val num_servers : t -> int
val servers : t -> Id.Server.t list

(** {2 Base objects} *)

(** [alloc t ~server kind] creates a base object of [kind] on [server],
    initialized to {!Value.v0}. *)
val alloc : t -> server:Id.Server.t -> Base_object.kind -> Id.Obj.t

val objects : t -> Id.Obj.t list
val objects_on : t -> Id.Server.t -> Id.Obj.t list

(** [delta t b] is the server storing [b]. *)
val delta : t -> Id.Obj.t -> Id.Server.t

val kind_of : t -> Id.Obj.t -> Base_object.kind

(** Current state of the object — for assertions and debugging only;
    emulation code must go through low-level operations. *)
val peek : t -> Id.Obj.t -> Value.t

(** Objects on which at least one low-level operation has been
    triggered: the resource consumption of the run (Section 2). *)
val used_objects : t -> Id.Obj.Set.t

(** {2 Clients} *)

val new_client : t -> Id.Client.t
val clients : t -> Id.Client.t list

(** {2 Crashes} *)

val crash_server : t -> Id.Server.t -> unit
val crash_client : t -> Id.Client.t -> unit
val server_crashed : t -> Id.Server.t -> bool
val client_crashed : t -> Id.Client.t -> bool
val crashed_servers : t -> Id.Server.Set.t

(** {2 Low-level operations} *)

(** [trigger t ~client b op ~on_response] triggers [op] on [b] and
    returns immediately (clients never wait for a response implicitly).
    When the environment fires the matching [Respond], [op] is applied
    to [b]'s state and [on_response] runs with the result — unless the
    client has crashed.  [on_response] may itself call [trigger]
    (Algorithm 2's [upon ... respond] handlers do), but must not call
    {!wait_until}.  Raises if [op] does not match [b]'s kind. *)
val trigger :
  t ->
  client:Id.Client.t ->
  Id.Obj.t ->
  Base_object.op ->
  on_response:(Value.t -> unit) ->
  Id.Lop.t

(** [wait_until pred] suspends the calling fiber until [pred ()] holds
    {e and} the environment schedules the client.  Callable only from
    inside a fiber started by {!invoke}. *)
val wait_until : (unit -> bool) -> unit

(** {2 High-level operations} *)

type call

val call_client : call -> Id.Client.t
val call_hop : call -> Trace.hop

(** [None] while the operation is pending; [Some v] once returned. *)
val call_result : call -> Value.t option

val call_returned : call -> bool

(** Time (trace length) at invocation, and at return (once returned). *)
val call_invoked_at : call -> int

val call_returned_at : call -> int option

(** [invoke t ~client hop body] records the invocation and starts [body]
    as a fiber for [client]; the fiber runs until it first blocks or
    returns.  [body]'s return value is the high-level response.
    Raises if the client is crashed or already has an operation
    in progress (runs must be well-formed). *)
val invoke : t -> client:Id.Client.t -> Trace.hop -> (unit -> Value.t) -> call

val client_busy : t -> Id.Client.t -> bool

(** {2 Events} *)

type event = Step of Id.Client.t | Respond of Id.Lop.t

val event_pp : event Fmt.t
val event_equal : event -> event -> bool

(** All actions the environment may fire now, in a deterministic order:
    client steps (ascending client id) whose predicate currently holds,
    then responses (ascending trigger order) on non-crashed objects. *)
val enabled : t -> event list

type pending_info = {
  lid : Id.Lop.t;
  obj : Id.Obj.t;
  op : Base_object.op;
  client : Id.Client.t;
  triggered_at : int;
}

(** [fold_enabled t ~step ~respond acc] folds over the events {!enabled}
    lists, in its order, without building the list: [step] gets each
    enabled client step, [respond] the pending operation of each
    enabled response. *)
val fold_enabled :
  t ->
  step:(Id.Client.t -> 'a -> 'a) ->
  respond:(pending_info -> 'a -> 'a) ->
  'a ->
  'a

(** Fire one event.  Raises [Invalid_argument] if the event is not
    currently enabled. *)
val fire : t -> event -> unit

(** {2 Introspection} *)

(** All pending (triggered, not yet responded) low-level operations,
    in trigger order — including those on crashed servers. *)
val pending : t -> pending_info list

val pending_on : t -> Id.Obj.t -> pending_info list

(** Objects covered by a pending mutator (the paper's [Cov(t)] when
    restricted to register writes; includes pending write-max / CAS for
    the other object kinds). *)
val covered_objects : t -> Id.Obj.Set.t

val trace : t -> Trace.t

(** Current time = number of actions recorded so far. *)
val now : t -> int
