(** Run traces.

    A run of the simulator is a sequence of actions (the paper's runs
    alternate configurations and actions; configurations are implicit in
    the simulator state).  The {e time} [t] of the paper is the number
    of recorded actions, so the entry at index [i] happens at time
    [i + 1]. *)

open Regemu_objects

(** A high-level (emulated-register) operation. *)
type hop = H_write of Value.t | H_read

val hop_pp : hop Fmt.t

(** [add_hop_to_buffer buf h] appends the text [hop_pp] prints. *)
val add_hop_to_buffer : Buffer.t -> hop -> unit
val hop_is_write : hop -> bool

type entry =
  | Invoke of Id.Client.t * hop
  | Return of Id.Client.t * hop * Value.t
  | Trigger of {
      lid : Id.Lop.t;
      client : Id.Client.t;
      obj : Id.Obj.t;
      op : Base_object.op;
    }
  | Respond of {
      lid : Id.Lop.t;
      client : Id.Client.t;
      obj : Id.Obj.t;
      op : Base_object.op;
      result : Value.t;
    }
  | Server_crash of Id.Server.t
  | Client_crash of Id.Client.t

val entry_pp : entry Fmt.t

type t

val create : unit -> t

(** Number of recorded actions; the current time of the run. *)
val time : t -> int

val record : t -> entry -> unit

(** [get t i] is the entry at index [i] (0-based), i.e. the action taken
    at time [i + 1]. *)
val get : t -> int -> entry

val to_list : t -> entry list
val iter : (entry -> unit) -> t -> unit

(** All entries from index [from] (inclusive) onward. *)
val since : t -> int -> entry list

val pp : t Fmt.t
