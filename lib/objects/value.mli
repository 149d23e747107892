(** Values stored in base objects and in the emulated register.

    A small structural value universe with a total order, so the same
    simulator can host plain registers (no order needed), max-registers
    and CAS objects (order/equality needed), and application-level
    payloads such as strings in the examples.

    Timestamped values — the [TSVal = N x V] type of Algorithm 2 — are
    encoded as [Pair (Int ts, payload)] via {!with_ts}; the
    lexicographic order of {!compare} then orders them by timestamp
    first, exactly as the emulations require. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Pair of t * t

(** The distinguished initial value [v0] of every register
    (the paper's [v_0]); equal to [Unit]. *)
val v0 : t

val equal : t -> t -> bool

(** Total order: by constructor rank ([Unit < Bool < Int < Str < Pair]),
    then structurally; pairs compare lexicographically. *)
val compare : t -> t -> int

val max : t -> t -> t
val pp : t Fmt.t
val to_string : t -> string

(** [add_to_buffer buf v] appends the text [pp] prints for [v]
    (strings quoted and escaped as OCaml literals). *)
val add_to_buffer : Buffer.t -> t -> unit

(** [add_int buf i] appends [string_of_int i]. *)
val add_int : Buffer.t -> int -> unit

(** {2 Timestamped values} *)

(** [with_ts ts v] is the timestamped value [<ts, v>]. *)
val with_ts : int -> t -> t

(** [ts v] is the timestamp of a timestamped value, and [0] for any
    value that is not of the form [with_ts ts _] (in particular for
    [v0], matching the initial timestamp [<0, v0>] of Algorithm 2). *)
val ts : t -> int

(** [payload v] is the payload of a timestamped value, or [v] itself
    otherwise. *)
val payload : t -> t
