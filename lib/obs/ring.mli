(** A fixed-capacity overwriting ring: the event store behind every
    trace recorder.  A full ring drops its {e oldest} entry on push, so
    a long run keeps the most recent window of events at a bounded
    cost — the flight-recorder discipline.  Storage starts at a few
    dozen slots and doubles on demand up to the capacity, so a short
    recording pays for what it holds, not for the whole window.  Not
    thread-safe; {!Trace} serializes access per recorder. *)

type 'a t

(** [create ~capacity ~dummy] makes an empty ring holding at most
    [capacity] entries; spare slots are filled with [dummy] (never
    observable through {!to_list}).  Raises [Invalid_argument] on a
    non-positive capacity. *)
val create : capacity:int -> dummy:'a -> 'a t

val capacity : 'a t -> int

(** Entries currently held (≤ capacity). *)
val length : 'a t -> int

(** Total pushes over the ring's lifetime, including overwritten ones. *)
val pushed : 'a t -> int

(** Entries lost to overwriting: [pushed - length] once full. *)
val dropped : 'a t -> int

(** Append, overwriting the oldest entry when full. *)
val push : 'a t -> 'a -> unit

(** Held entries, oldest first. *)
val to_list : 'a t -> 'a list

(** Iterate held entries, oldest first. *)
val iter : 'a t -> ('a -> unit) -> unit

(** Forget everything (capacity is kept). *)
val clear : 'a t -> unit
