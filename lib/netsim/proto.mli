(** The server-side protocol core shared by the scripted network
    simulator ({!Net}) and the live threaded runtime ([Regemu_live]).

    A server — whether a simulated process stepped by a scripted
    environment or a real OS thread draining a mailbox — is a {!store}
    (a table of keyed max-registers plus dynamically allocated plain
    register cells) together with the {!step} function mapping each
    delivered request to its effect on the store and the replies to
    send back.  Factoring this out guarantees the two runtimes execute
    exactly the same protocol: any divergence between a simulated and a
    live run is a property of the environment, never of the server
    code. *)

open Regemu_objects

(** Wire payloads.  [rid] is a client-chosen request id used to match
    replies to requests, so replies carry no key.

    [Query]/[Update] talk to the server's {e max-register} for [key]
    (the ABD server; the single register is key 0, a keyspace uses
    one key per register); [Reg_read]/[Reg_write] talk to plain
    {e register cells} allocated with {!alloc_reg}.  A delayed
    [Reg_write] request is a covering write on the wire: it overwrites
    whatever the cell holds when it is finally delivered. *)
type payload =
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
      (** collect every resident per-writer slot — the read side of the
          CDS layered multi-writer register ([Regemu_live.Cds_live]) *)
  | Cquery_reply of { rid : int; slots : (int * Value.t) list }
      (** resident [(slot, value)] pairs, sorted by slot index so the
          reply is canonical *)
  | Cwrite of { rid : int; slot : int; proposed : Value.t }
      (** per-writer write-max: slot [slot] keeps
          [max(stored, proposed)], allocated on first touch *)
  | Cwrite_reply of { rid : int; slot : int }

val payload_pp : payload Fmt.t

(** The request id carried by any payload. *)
val rid_of : payload -> int

(** [true] for server-to-client payloads. *)
val is_reply : payload -> bool

(** One server's storage: one table of max-registers by key, its plain
    register cells and its per-writer slots.  Not thread-safe by
    itself — in the live runtime each store is owned by exactly one
    server thread. *)
type store

val store_create : unit -> store

(** Allocate a fresh register cell, initially {!Value.v0}; returns its
    per-store index. *)
val alloc_reg : store -> int

val num_regs : store -> int
val peek_reg : store -> int -> Value.t

(** Number of keys whose max-register is resident — the per-server
    space metric of the keyspace experiments.  A key's cell is
    resident once it holds a value other than {!Value.v0}; a [Query]
    allocates nothing. *)
val num_keys : store -> int

(** Number of resident per-writer slots (the CDS space metric: slots
    are allocated on first [Cwrite] touch). *)
val num_slots : store -> int

(** Current content of one per-writer slot; {!Value.v0} for a slot
    never written here. *)
val peek_slot : store -> int -> Value.t

(** Size in bytes of a value's canonical wire encoding — the unit the
    resident-space metrics are reported in. *)
val value_bytes : Value.t -> int

(** Cells this store currently holds: every resident keyed
    max-register (see {!num_keys}), every allocated plain cell, and
    every touched per-writer cell.  The per-server space metric the
    benches sample. *)
val resident_cells : store -> int

(** Sum of {!value_bytes} over every resident cell. *)
val resident_bytes : store -> int

(** Wipe the store back to its initial state — every key and cell to
    {!Value.v0}, plain-cell allocation preserved.  A diskless
    restart ([Regemu_live.Recovery.Amnesia]); never called in the
    paper's persistent model. *)
val reset : store -> unit

(** Apply one delivered request to the store, returning the replies to
    send back.  Replies delivered to a server by mistake produce no
    output.  The update is idempotent for [Update] (write-max) and
    last-write-wins for [Reg_write], so at-least-once delivery is
    tolerated. *)
val step : store -> payload -> payload list
