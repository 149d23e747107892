(** Algorithm 2 over the wire: the paper's register-based construction
    run against network-attached register cells.

    Servers expose only read/write cells ({!Net.alloc_reg} /
    [Reg_read] / [Reg_write]); a delayed [Reg_write] {e request} is a
    covering write travelling the network — whenever it is finally
    delivered it overwrites the cell, exactly the erasure the paper's
    lower bound exploits.  The construction is therefore the same as
    the shared-memory Algorithm 2: the Section 3.3 layout sized by
    [kf + ceil(k/z)(f+1)], per-writer covering discipline (never two of
    a writer's requests outstanding on one cell; re-send the current
    value when a stale acknowledgement finally arrives), quorum
    [|R_j| - f] per write, and collects over all cells of [n - f]
    servers.

    An optional [naive] mode drops the covering discipline and uses one
    cell per server ([2f+1] total) — the wire-level strawman that the
    deterministic schedule in the test suite breaks, showing the
    Figure 2 phenomenon needs nothing more exotic than a slow
    datagram. *)

open Regemu_bounds
open Regemu_objects

type t

(** [create net p ~writers] allocates the layout's cells on [net]'s
    servers.  [~naive:true] builds the 2f+1-cell strawman instead;
    [placement] and [readers] as in {!Quorum_client.Alg2.create}. *)
val create :
  Net.t ->
  Params.t ->
  ?naive:bool ->
  ?placement:(set:int -> index:int -> n:int -> int) ->
  ?readers:Id.Client.t list ->
  writers:Id.Client.t list ->
  unit ->
  t

(** Total register cells allocated. *)
val cells : t -> int

val write : t -> Id.Client.t -> Value.t -> Net.call
val read : t -> Id.Client.t -> Net.call
