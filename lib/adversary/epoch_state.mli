(** The adversary's bookkeeping for the Lemma 1 construction
    (Definition 1 of the paper), and its blocking rule (Definition 2).

    The state reads no model: it consumes an ordered stream of
    covering-write actions, "write [id] by client [c] on object [b] of
    server [s] is triggered" and "write [id] responds", so the same
    bookkeeping serves every substrate that can name its covering
    writes.  It lasts the whole run; epoch [i] starts at time [t_{i-1}]
    (the end of the previous high-level write) and tracks:

    - [Tr_i(t)]: registers with a low-level write triggered in-epoch;
    - [Rr_i(t)]: registers whose in-epoch write also responded in-epoch;
    - [Cov_i(t) = Cov(t) \ Cov(t_{i-1})]: newly covered registers;
    - [Q_i(t)]: the first at-most-[f] newly covered servers outside [F]
      (sticky once [|delta(Cov_i) \ F| > f], Definition 1.4);
    - [F_i(t)]: servers of [F] that responded to an in-epoch write;
    - [M_i(t) = delta(Cov_i) ∩ (F \ F_i)];
    - [G_i(t) = M_i] when [|Q_i| < |F_i|], else empty.

    The sets are replayed action by action, so the sticky [Q_i] matches
    the paper's time-indexed definition exactly. *)

open Regemu_objects

(** A low-level register write: its id (unique in the run), the client
    that triggered it, the register it covers and that register's
    server. *)
type write = {
  id : int;
  client : Id.Client.t;
  obj : Id.Obj.t;
  server : Id.Server.t;
}

type action = Trigger of write | Respond of int  (** the write's id *)

type t

(** [create ~f_set] opens epoch 1 with nothing covered and no client in
    [C(t_0)].  [f_set] is the paper's [F] ([|F| = f+1]). *)
val create : f_set:Id.Server.Set.t -> t

(** Record one action.  A [Respond] whose id names no pending write
    (a read, a reply, an unknown id) changes nothing. *)
val apply : t -> action -> unit

(** [next_epoch t ~completed] closes the current epoch: [completed],
    whose high-level write returned, joins [C(t_i)], and [Cov(t_i)]
    becomes the new epoch's baseline. *)
val next_epoch : t -> completed:Id.Client.t -> unit

val f_set : t -> Id.Server.Set.t

(** The failure threshold [f = |F| - 1]. *)
val f_count : t -> int

(** {2 The sets of Definition 1} *)

val tri : t -> Id.Obj.Set.t
val rri : t -> Id.Obj.Set.t
val covi : t -> Id.Obj.Set.t
val qi : t -> Id.Server.Set.t
val fi : t -> Id.Server.Set.t
val mi : t -> Id.Server.Set.t
val gi : t -> Id.Server.Set.t

(** [delta(Cov_i)] and [delta(Rr_i)] — server images of the sets. *)
val delta_covi : t -> Id.Server.Set.t

val delta_rri : t -> Id.Server.Set.t

(** [Cov(t_{i-1})]: registers covered when the epoch started. *)
val cov_start : t -> Id.Obj.Set.t

(** [Cov(t)]: registers with a pending write. *)
val cov_now : t -> Id.Obj.Set.t

(** [delta t b]: the server of a register seen in a trigger. *)
val delta : t -> Id.Obj.t -> Id.Server.t

(** [blocked t id] decides [BlockedWrites_i] membership (Definition 2):
    the pending write [id] is blocked iff its client is in [C(t_{i-1})]
    (rule 1) or its register is on a server of [Q_i ∪ G_i] (rule 2).
    An id that names no pending write (a read, a reply) is never
    blocked. *)
val blocked : t -> int -> bool

(** Servers of [Tr_i \ Cov(t_{i-1})] — the quantity bounded below by
    [2f+1] in Lemma 4. *)
val servers_triggered_fresh : t -> Id.Server.Set.t
