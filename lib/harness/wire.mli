(** Experiments on the message-passing substrate (the NET row of the
    experiment index): message complexity of ABD, message complexity of
    wire-level Algorithm 2, and the lower-bound staircase driven by an
    adversarial router. *)

open Regemu_bounds

(** Messages delivered per high-level ABD operation as [f] grows
    (two quorum rounds of [2f+1] requests each). *)
val abd_messages : fs:int list -> ops:int -> seed:int -> Report.t

(** Cells and messages per operation for wire-level Algorithm 2 — with
    plain register cells both space {e and} messages grow. *)
val alg2_messages : configs:(int * int * int) list -> seed:int -> Report.t

(** The Lemma 1 construction on the wire: {!Regemu_netsim.Alg2_net}
    under {!Regemu_adversary.Lowerbound.Make}'s [Ad_i], where the
    adversary is a router that withholds [Reg_write] requests.  An
    undelivered request covers its cell; [F] is
    {!Regemu_adversary.Lowerbound.default_f_set}. *)
val staircase :
  Params.t ->
  seed:int ->
  (Regemu_adversary.Lowerbound.epoch_stats list, string) result

(** ABD at [n = 3, f = 1] with server 1 crashed: whether the history
    of a write and then a read, under a seeded random schedule, is
    WS-Regular.  Raises [Failure] if either operation stalls. *)
val abd_survives_crash : seed:int -> bool
