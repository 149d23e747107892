(** Experiments on the message-passing substrate (the NET row of the
    experiment index): message complexity of ABD, message complexity of
    wire-level Algorithm 2, and the lower-bound staircase driven by an
    adversarial router. *)

(** Messages delivered per high-level ABD operation as [f] grows
    (two quorum rounds of [2f+1] requests each). *)
val abd_messages : fs:int list -> ops:int -> seed:int -> Report.t

(** Cells and messages per operation for wire-level Algorithm 2 — with
    plain register cells both space {e and} messages grow. *)
val alg2_messages : configs:(int * int * int) list -> seed:int -> Report.t

(** The covering staircase produced by the router that withholds write
    requests (the Lemma 1 construction on the wire). *)
val staircase :
  k:int -> f:int -> n:int -> seed:int -> (Report.t, string) result

(** ABD at [n = 3, f = 1] with server 1 crashed: whether the history
    of a write and then a read, under a seeded random schedule, is
    WS-Regular.  Raises [Failure] if either operation stalls. *)
val abd_survives_crash : seed:int -> bool
