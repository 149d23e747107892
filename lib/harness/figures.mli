(** Experiments F1 and F2 — the paper's two figures.

    Figure 1 is a possible mapping from the register sets
    [R_0..R_{m-1}] to servers for [n=6, k=5, f=2]; we render the layout
    our {!Regemu_core.Layout} actually builds for those parameters.

    Figure 2 illustrates the runs constructed in the proof of Lemma 4;
    we replay the concrete schedule of
    {!Regemu_adversary.Violation.against_naive} and render its
    narration together with the checker's verdict. *)

open Regemu_bounds

(** Figure 1: the register-to-server mapping.  Default parameters are
    the paper's ([n=6, k=5, f=2]). *)
val figure1 : ?params:Params.t -> unit -> string

(** Figure 2: the Lemma 4 schedule of
    {!Regemu_adversary.Violation.against_naive} at [f] and the
    resulting WS-Safety violation, rendered as a narration. *)
val figure2 : f:int -> Regemu_adversary.Violation.outcome -> string
