(** Algorithm 2 with reader write-back — an experimental answer to the
    paper's closing question (Section 5): {e "since atomicity usually
    requires readers to write, it is interesting to investigate whether
    the space complexity (assuming read/write registers) in this case
    also linearly depends on the number of readers."}

    Construction: run Algorithm 2's layout for [k + r] slots, giving
    every one of the [r] registered readers its own register set.  A
    read collects as usual, then {e writes the value it is about to
    return} into its own set with the same covering discipline writers
    use, and only then returns.  Any later read's collect intersects
    the reader's write quorum, so no later read can return an older
    value — the histories become atomic (validated by exhaustive
    linearization search in the tests), at a space cost of

    [(k+r)f + ceil((k+r)/z)(f+1)]

    base registers: linear in the number of readers, exactly the
    dependence the paper anticipates.  (This is an upper bound built
    from the paper's machinery; whether it is {e necessary} is the open
    question.)

    Note the write-back must use the reader's {e own} registers: with
    fault-prone registers a reader cannot safely write into a writer's
    set — its stale covering writes would be indistinguishable from the
    Lemma 1 adversary's, which is why readers cost space here while
    they are free with max-register servers
    ({!Abd_max_atomic}).

    The protocol is {!Regemu_netsim.Quorum_client.Alg2} with reader
    slots ([?readers]) on {!Regemu_netsim.Quorum_client.Sim_runtime}. *)

open Regemu_bounds
open Regemu_objects
open Regemu_sim

type t

(** [create sim p ~writers ~readers]: requires
    [List.length writers = p.k]; readers are extra registered clients.
    The layout is sized for [p.k + List.length readers] slots. *)
val create :
  Sim.t -> Params.t -> writers:Id.Client.t list -> readers:Id.Client.t list -> t

val write : t -> Id.Client.t -> Value.t -> Sim.call

(** Only registered readers may read (they need a slot to write back
    into). *)
val read : t -> Id.Client.t -> Sim.call

val objects : t -> Id.Obj.t list

(** The space formula above. *)
val expected_objects : Params.t -> readers:int -> int
