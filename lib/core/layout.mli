(** The register layout of the upper-bound construction (Section 3.3).

    For parameters [(k, f, n)], builds the collection
    [R = {R_0, ..., R_{m-1}}] of pairwise-disjoint register sets, where
    [z = floor((n-(f+1))/f)] writers share each set, full sets have
    [y = zf + f + 1] registers, and the overflow set (when [z] does not
    divide [k]) has [(k mod z) f + f + 1].  Every register of a set is
    mapped to a distinct server ([|delta(R_i)| = |R_i|]), registers are
    spread round-robin across servers (Figure 1 shows one such layout
    for [n=6, k=5, f=2]) by {!Formulas.placement}.

    The total number of registers is exactly
    [Formulas.register_upper_bound]. *)

open Regemu_objects
open Regemu_bounds
open Regemu_sim

type t

(** [build sim p] allocates all base registers on [sim]'s servers.
    Requires [Sim.num_servers sim = p.n]. *)
val build : Sim.t -> Params.t -> t

val params : t -> Params.t

(** Number of register sets [m = ceil(k/z)]. *)
val num_sets : t -> int

(** [set t i] is [R_i]. *)
val set : t -> int -> Id.Obj.t array

(** [set_index_for_slot t ~slot] is the index of the register set
    writer number [slot] (0-based) writes to: [slot / z]. *)
val set_index_for_slot : t -> slot:int -> int

val set_for_slot : t -> slot:int -> Id.Obj.t array

(** All registers of the layout, across all sets. *)
val all_objects : t -> Id.Obj.t list

(** Registers of the layout stored on a given server (the layout's
    [delta^-1({s})]). *)
val objects_on : t -> Id.Server.t -> Id.Obj.t list

(** Total register count; equals [Formulas.register_upper_bound]. *)
val size : t -> int

(** Render the register-to-server mapping as in Figure 1: one line per
    server listing the registers (and their set) stored on it. *)
val pp : t Fmt.t
