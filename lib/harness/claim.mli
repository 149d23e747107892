(** The claim registry: one entry per artifact of the paper (Table 1,
    Figures 1–2, Lemmas, Theorems, Algorithm 1), each with the blocks it
    prints and a verdict on whether the paper's claim holds.

    Everything that reproduces an artifact is generated from {!all}:
    the [regemu <id>] subcommands, [regemu all], [regemu verify] and
    [bench/main.exe <id>].  doc/paper-map.md's Results table names each
    claim by its id, and a test keeps the two lists equal. *)

type block = Table of Report.t | Text of string

type verdict =
  | Holds of string  (** what was checked *)
  | Fails of string  (** what broke *)
  | Not_checked of string  (** why the claim carries no check *)

(** The shared command-line settings a claim may read. *)
type flag = K | F | N | Seed | Algo

type args = {
  k : int;
  f : int;
  n : int;
  seed : int;
  algo : Regemu_core.Emulation.factory;
}

type t = {
  id : string;  (** subcommand and bench-section name *)
  paper : string;  (** the paper element, as in doc/paper-map.md *)
  doc : string;
  reads : flag list;  (** the settings [run] uses; the rest are constants *)
  defaults : args;
  run : args -> block list * verdict;
}

val all : t list

(** [c]'s defaults with [seed] in place of its own, if [c] reads
    [Seed]. *)
val with_seed : int -> t -> args

(** Run each claim, print its blocks (unless [verdicts_only]) and its
    verdict line, then, for more than one claim, a pass/fail count.
    A claim that raises counts as failed, with the exception's text.
    Returns the exit status: 1 if any claim failed, else 0.  With
    [markdown], tables render as markdown and text blocks as code
    blocks. *)
val run :
  ?markdown:bool ->
  ?verdicts_only:bool ->
  Format.formatter ->
  (t * args) list ->
  int

(** Table 1's verdict over its rows: every run safe and within its
    bounds, and the paper's shape — max-register and CAS rows at
    [2f+1], the register row growing with [k] and equal to [kf+f+1]
    once [n >= kf+f+1]. *)
val table1_verdict : Table1.row list -> verdict
