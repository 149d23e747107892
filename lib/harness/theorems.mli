(** Experiments L1 and TH1–TH8 — the paper's lemmas and theorems as
    measurable artifacts. *)

open Regemu_bounds

(** L1 — the Lemma 1 construction's run against Algorithm 2 (or any
    other register-based emulation): per-epoch covering growth,
    [Q_i]/[F_i] sizes, Lemma 4's fresh-server count, and the Lemma 2
    invariant monitor's verdict. *)
val lemma1 : Regemu_adversary.Lowerbound.run -> Report.t

(** TH1 — sweep the register bounds as a function of [n] for fixed
    [(k, f)]: shows the inverse dependence on [n], the coincidence
    points at [n = 2f+1] and [n >= kf+f+1], and the small residual
    gap in between. *)
val theorem1_sweep : k:int -> f:int -> ?n_max:int -> unit -> Report.t

(** TH2 — the k-writer max-register: our construction from [k]
    registers versus the lower bound of [k] (Theorem 2), and whether the
    construction is tight at every [k]. *)
val theorem2 : ks:int list -> Report.t * bool

(** TH5 — the partitioning impossibility at [n = 2f]: the executed
    schedule and the checker's verdict, rendered as text. *)
val theorem5 : f:int -> Regemu_adversary.Partition.outcome -> string

(** A1b — the new/old read inversion against ABD without reader
    write-back, rendered as text (why the paper's upper bounds target
    WS-Regularity rather than atomicity). *)
val inversion : Regemu_adversary.Inversion.outcome -> string

(** TH6 — at [n = 2f+1], registers stored per server by Algorithm 2's
    layout versus the per-server lower bound [k], and whether every
    server meets it. *)
val theorem6 : k:int -> f:int -> Report.t * bool

(** TH6 (adversarial) — run the Lemma 1 adversary at [n = 2f+1] and
    count the covered registers per server at the end of the run: every
    server outside [F] ends up with [k] covered registers, witnessing
    the per-server bound of Theorem 6 from below.  The boolean says
    whether every server outside [F] reached [k]. *)
val theorem6_adversarial :
  k:int -> f:int -> seed:int -> (Report.t * bool, string) result

(** TH7 — minimum number of servers when each server stores at most
    [m] registers: the formula [ceil(kf/m) + f + 1] across capacities,
    with the layout's actual per-server maximum at that server count
    as a feasibility cross-check, and whether that cross-check agrees
    with the bound at every capacity. *)
val theorem7 : k:int -> f:int -> capacities:int list -> Report.t * bool

(** TH8 — non-adaptivity to point contention: per-epoch resource
    consumption of the Lemma 1 run while point contention stays 1.  The
    boolean says whether point contention stayed 1 and the covered
    registers never fell. *)
val theorem8 :
  ?params:Params.t -> seed:int -> unit -> (Report.t * bool, string) result

(** A1 — Algorithm 1's time complexity: CAS operations per write-max
    as a function of the number of concurrently writing clients
    (the space/time tradeoff noted in the paper's Section 5). *)
val algorithm1_time : writers_list:int list -> ops_per_writer:int -> seed:int -> Report.t

(** CLASS — the paper's classification (Sections 1 and 5): space
    complexity of f-tolerant k-register emulation per base-object type,
    side by side with Herlihy's consensus number — the point being that
    the two hierarchies disagree (register and max-register share
    consensus number 1 yet are separated by a factor of k). *)
val classification : k:int -> f:int -> n:int -> Report.t

(** RSPACE — the paper's closing question made measurable: atomicity
    from plain registers via reader write-back costs space linear in
    the number of readers ([Algorithm2_rwb]), while with max-register
    servers atomicity is free ([Abd_max_atomic] stays at [2f+1]). *)
val reader_space : k:int -> f:int -> n:int -> readers_list:int list -> Report.t

(** BAL — operational load balance: low-level operations landing on
    each server during a sequential Algorithm 2 workload.  The
    round-robin layout of Figure 1 spreads both storage and traffic;
    the report shows per-server trigger counts and the max/min ratio. *)
val load_balance : k:int -> f:int -> n:int -> rounds:int -> seed:int -> Report.t

(** A1c — three max-register implementations side by side (the
    space/time classification theme of Section 5): the flat
    one-register-per-writer construction ([k] objects, O(k) reads), the
    single-CAS emulation of Algorithm 1 (1 object, retrying writes),
    and the Aspnes–Attiya–Censor tree ([capacity-1] objects,
    O(log capacity) everywhere).  [k] writers each write [ops] values
    below [capacity]. *)
val maxreg_comparison : k:int -> capacity:int -> ops:int -> seed:int -> Report.t
