(** The bound formulas of the paper (Table 1 and Theorems 1, 3, 6, 7).

    All functions take a validated {!Params.t}; arithmetic is exact
    integer arithmetic with explicit ceilings and floors, matching the
    paper's notation. *)

(** [ceil_div a b] is [ceil (a / b)] for positive [b]. *)
val ceil_div : int -> int -> int

(** [z p] is [floor ((n - (f+1)) / f)], the maximum number of writers a
    single register set of the upper-bound layout can support
    (Section 3.3).  [z p >= 1] for every valid parameter triple. *)
val z : Params.t -> int

(** [y p] is [z*f + f + 1], the size of a full register set in the
    upper-bound layout. *)
val y : Params.t -> int

(** [num_sets p] is [ceil (k / z)], the number of register sets
    [R_0 .. R_{m-1}] in the upper-bound layout. *)
val num_sets : Params.t -> int

(** Sizes [|R_0|; ...; |R_{m-1}|] of the register sets of the
    upper-bound layout: all full sets have size [y]; if [z] does not
    divide [k], the final overflow set has size
    [(k mod z) * f + f + 1]. *)
val set_sizes : Params.t -> int list

(** [placement ~set ~index ~n] is the server of register [index] of set
    [R_set]: [(set + index) mod n].  Sets are smaller than [n], so a
    set's registers land on pairwise distinct servers
    ([|delta(R_i)| = |R_i|]), and consecutive sets are spread
    round-robin (Figure 1). *)
val placement : set:int -> index:int -> n:int -> int

(** [walk_sets ?placement ~n sizes alloc] builds the register sets of
    the Section 3.3 layout: set [i] has [List.nth sizes i] registers,
    register [j] of it allocated by [alloc server] with [server =
    placement ~set:i ~index:j ~n] (default {!placement}).  Registers
    are allocated set by set, in index order. *)
val walk_sets :
  ?placement:(set:int -> index:int -> n:int -> int) ->
  n:int ->
  int list ->
  (int -> 'a) ->
  'a array list

(** Lower bound on the number of base read/write registers needed by any
    [f]-tolerant WS-Safe obstruction-free [k]-register emulation
    (Theorem 1): [kf + ceil (kf / (n - (f+1))) * (f+1)]. *)
val register_lower_bound : Params.t -> int

(** Number of base registers used by the upper-bound construction
    (Theorem 3): [kf + ceil (k / z) * (f+1)].  Always at least
    {!register_lower_bound}. *)
val register_upper_bound : Params.t -> int

(** Bounds for max-register and CAS base objects are both [2f + 1],
    independent of [k] and [n] (Table 1). *)
val maxreg_bound : Params.t -> int

val cas_bound : Params.t -> int

(** Theorem 2: a wait-free [k]-writer max-register built from wait-free
    MWMR atomic registers needs at least [k] of them (no failures). *)
val maxreg_register_lower_bound : k:int -> int

(** Theorem 6: when [n = 2f+1], every server must store at least [k]
    registers. *)
val per_server_lower_bound_at_minimum_n : Params.t -> int

(** Theorem 7: with at most [m] registers per server, at least
    [ceil (kf / m) + f + 1] servers are needed. *)
val min_servers : k:int -> f:int -> capacity:int -> int

(** [max_writers ~f ~n ~budget] is the largest [k] such that the
    upper-bound construction fits within [budget] base registers
    ([register_upper_bound <= budget]), or [None] if even [k = 1] does
    not fit.  The inverse of {!register_upper_bound} in [k], used for
    capacity planning. *)
val max_writers : f:int -> n:int -> budget:int -> int option

(** [bounds_coincide p] is [true] when lower and upper register bounds
    are equal; guaranteed by the paper at [n = 2f+1] (both equal
    [kf + k(f+1)]) and at [n >= kf + f + 1] (both equal [kf + f + 1]). *)
val bounds_coincide : Params.t -> bool

(** Smallest [n] at which the register bounds flatten to [kf + f + 1]. *)
val saturation_n : k:int -> f:int -> int

(** {2 Keyspace capacity}

    A keyspace ([Regemu_keyspace]) stores each key's max-register on a
    replica set of [2f+1] servers (Table 1: the max-register bound is
    independent of [k] and [n]), so space scales per {e key}, not per
    writer. *)

(** [2f+1] — the replica-set size of every key.  Raises on [f < 1]. *)
val replicas_per_key : f:int -> int

(** [max_keys ~n ~f ~per_server_capacity] is the largest number of keys
    a balanced layout can place when each of the [n] servers stores at
    most [per_server_capacity] max-register cells: [n*c / (2f+1)],
    or [None] when [n < 2f+1] (no replica set fits at all).  The
    keyspace analogue of {!max_writers}. *)
val max_keys : n:int -> f:int -> per_server_capacity:int -> int option
