(** The live protocols: the catalogue of algorithm names the live
    commands, the benchmark runner ([Regemu_bench.Bench]), the
    deterministic simulation tester ([Regemu_dst.Dst]) and the chaos
    campaigns share, and the one place each is built on a cluster. *)

type algo = Abd | Abd_wb | Alg2 | Cds

val algo_name : algo -> string

(** Every valid {!algo_name}, in declaration order — the list CLI
    errors quote. *)
val algo_names : string list

val algo_of_name : string -> algo option

(** [emulation algo cluster ~f ~writers] builds [algo] on [cluster]
    before {!Cluster.start} and returns its [(write, read)]; Algorithm 2
    is sized [k = List.length writers], [n = Cluster.num_servers
    cluster]. *)
val emulation :
  algo ->
  Cluster.t ->
  f:int ->
  writers:Cluster.client list ->
  (Cluster.client -> Regemu_objects.Value.t -> unit)
  * (Cluster.client -> Regemu_objects.Value.t)
