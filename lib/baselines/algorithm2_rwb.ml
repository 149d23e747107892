open Regemu_bounds
open Regemu_netsim
module Alg2 = Quorum_client.Alg2 (Quorum_client.Sim_runtime)

type t = { rt : Quorum_client.Sim_runtime.t; alg : Alg2.t }

let expected_objects (p : Params.t) ~readers =
  Formulas.register_upper_bound
    (Params.make_exn ~k:(p.k + readers) ~f:p.f ~n:p.n)

let create sim (p : Params.t) ~writers ~readers =
  if readers = [] then invalid_arg "Algorithm2_rwb.create: no readers";
  let rt = Quorum_client.Sim_runtime.create sim ~max_registers:0 in
  { rt; alg = Alg2.create rt p ~readers ~writers () }

let write t = Alg2.write t.alg
let read t = Alg2.read t.alg
let objects t = Quorum_client.Sim_runtime.objects t.rt
