open Regemu_objects
open Regemu_bounds
open Regemu_netsim
module Alg2 = Quorum_client.Alg2 (Quorum_client.Sim_runtime)

let make ?naive ?placement ~algo sim (p : Params.t) ~writers =
  let rt = Quorum_client.Sim_runtime.create sim ~max_registers:0 in
  let t = Alg2.create rt p ?naive ?placement ~writers () in
  {
    Emulation.algo;
    kind = Base_object.Register;
    params = p;
    write = Alg2.write t;
    read = Alg2.read t;
    objects = (fun () -> Quorum_client.Sim_runtime.objects rt);
  }

let factory =
  {
    Emulation.name = "algorithm2";
    obj_kind = Base_object.Register;
    expected_objects = Formulas.register_upper_bound;
    accepts = Emulation.any_params;
    make = (fun sim p ~writers -> make ~algo:"algorithm2" sim p ~writers);
  }
