open Regemu_bounds
open Regemu_objects
open Regemu_core
open Regemu_netsim
module Abd = Quorum_client.Abd (Quorum_client.Sim_runtime)

let make ?write_back_reads ~algo sim (p : Params.t) ~writers =
  if List.length writers <> p.k then
    invalid_arg (algo ^ ".make: writer count mismatch");
  if Regemu_sim.Sim.num_servers sim <> p.n then
    invalid_arg (algo ^ ".make: server count mismatch");
  let rt =
    Quorum_client.Sim_runtime.create sim ~max_registers:((2 * p.f) + 1)
  in
  let t = Abd.create rt ~f:p.f ?write_back_reads () in
  let write c v =
    if not (List.exists (Id.Client.equal c) writers) then
      invalid_arg (algo ^ ".write: not a writer");
    Abd.write t c v
  in
  {
    Emulation.algo;
    kind = Base_object.Max_register;
    params = p;
    write;
    read = Abd.read t;
    objects = (fun () -> Quorum_client.Sim_runtime.objects rt);
  }

let factory =
  {
    Emulation.name = "abd-max";
    obj_kind = Base_object.Max_register;
    expected_objects = Formulas.maxreg_bound;
    accepts = Regemu_core.Emulation.any_params;
    make = (fun sim p ~writers -> make ~algo:"abd-max" sim p ~writers);
  }
