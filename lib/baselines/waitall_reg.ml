open Regemu_objects
open Regemu_sim
open Regemu_core

let make sim (p : Regemu_bounds.Params.t) ~writers =
  if List.length writers <> p.k then
    invalid_arg "Waitall_reg.make: writer count mismatch";
  if Sim.num_servers sim <> p.n then
    invalid_arg "Waitall_reg.make: server count mismatch";
  let replicas = (2 * p.f) + 1 in
  let objects =
    List.init replicas (fun i ->
        Sim.alloc sim ~server:(Id.Server.of_int i) Base_object.Register)
  in
  let is_writer c = List.exists (Id.Client.equal c) writers in
  let collect_max ~client ~quorum =
    let count = ref 0 in
    let best = ref Value.v0 in
    List.iter
      (fun b ->
        ignore
          (Sim.trigger sim ~client b Base_object.Read ~on_response:(fun v ->
               best := Value.max !best v;
               incr count)))
      objects;
    Sim.wait_until (fun () -> !count >= quorum);
    !best
  in
  let write c v =
    if not (is_writer c) then invalid_arg "Waitall_reg.write: not a writer";
    Sim.invoke sim ~client:c (Trace.H_write v) (fun () ->
        let latest = collect_max ~client:c ~quorum:(p.f + 1) in
        let ts_val = Value.with_ts (Value.ts latest + 1) v in
        let acks = ref 0 in
        List.iter
          (fun b ->
            ignore
              (Sim.trigger sim ~client:c b (Base_object.Write ts_val)
                 ~on_response:(fun _ -> incr acks)))
          objects;
        (* the fatal choice: wait for every single register *)
        Sim.wait_until (fun () -> !acks >= replicas);
        Value.Unit)
  in
  let read c =
    Sim.invoke sim ~client:c Trace.H_read (fun () ->
        Value.payload (collect_max ~client:c ~quorum:(p.f + 1)))
  in
  {
    Emulation.algo = "waitall-reg";
    kind = Base_object.Register;
    params = p;
    write;
    read;
    objects = (fun () -> objects);
  }

let factory =
  {
    Emulation.name = "waitall-reg";
    obj_kind = Base_object.Register;
    expected_objects = (fun p -> (2 * p.f) + 1);
    accepts = Regemu_core.Emulation.any_params;
    make;
  }
