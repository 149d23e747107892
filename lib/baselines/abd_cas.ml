open Regemu_bounds
open Regemu_objects
open Regemu_sim
open Regemu_core

let make sim (p : Params.t) ~writers =
  if List.length writers <> p.k then
    invalid_arg "Abd_cas.make: writer count mismatch";
  if Sim.num_servers sim <> p.n then
    invalid_arg "Abd_cas.make: server count mismatch";
  let replicas = (2 * p.f) + 1 in
  let objects =
    List.init replicas (fun i ->
        Sim.alloc sim ~server:(Id.Server.of_int i) Base_object.Cas)
  in
  let quorum = p.f + 1 in
  let is_writer c = List.exists (Id.Client.equal c) writers in
  (* read phase: one read-max (a CAS no-op) per server, wait for f+1 *)
  let collect_max ~client =
    let count = ref 0 in
    let best = ref Value.v0 in
    List.iter
      (fun b ->
        Cas_maxreg.read_max_async sim ~client b ~on_value:(fun v ->
            best := Value.max !best v;
            incr count))
      objects;
    Sim.wait_until (fun () -> !count >= quorum);
    !best
  in
  let write c v =
    if not (is_writer c) then invalid_arg "Abd_cas.write: not a writer";
    Sim.invoke sim ~client:c (Trace.H_write v) (fun () ->
        let latest = collect_max ~client:c in
        let ts_val = Value.with_ts (Value.ts latest + 1) v in
        let acks = ref 0 in
        List.iter
          (fun b ->
            Cas_maxreg.write_max_async sim ~client:c b ts_val
              ~on_done:(fun () -> incr acks))
          objects;
        Sim.wait_until (fun () -> !acks >= quorum);
        Value.Unit)
  in
  let read c =
    Sim.invoke sim ~client:c Trace.H_read (fun () ->
        Value.payload (collect_max ~client:c))
  in
  {
    Emulation.algo = "abd-cas";
    kind = Base_object.Cas;
    params = p;
    write;
    read;
    objects = (fun () -> objects);
  }

let factory =
  {
    Emulation.name = "abd-cas";
    obj_kind = Base_object.Cas;
    expected_objects = Formulas.cas_bound;
    accepts = Regemu_core.Emulation.any_params;
    make;
  }
