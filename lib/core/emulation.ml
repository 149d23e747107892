open Regemu_objects
open Regemu_bounds
open Regemu_sim

type instance = {
  algo : string;
  kind : Base_object.kind;
  params : Params.t;
  write : Id.Client.t -> Value.t -> Sim.call;
  read : Id.Client.t -> Sim.call;
  objects : unit -> Id.Obj.t list;
}

type factory = {
  name : string;
  obj_kind : Base_object.kind;
  expected_objects : Params.t -> int;
  accepts : Params.t -> (unit, string) result;
  make : Sim.t -> Params.t -> writers:Id.Client.t list -> instance;
}

let any_params _ = Ok ()

let call_sync sim ~client b op =
  let result = ref None in
  ignore
    (Sim.trigger sim ~client b op ~on_response:(fun v -> result := Some v));
  Sim.wait_until (fun () -> !result <> None);
  Option.get !result
