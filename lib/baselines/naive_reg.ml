let factory =
  {
    Regemu_core.Emulation.name = "naive-reg";
    obj_kind = Regemu_objects.Base_object.Register;
    expected_objects = (fun (p : Regemu_bounds.Params.t) -> (2 * p.f) + 1);
    accepts = Regemu_core.Emulation.any_params;
    make =
      (fun sim p ~writers ->
        Regemu_core.Algorithm2.make ~naive:true ~algo:"naive-reg" sim p
          ~writers);
  }
