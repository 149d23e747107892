let all : (string * Regemu_core.Emulation.factory) list =
  List.map
    (fun (f : Regemu_core.Emulation.factory) -> (f.name, f))
    [
      Regemu_core.Algorithm2.factory;
      Abd_max.factory;
      Abd_max_atomic.factory;
      Abd_cas.factory;
      Layered.factory;
      Naive_reg.factory;
      Waitall_reg.factory;
    ]
