let factory =
  {
    Abd_max.factory with
    Regemu_core.Emulation.name = "abd-max-atomic";
    make =
      (fun sim p ~writers ->
        Abd_max.make ~write_back_reads:true ~algo:"abd-max-atomic" sim p
          ~writers);
  }
