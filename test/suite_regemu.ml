(* The umbrella library: everything reachable under one namespace, and
   the factory catalogue is complete and consistent. *)

let test name f = Alcotest.test_case name `Quick f

let umbrella_tests =
  [
    test "all_factories names are unique and resolvable" (fun () ->
        let names = List.map fst Regemu.all_factories in
        Alcotest.(check int)
          "unique" (List.length names)
          (List.length (List.sort_uniq compare names));
        Alcotest.(check bool) "has algorithm2" true
          (List.mem "algorithm2" names);
        Alcotest.(check int) "seven algorithms" 7 (List.length names));
    test "factory names match their Emulation.name" (fun () ->
        List.iter
          (fun (name, (f : Regemu.Emulation.factory)) ->
            Alcotest.(check string) "consistent" name f.name)
          Regemu.all_factories);
    test "a full write/read cycle through the umbrella namespace" (fun () ->
        let p = Regemu.Params.make_exn ~k:1 ~f:1 ~n:3 in
        let sim = Regemu.Sim.create ~n:p.n () in
        let w = Regemu.Sim.new_client sim in
        let reg = Regemu.Algorithm2.factory.make sim p ~writers:[ w ] in
        let policy = Regemu.Policy.uniform (Regemu.Rng.create 1) in
        ignore
          (Regemu.Driver.finish_call_exn sim policy ~budget:50_000
             (reg.write w (Regemu.Value.Int 9)));
        let v =
          Regemu.Driver.finish_call_exn sim policy ~budget:50_000
            (reg.read w)
        in
        Alcotest.(check bool) "9" true (Regemu.Value.equal v (Regemu.Value.Int 9)));
    test "checkers and formulas are reachable" (fun () ->
        let p = Regemu.Params.make_exn ~k:3 ~f:1 ~n:5 in
        Alcotest.(check bool)
          "bounds" true
          (Regemu.Formulas.register_lower_bound p
          <= Regemu.Formulas.register_upper_bound p);
        Alcotest.(check bool)
          "ws check on empty history" true
          (Regemu.Ws_check.is_ws_safe []));
    test "expected_objects of every factory is positive and >= 2f+1"
      (fun () ->
        let p = Regemu.Params.make_exn ~k:2 ~f:2 ~n:5 in
        List.iter
          (fun (_, (f : Regemu.Emulation.factory)) ->
            let e = f.expected_objects p in
            if e < (2 * p.Regemu.Params.f) + 1 then
              Alcotest.failf "%s promises %d < 2f+1" f.name e)
          Regemu.all_factories);
  ]

let suites =
  [
    ("regemu:umbrella", umbrella_tests);
  ]
