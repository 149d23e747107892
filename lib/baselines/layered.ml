open Regemu_bounds

(* Algorithm 2 at n = 2f+1: z = 1, so each writer owns a set of 2f+1
   registers, one per server, and waits for |R| - f = f+1 of them;
   register j of every set goes to server j *)
let accepts (p : Params.t) =
  if p.n = (2 * p.f) + 1 then Ok ()
  else
    Error
      (Fmt.str "layered-2f+1 is defined only for n = 2f+1 (here n=%d, f=%d)"
         p.n p.f)

let make sim (p : Params.t) ~writers =
  Result.iter_error (fun e -> invalid_arg ("Layered.make: " ^ e)) (accepts p);
  Regemu_core.Algorithm2.make ~algo:"layered-2f+1"
    ~placement:(fun ~set:_ ~index ~n:_ -> index)
    sim p ~writers

let factory =
  {
    Regemu_core.Emulation.name = "layered-2f+1";
    obj_kind = Regemu_objects.Base_object.Register;
    expected_objects = (fun (p : Params.t) -> ((2 * p.f) + 1) * p.k);
    accepts;
    make;
  }
