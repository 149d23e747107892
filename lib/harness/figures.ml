open Regemu_bounds
open Regemu_core
open Regemu_adversary

let figure1 ?params () =
  let p =
    match params with Some p -> p | None -> Params.make_exn ~k:5 ~f:2 ~n:6
  in
  let sim = Regemu_sim.Sim.create ~n:p.Params.n () in
  let layout = Layout.build sim p in
  Fmt.str
    "Figure 1: mapping from R to S for %a (z=%d, y=%d, %d sets, %d registers)@.%a"
    Params.pp p (Formulas.z p) (Formulas.y p) (Layout.num_sets layout)
    (Layout.size layout) Layout.pp layout

let figure2 ~f (o : Violation.outcome) =
  let b = Buffer.create 512 in
  let ppf = Fmt.with_buffer b in
  Fmt.pf ppf
    "Figure 2: the Lemma 4 runs against the naive (2f+1)-register \
     algorithm, f=%d@."
    f;
  List.iteri (fun i s -> Fmt.pf ppf "  %d. %s@." (i + 1) s) o.steps;
  Fmt.pf ppf "Checker verdict: %a@." Regemu_history.Ws_check.verdict_pp
    o.verdict;
  Fmt.flush ppf ();
  Buffer.contents b
