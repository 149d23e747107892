module Json = Regemu_obs.Json

let default_spec ?(backend = Transport.Threads) ?(algo = Live_bench.Abd) ~seed
    () =
  {
    (Live_bench.default_spec ~backend ~algo ~chaos:false ~seed ()) with
    ops_per_client = 120;
    gray =
      Some
        {
          Live_bench.base_us = 1_000;
          straggler = Some (2, 10_000);
          hedge_fires = true;
        };
  }

let smoke_spec ?backend ?algo ~seed () =
  { (default_spec ?backend ?algo ~seed ()) with ops_per_client = 25 }

(* The three arms.  [Baseline] is the fault-free reference; the other
   two run under the straggler and differ only in whether the armed
   hedge ever fires — [Unhedged] sends each round to the chosen
   quorum-sized subset and then just waits, which is exactly the
   ablation the hedge must beat. *)
type arm = Baseline | Unhedged | Hedged

let arm_name = function
  | Baseline -> "baseline"
  | Unhedged -> "unhedged"
  | Hedged -> "hedged"

let gray s =
  match s.Live_bench.gray with
  | Some ({ straggler = Some straggler; _ } as g) -> (g, straggler)
  | _ -> invalid_arg "Tail_bench: the spec needs a gray straggler"

let arm_of s =
  match s.Live_bench.gray with
  | Some { straggler = None; _ } -> Baseline
  | Some { hedge_fires = false; _ } -> Unhedged
  | _ -> Hedged

let arms s =
  let g, _ = gray s in
  let arm g' = { s with gray = Some g' } in
  [
    arm { g with straggler = None; hedge_fires = true };
    arm { g with hedge_fires = false };
    arm { g with hedge_fires = true };
  ]

let find outs arm = List.find (fun o -> arm_of o.Live_bench.spec = arm) outs

(* hedged-under-straggler p99 over fault-free p99 — the headline
   number; 0 when the baseline measured nothing *)
let p99_ratio outs =
  let b = Live_bench.pct (find outs Baseline) 0.99 in
  if b > 0.0 then Live_bench.pct (find outs Hedged) 0.99 /. b else 0.0

(* --- reporting ---------------------------------------------------------- *)

let arm_pp ppf (o : Live_bench.outcome) =
  Fmt.pf ppf
    "%-8s %d ops in %.3fs: µs mean=%.0f %a; %d hedges (%d won), %d slowed, \
     %d retries, %d unavailable%s"
    (arm_name (arm_of o.spec))
    o.ops o.wall_s o.mean_us
    Fmt.(
      list ~sep:(any " ") (fun ppf (p, v) ->
          Fmt.pf ppf "p%.0f=%.0f" (p *. 100.) v))
    o.pcts_us o.hedges o.hedge_wins o.msgs_slowed o.retries o.unavailable
    (if Live_bench.clean o then "" else " DIRTY")

let outcome_pp ppf outs =
  let s = (find outs Hedged).spec in
  let g, (server, us) = gray s in
  Fmt.pf ppf "tail: straggler server %d at +%dus (base +%dus), %d ops/client"
    server us g.base_us s.ops_per_client;
  List.iter (fun o -> Fmt.pf ppf "@.  %a" arm_pp o) outs;
  Fmt.pf ppf "@.  hedged p99 / fault-free p99 = %.2f" (p99_ratio outs)

let arm_json (o : Live_bench.outcome) =
  let arm = arm_of o.spec in
  Json.Obj
    [
      ("arm", Json.Str (arm_name arm));
      ("straggler", Json.Bool (arm <> Baseline));
      ("hedge_fires", Json.Bool (arm <> Unhedged));
      ("ops", Json.Int o.ops);
      ("wall_s", Json.Float o.wall_s);
      ("latency_mean_us", Json.Float o.mean_us);
      ("latency_p50_us", Json.Float (Live_bench.pct o 0.50));
      ("latency_p95_us", Json.Float (Live_bench.pct o 0.95));
      ("latency_p99_us", Json.Float (Live_bench.pct o 0.99));
      ("hedges", Json.Int o.hedges);
      ("hedge_wins", Json.Int o.hedge_wins);
      ("msgs_slowed", Json.Int o.msgs_slowed);
      ("retries", Json.Int o.retries);
      ("unavailable", Json.Int o.unavailable);
      ( "ws_regular",
        Json.Str
          (Fmt.str "%a" Regemu_history.Ws_check.verdict_pp o.check.Checker.ws)
      );
      ("clean", Json.Bool (Live_bench.clean o));
    ]

let to_json outs =
  let s = (find outs Hedged).spec in
  let g, (server, us) = gray s in
  Json.Obj
    [
      ("schema", Json.Str "regemu-tail/1");
      ("algo", Json.Str (Live_bench.algo_name s.algo));
      ("seed", Json.Int s.seed);
      ("n", Json.Int s.n);
      ("f", Json.Int s.f);
      ("clients", Json.Int (s.k + s.readers));
      ("ops_per_client", Json.Int s.ops_per_client);
      ("base_us", Json.Int g.base_us);
      ("straggler_us", Json.Int us);
      ("straggler_server", Json.Int server);
      ("arms", Json.List (List.map arm_json outs));
      ("hedged_p99_over_baseline_p99", Json.Float (p99_ratio outs));
      ("clean", Json.Bool (List.for_all Live_bench.clean outs));
    ]

(* Structural check of the regemu-tail/1 document: the three arms must
   be present (in A/B/ablation order) with numeric latency fields, and
   the headline ratio must be a number. *)
let validate_tail_json doc =
  let ( let* ) = Result.bind in
  let* () = Json.check_schema "regemu-tail/1" doc in
  let* _ = Json.get "hedged_p99_over_baseline_p99" Json.to_float_opt doc in
  let* arms = Json.get "arms" Json.to_list_opt doc in
  let* () =
    Json.each
      (fun a ->
        let* _ = Json.get "arm" Json.to_str_opt a in
        Json.each
          (fun k -> Result.map ignore (Json.get k Json.to_float_opt a))
          [ "latency_p50_us"; "latency_p95_us"; "latency_p99_us" ])
      arms
  in
  let order = [ Baseline; Unhedged; Hedged ] in
  if
    List.map (Json.member "arm") arms
    <> List.map (fun a -> Some (Json.Str (arm_name a))) order
  then Error "arms must be [baseline; unhedged; hedged]"
  else Ok ()
