module Dpor = Regemu_mcheck.Dpor
module Json = Regemu_obs.Json

type config = {
  algo : string;
  k : int;
  f : int;
  n : int;
  mode : string;
  writer_ops : int list;
  readers : int;
  reads_each : int;
  crashes : int;
  max_explored : int;
}

type t = {
  config : config;
  explored : int;
  pruned : int;
  pruned_ratio : float;
  brute_force_floor : int;
  terminal_runs : int;
  stuck_runs : int;
  distinct_states : int;
  max_depth : int;
  exhaustive : bool;
  ws_safe_violations : int;
  ws_regular_violations : int;
  invariant_violations : int;
  first_violation : string option;
  verdict : string;
}

let schema = "regemu-cert/1"

let ratio ~explored ~pruned =
  let d = explored + pruned in
  if d = 0 then 0.0 else float_of_int pruned /. float_of_int d

let verdict_of (s : Dpor.stats) =
  let violations =
    s.ws_safe_violations + s.ws_regular_violations + s.invariant_violations
  in
  if violations > 0 then "violations-found"
  else if s.exhaustive then "verified-clean"
  else "inconclusive"

let make ~config (s : Dpor.stats) =
  {
    config;
    explored = s.explored;
    pruned = s.pruned;
    pruned_ratio = ratio ~explored:s.explored ~pruned:s.pruned;
    brute_force_floor = s.explored + s.pruned;
    terminal_runs = s.terminal_runs;
    stuck_runs = s.stuck_runs;
    distinct_states = s.distinct_states;
    max_depth = s.max_depth;
    exhaustive = s.exhaustive;
    ws_safe_violations = s.ws_safe_violations;
    ws_regular_violations = s.ws_regular_violations;
    invariant_violations = s.invariant_violations;
    first_violation = s.first_violation;
    verdict = verdict_of s;
  }

let config_json c =
  Json.Obj
    [
      ("algo", Json.Str c.algo);
      ("k", Json.Int c.k);
      ("f", Json.Int c.f);
      ("n", Json.Int c.n);
      ("mode", Json.Str c.mode);
      ("writer_ops", Json.List (List.map (fun o -> Json.Int o) c.writer_ops));
      ("readers", Json.Int c.readers);
      ("reads_each", Json.Int c.reads_each);
      ("crashes", Json.Int c.crashes);
      ("max_explored", Json.Int c.max_explored);
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("config", config_json t.config);
      ("dpor", Json.Bool true);
      ("sleep", Json.Bool true);
      ("explored", Json.Int t.explored);
      ("pruned", Json.Int t.pruned);
      ("pruned_ratio", Json.Float t.pruned_ratio);
      ("brute_force_floor", Json.Int t.brute_force_floor);
      ("terminal_runs", Json.Int t.terminal_runs);
      ("stuck_runs", Json.Int t.stuck_runs);
      ("distinct_states", Json.Int t.distinct_states);
      ("max_depth", Json.Int t.max_depth);
      ("exhaustive", Json.Bool t.exhaustive);
      ("ws_safe_violations", Json.Int t.ws_safe_violations);
      ("ws_regular_violations", Json.Int t.ws_regular_violations);
      ("invariant_violations", Json.Int t.invariant_violations);
      ( "first_violation",
        match t.first_violation with None -> Json.Null | Some v -> Json.Str v
      );
      ("verdict", Json.Str t.verdict);
    ]

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Fmt.str "cert: missing or ill-typed field %S" name)

let of_json j =
  let* s = field "schema" Json.to_str_opt j in
  if s <> schema then Error (Fmt.str "cert: schema %S, expected %S" s schema)
  else
    let* cj =
      match Json.member "config" j with
      | Some c -> Ok c
      | None -> Error "cert: missing field \"config\""
    in
    let* algo = field "algo" Json.to_str_opt cj in
    let* k = field "k" Json.to_int_opt cj in
    let* f = field "f" Json.to_int_opt cj in
    let* n = field "n" Json.to_int_opt cj in
    let* mode = field "mode" Json.to_str_opt cj in
    let* ops_j = field "writer_ops" Json.to_list_opt cj in
    let* writer_ops =
      List.fold_right
        (fun o acc ->
          let* acc = acc in
          match Json.to_int_opt o with
          | Some i -> Ok (i :: acc)
          | None -> Error "cert: non-integer writer_ops entry")
        ops_j (Ok [])
    in
    let* readers = field "readers" Json.to_int_opt cj in
    let* reads_each = field "reads_each" Json.to_int_opt cj in
    let* crashes = field "crashes" Json.to_int_opt cj in
    let* max_explored = field "max_explored" Json.to_int_opt cj in
    let* dpor = field "dpor" Json.to_bool_opt j in
    let* sleep = field "sleep" Json.to_bool_opt j in
    let* () =
      if dpor && sleep then Ok ()
      else Error "cert: \"dpor\" and \"sleep\" must be true"
    in
    let* explored = field "explored" Json.to_int_opt j in
    let* pruned = field "pruned" Json.to_int_opt j in
    let* pruned_ratio = field "pruned_ratio" Json.to_float_opt j in
    let* brute_force_floor = field "brute_force_floor" Json.to_int_opt j in
    let* terminal_runs = field "terminal_runs" Json.to_int_opt j in
    let* stuck_runs = field "stuck_runs" Json.to_int_opt j in
    let* distinct_states = field "distinct_states" Json.to_int_opt j in
    let* max_depth = field "max_depth" Json.to_int_opt j in
    let* exhaustive = field "exhaustive" Json.to_bool_opt j in
    let* ws_safe_violations = field "ws_safe_violations" Json.to_int_opt j in
    let* ws_regular_violations =
      field "ws_regular_violations" Json.to_int_opt j
    in
    let* invariant_violations =
      field "invariant_violations" Json.to_int_opt j
    in
    let first_violation =
      Option.bind (Json.member "first_violation" j) Json.to_str_opt
    in
    let* verdict = field "verdict" Json.to_str_opt j in
    Ok
      {
        config =
          {
            algo;
            k;
            f;
            n;
            mode;
            writer_ops;
            readers;
            reads_each;
            crashes;
            max_explored;
          };
        explored;
        pruned;
        pruned_ratio;
        brute_force_floor;
        terminal_runs;
        stuck_runs;
        distinct_states;
        max_depth;
        exhaustive;
        ws_safe_violations;
        ws_regular_violations;
        invariant_violations;
        first_violation;
        verdict;
      }

let validate t =
  let err fmt = Fmt.kstr (fun m -> Error ("cert: " ^ m)) fmt in
  let violations =
    t.ws_safe_violations + t.ws_regular_violations + t.invariant_violations
  in
  if
    t.explored < 0 || t.pruned < 0 || t.terminal_runs < 0 || t.stuck_runs < 0
    || t.distinct_states < 0 || t.max_depth < 0 || violations < 0
  then err "negative counter"
  else if t.brute_force_floor <> t.explored + t.pruned then
    err "brute_force_floor %d <> explored %d + pruned %d" t.brute_force_floor
      t.explored t.pruned
  else if
    Float.abs (t.pruned_ratio -. ratio ~explored:t.explored ~pruned:t.pruned)
    > 1e-9
  then err "pruned_ratio does not match explored/pruned"
  else if t.distinct_states > t.terminal_runs + t.stuck_runs then
    err "distinct_states %d exceeds terminal %d + stuck %d runs"
      t.distinct_states t.terminal_runs t.stuck_runs
  else if t.explored > t.config.max_explored then
    err "explored %d exceeds the declared bound %d" t.explored
      t.config.max_explored
  else
    match t.verdict with
    | "verified-clean" when t.exhaustive && violations = 0 -> Ok ()
    | "verified-clean" -> err "verified-clean but not exhaustive-and-clean"
    | "violations-found" when violations > 0 -> Ok ()
    | "violations-found" -> err "violations-found but all counters are zero"
    | "inconclusive" when (not t.exhaustive) && violations = 0 -> Ok ()
    | "inconclusive" -> err "inconclusive but exhaustive or violating"
    | v -> err "unknown verdict %S" v

let pp ppf t =
  Fmt.pf ppf
    "cert %s %s k=%d f=%d n=%d %s: %s — %d explored, %d pruned (ratio %.3f, \
     floor %d), %d terminal / %d stuck runs, %d states, depth %d%s"
    schema t.config.algo t.config.k t.config.f t.config.n t.config.mode
    t.verdict t.explored t.pruned t.pruned_ratio t.brute_force_floor
    t.terminal_runs t.stuck_runs t.distinct_states t.max_depth
    (match t.first_violation with
    | None -> ""
    | Some v -> Fmt.str "; first violation: %s" v)
