(* The benchmark's result line and its validation against the metric
   list BENCHMARK.json declares, so the program and the file cannot
   drift apart: a run whose metrics do not match the declaration is a
   benchmark bug and prints no result. *)

module Json = Regemu_obs.Json

type metric = { name : string; unit_ : string; value : float }

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* the shortest decimal that reads back as the same float *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let to_line t =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
       t.correct t.attempted t.failed);
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
           (Json.to_string (Json.Str m.name))
           (number m.value)
           (Json.to_string (Json.Str m.unit_))))
    t.metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

(* [(name, unit)] of the metrics BENCHMARK.json declares for a run:
   "end_to_end" untraced, "per_layer" traced *)
let declared json ~trace =
  let key = if trace then "per_layer" else "end_to_end" in
  match Option.bind (Json.member key json) Json.to_list_opt with
  | None -> Error (Printf.sprintf "BENCHMARK.json: no %s list" key)
  | Some l ->
      let entry j =
        match
          ( Option.bind (Json.member "name" j) Json.to_str_opt,
            Option.bind (Json.member "unit" j) Json.to_str_opt )
        with
        | Some n, Some u -> Ok (n, u)
        | _ -> Error (Printf.sprintf "BENCHMARK.json: malformed %s entry" key)
      in
      List.fold_right
        (fun j acc ->
          match (entry j, acc) with
          | Ok e, Ok es -> Ok (e :: es)
          | (Error _ as e), _ -> e
          | _, (Error _ as e) -> e)
        l (Ok [])

let validate ~declared t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  if t.attempted < 1 then err "attempted must be at least 1";
  if t.failed < 0 || t.failed > t.attempted then
    err "failed must lie in [0, attempted]";
  let seen = Hashtbl.create 64 in
  List.iter
    (fun m ->
      if Hashtbl.mem seen m.name then err "metric %s reported twice" m.name;
      Hashtbl.replace seen m.name ();
      if not (Float.is_finite m.value) then err "metric %s is not finite" m.name;
      match List.assoc_opt m.name declared with
      | None -> err "metric %s is not declared" m.name
      | Some u when u <> m.unit_ ->
          err "metric %s has unit %s, declared %s" m.name m.unit_ u
      | Some _ -> ())
    t.metrics;
  List.iter
    (fun (n, _) -> if not (Hashtbl.mem seen n) then err "metric %s is missing" n)
    declared;
  match List.rev !errors with [] -> Ok () | es -> Error (String.concat "; " es)

let load path ~trace =
  match Json.of_file path with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok j -> declared j ~trace
