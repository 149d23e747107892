(* The repository benchmark: one workload per run (or all three in one
   process), every end-to-end metric by name and unit untraced, every
   per-layer metric traced, and a non-zero exit when a correctness gate
   fails.

     main.exe --workload register-closed|kv-open|search|all
              --seed N --seconds S --trace 0|1 [--commit ID]

   Run from the repository root.  The last line of standard output is
   the result object, checked against the metric list BENCHMARK.json
   declares; the benchmark's own spans go to perfbench/out/. *)

open Perfbench_core

let workloads =
  [
    ("register-closed", (Wl_register.run, Wl_register.run_traced, "threads"));
    ("kv-open", (Wl_kv.run, Wl_kv.run_traced, "threads"));
    ("search", (Wl_search.run, Wl_search.run_traced, "dst (virtual time)"));
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload register-closed|kv-open|search|all --seed N \
     --seconds S --trace 0|1 [--commit ID]";
  exit 2

(* the machine and build every result is recorded with, one JSON line;
   [nproc] counts the CPUs this process may run on *)
let machine ~commit ~backend =
  Printf.sprintf
    "{\"nproc\": %d, \"ocaml\": %S, \"commit\": %S, \"backend\": %S, \"word_size\": %d}"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version commit backend Sys.word_size

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let out_dir = "perfbench/out"

(* run one workload and print its report; [Error] when its metrics do
   not match the declaration *)
let run_one ~declared ~name ~seed ~seconds ~trace ~commit =
  let run, run_traced, backend = List.assoc name workloads in
  let spans = Common.Spans.create () in
  let (r : Common.report) =
    (if trace then run_traced else run) ~seed ~seconds spans
  in
  let mach = machine ~commit ~backend in
  Printf.printf "# %s machine %s\n" name mach;
  List.iter (fun l -> Printf.printf "# %s %s\n" name l) r.notes;
  List.iter
    (fun (g, ok) -> Printf.printf "# %s gate %s: %s\n" name (if ok then "ok" else "FAILED") g)
    r.gates;
  List.iter
    (fun (x : Line.metric) ->
      Printf.printf "# %s %s = %.6g %s\n" name x.name x.value x.unit_)
    r.metrics;
  mkdir_p out_dir;
  Common.Spans.write spans
    ~path:(Filename.concat out_dir (Printf.sprintf "spans-%s-trace%d.jsonl" name (Bool.to_int trace)))
    ~machine:mach;
  let res =
    {
      Line.correct = List.for_all snd r.gates;
      attempted = r.attempted;
      failed = r.failed;
      metrics = r.metrics;
    }
  in
  match Line.validate ~declared res with
  | Error e -> Error (Printf.sprintf "%s: result does not match BENCHMARK.json: %s" name e)
  | Ok () -> Ok res

let () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and commit = ref "unknown" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--commit" :: v :: rest -> commit := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some s, Some x, Some t when x > 0.0 -> (s, x, t)
    | _ -> usage ()
  in
  let names =
    if !workload = "all" then List.map fst workloads
    else if List.mem_assoc !workload workloads then [ !workload ]
    else usage ()
  in
  let declared =
    match Line.load "BENCHMARK.json" ~trace with
    | Ok d -> d
    | Error e ->
        prerr_endline ("error: " ^ e);
        exit 3
  in
  let results =
    List.map
      (fun name ->
        match run_one ~declared ~name ~seed ~seconds ~trace ~commit:!commit with
        | Ok r -> r
        | Error e ->
            prerr_endline ("error: " ^ e);
            exit 3)
      names
  in
  let all_correct = List.for_all (fun (r : Line.t) -> r.correct) results in
  (match results with
  | [ res ] -> print_endline (Line.to_line res)
  | _ ->
      List.iter2
        (fun name res -> Printf.printf "# %s result %s\n" name (Line.to_line res))
        names results;
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"workloads\": [%s]}\n"
        all_correct
        (List.fold_left (fun a (r : Line.t) -> a + r.attempted) 0 results)
        (List.fold_left (fun a (r : Line.t) -> a + r.failed) 0 results)
        (String.concat ", " (List.map (Printf.sprintf "%S") names)));
  exit (if all_correct then 0 else 1)
