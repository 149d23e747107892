open Regemu_objects

let run ~write ~read ~writers ~readers ~ops_per_client =
  let first_error = Atomic.make None in
  let failed = Atomic.make 0 in
  (* a liveness failure is one failed op, not the end of the run *)
  let op f =
    try f ()
    with Cluster.Unavailable _ | Cluster.Timeout _ -> Atomic.incr failed
  in
  let guard body () =
    try body ()
    with e ->
      ignore (Atomic.compare_and_set first_error None (Some e))
  in
  let writer_thread i cl () =
    for j = 1 to ops_per_client do
      op (fun () -> write cl (Value.Str (Printf.sprintf "w%d-%04d" i j)))
    done
  in
  let reader_thread cl () =
    for _ = 1 to ops_per_client do
      op (fun () -> ignore (read cl))
    done
  in
  let threads =
    List.mapi (fun i cl -> Thread.create (guard (writer_thread i cl)) ()) writers
    @ List.map (fun cl -> Thread.create (guard (reader_thread cl)) ()) readers
  in
  List.iter Thread.join threads;
  match Atomic.get first_error with
  | Some e -> raise e
  | None -> Atomic.get failed
