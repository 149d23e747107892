open Regemu_objects
open Regemu_sim

type violation = { at : int; client : Id.Client.t; detail : string }

let violation_pp ppf v =
  Fmt.pf ppf "at t=%d, client %a: %s" v.at Id.Client.pp v.client v.detail

let is_write = function Base_object.Write _ -> true | _ -> false

(* fold over the trace maintaining, per (client, object), the number of
   pending writes; call [check] after every entry *)
let scan tr ~check =
  let pending : (int * int, int) Hashtbl.t = Hashtbl.create 32 in
  (* pending write count per client (all objects) *)
  let per_client : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let owner_of_lop : (int, int * int) Hashtbl.t = Hashtbl.create 32 in
  let time = ref 0 in
  let error = ref None in
  Trace.iter
    (fun entry ->
      incr time;
      if !error = None then begin
        (match entry with
        | Trace.Trigger { lid; client; obj; op } when is_write op ->
            let key = (Id.Client.to_int client, Id.Obj.to_int obj) in
            Hashtbl.replace owner_of_lop (Id.Lop.to_int lid) key;
            Hashtbl.replace pending key
              (Option.value ~default:0 (Hashtbl.find_opt pending key) + 1);
            Hashtbl.replace per_client
              (Id.Client.to_int client)
              (Option.value ~default:0
                 (Hashtbl.find_opt per_client (Id.Client.to_int client))
              + 1)
        | Trace.Respond { lid; op; _ } when is_write op -> (
            match Hashtbl.find_opt owner_of_lop (Id.Lop.to_int lid) with
            | Some ((c, _) as key) ->
                Hashtbl.replace pending key
                  (Option.value ~default:0 (Hashtbl.find_opt pending key) - 1);
                Hashtbl.replace per_client c
                  (Option.value ~default:0 (Hashtbl.find_opt per_client c) - 1)
            | None -> ())
        | _ -> ());
        match check ~time:!time ~entry ~pending ~per_client with
        | None -> ()
        | Some v -> error := Some v
      end)
    tr;
  match !error with None -> Ok () | Some v -> Error v

(* Counts grow only at a write [Trigger], and the scan stops at the
   first violation, so the first count above one is always on the key
   that entry just incremented: checking that key alone finds it. *)
let single_pending_write_per_writer_register tr =
  scan tr ~check:(fun ~time ~entry ~pending ~per_client:_ ->
      match entry with
      | Trace.Trigger { client; obj; op; _ } when is_write op ->
          let count =
            Hashtbl.find pending
              (Id.Client.to_int client, Id.Obj.to_int obj)
          in
          if count > 1 then
            Some
              {
                at = time;
                client;
                detail =
                  Fmt.str "%d of its writes pending on %a simultaneously"
                    count Id.Obj.pp obj;
              }
          else None
      | _ -> None)

let max_pending_writes_at_return tr ~f =
  scan tr ~check:(fun ~time ~entry ~pending:_ ~per_client ->
      match entry with
      | Trace.Return (c, Trace.H_write _, _) ->
          let n =
            Option.value ~default:0
              (Hashtbl.find_opt per_client (Id.Client.to_int c))
          in
          if n > f then
            Some
              {
                at = time;
                client = c;
                detail =
                  Fmt.str
                    "write returned with %d of its low-level writes pending \
                     (> f = %d)"
                    n f;
              }
          else None
      | _ -> None)
