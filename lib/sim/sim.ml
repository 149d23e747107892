open Regemu_objects

let src = Logs.Src.create "regemu.sim" ~doc:"Simulator event log"

module Log = (val Logs.src_log src : Logs.LOG)

type _ Effect.t += Wait_until : (unit -> bool) -> unit Effect.t

let wait_until pred = Effect.perform (Wait_until pred)

type obj_rec = {
  oid : Id.Obj.t;
  server : Id.Server.t;
  kind : Base_object.kind;
  mutable state : Value.t;
  mutable used : bool;
}

type pending_info = {
  lid : Id.Lop.t;
  obj : Id.Obj.t;
  op : Base_object.op;
  client : Id.Client.t;
  triggered_at : int;
}

type pending_rec = { info : pending_info; on_response : Value.t -> unit }

(* Lids are allocated in increasing order at trigger time, so the
   map's key order is trigger order. *)
module Pending = Map.Make (Int)

type call = {
  cl : Id.Client.t;
  hop : Trace.hop;
  invoked_at : int;
  mutable result : Value.t option;
  mutable returned_at : int option;
}

type fiber =
  | Idle
  | Waiting of { pred : unit -> bool; k : (unit, unit) Effect.Deep.continuation }

type client_rec = {
  cid : Id.Client.t;
  mutable crashed : bool;
  mutable fiber : fiber;
  mutable busy : bool;
}

type t = {
  n : int;
  mutable server_crashed : bool array;
  mutable objs : obj_rec array;
  mutable num_objs : int;
  mutable cls : client_rec array;
  mutable num_cls : int;
  mutable pending_map : pending_rec Pending.t;  (* keyed by lid *)
  mutable next_lid : int;
  tr : Trace.t;
}

let create ~n () =
  if n <= 0 then invalid_arg "Sim.create: n must be positive";
  {
    n;
    server_crashed = Array.make n false;
    objs = [||];
    num_objs = 0;
    cls = [||];
    num_cls = 0;
    pending_map = Pending.empty;
    next_lid = 0;
    tr = Trace.create ();
  }

let num_servers t = t.n
let servers t = Id.Server.range t.n
let trace t = t.tr
let now t = Trace.time t.tr

(* growable array push *)
let push_obj t o =
  if t.num_objs = Array.length t.objs then begin
    let bigger = Array.make (Stdlib.max 8 (2 * t.num_objs)) o in
    Array.blit t.objs 0 bigger 0 t.num_objs;
    t.objs <- bigger
  end;
  t.objs.(t.num_objs) <- o;
  t.num_objs <- t.num_objs + 1

let push_client t c =
  if t.num_cls = Array.length t.cls then begin
    let bigger = Array.make (Stdlib.max 8 (2 * t.num_cls)) c in
    Array.blit t.cls 0 bigger 0 t.num_cls;
    t.cls <- bigger
  end;
  t.cls.(t.num_cls) <- c;
  t.num_cls <- t.num_cls + 1

let check_server t s =
  let i = Id.Server.to_int s in
  if i < 0 || i >= t.n then invalid_arg "Sim: unknown server"

let obj_rec t oid =
  let i = Id.Obj.to_int oid in
  if i < 0 || i >= t.num_objs then invalid_arg "Sim: unknown object";
  t.objs.(i)

let client_rec t cid =
  let i = Id.Client.to_int cid in
  if i < 0 || i >= t.num_cls then invalid_arg "Sim: unknown client";
  t.cls.(i)

let alloc t ~server kind =
  check_server t server;
  let oid = Id.Obj.of_int t.num_objs in
  push_obj t { oid; server; kind; state = Value.v0; used = false };
  oid

let objects t = List.init t.num_objs Id.Obj.of_int

let objects_on t s =
  check_server t s;
  List.filter (fun o -> Id.Server.equal (obj_rec t o).server s) (objects t)

let delta t oid = (obj_rec t oid).server
let kind_of t oid = (obj_rec t oid).kind
let peek t oid = (obj_rec t oid).state

let used_objects t =
  let rec go i acc =
    if i >= t.num_objs then acc
    else
      go (i + 1)
        (if t.objs.(i).used then Id.Obj.Set.add t.objs.(i).oid acc else acc)
  in
  go 0 Id.Obj.Set.empty

let new_client t =
  let cid = Id.Client.of_int t.num_cls in
  push_client t { cid; crashed = false; fiber = Idle; busy = false };
  cid

let clients t = List.init t.num_cls Id.Client.of_int

let crash_server t s =
  check_server t s;
  if not t.server_crashed.(Id.Server.to_int s) then begin
    t.server_crashed.(Id.Server.to_int s) <- true;
    Log.debug (fun m -> m "t=%d: server %a crashes" (now t) Id.Server.pp s);
    Trace.record t.tr (Server_crash s)
  end

let crash_client t c =
  let cr = client_rec t c in
  if not cr.crashed then begin
    cr.crashed <- true;
    cr.fiber <- Idle;
    Trace.record t.tr (Client_crash c)
  end

let server_crashed t s =
  check_server t s;
  t.server_crashed.(Id.Server.to_int s)

let client_crashed t c = (client_rec t c).crashed

let crashed_servers t =
  List.fold_left
    (fun acc s ->
      if server_crashed t s then Id.Server.Set.add s acc else acc)
    Id.Server.Set.empty (servers t)

let obj_crashed t oid = server_crashed t (obj_rec t oid).server

let trigger t ~client oid op ~on_response =
  let o = obj_rec t oid in
  if not (Base_object.matches o.kind op) then
    invalid_arg
      (Fmt.str "Sim.trigger: %a does not support %a" Base_object.kind_pp
         o.kind Base_object.op_pp op);
  let cr = client_rec t client in
  if cr.crashed then invalid_arg "Sim.trigger: client crashed";
  o.used <- true;
  let lid = Id.Lop.of_int t.next_lid in
  t.next_lid <- t.next_lid + 1;
  Log.debug (fun m ->
      m "t=%d: %a triggers %a on %a" (now t) Id.Client.pp client
        Base_object.op_pp op Id.Obj.pp oid);
  Trace.record t.tr (Trigger { lid; client; obj = oid; op });
  let info = { lid; obj = oid; op; client; triggered_at = now t } in
  t.pending_map <-
    Pending.add (Id.Lop.to_int lid) { info; on_response } t.pending_map;
  lid

let call_client c = c.cl
let call_hop c = c.hop
let call_result c = c.result
let call_returned c = c.result <> None
let call_invoked_at c = c.invoked_at
let call_returned_at c = c.returned_at

let client_busy t c = (client_rec t c).busy

let run_fiber t (cr : client_rec) (call : call) (body : unit -> Value.t) =
  let handler : (Value.t, unit) Effect.Deep.handler =
    {
      retc =
        (fun v ->
          call.result <- Some v;
          Trace.record t.tr (Return (call.cl, call.hop, v));
          call.returned_at <- Some (now t);
          cr.busy <- false;
          cr.fiber <- Idle);
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Wait_until pred ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  cr.fiber <- Waiting { pred; k })
          | _ -> None);
    }
  in
  Effect.Deep.match_with body () handler

let invoke t ~client hop body =
  let cr = client_rec t client in
  if cr.crashed then invalid_arg "Sim.invoke: client crashed";
  if cr.busy then invalid_arg "Sim.invoke: client already has a pending call";
  cr.busy <- true;
  Trace.record t.tr (Invoke (client, hop));
  let call =
    { cl = client; hop; invoked_at = now t; result = None; returned_at = None }
  in
  run_fiber t cr call body;
  call

type event = Step of Id.Client.t | Respond of Id.Lop.t

let event_pp ppf = function
  | Step c -> Fmt.pf ppf "step(%a)" Id.Client.pp c
  | Respond l -> Fmt.pf ppf "respond(%a)" Id.Lop.pp l

let event_equal a b =
  match (a, b) with
  | Step x, Step y -> Id.Client.equal x y
  | Respond x, Respond y -> Id.Lop.equal x y
  | (Step _ | Respond _), _ -> false

let step_enabled (cr : client_rec) =
  (not cr.crashed)
  && match cr.fiber with Waiting { pred; _ } -> pred () | Idle -> false

let fold_enabled t ~step ~respond acc =
  (* predicates run in ascending client order *)
  let rec steps i acc =
    if i = t.num_cls then acc
    else
      let cr = t.cls.(i) in
      steps (i + 1) (if step_enabled cr then step cr.cid acc else acc)
  in
  Pending.fold
    (fun _ p acc -> if obj_crashed t p.info.obj then acc else respond p.info acc)
    t.pending_map (steps 0 acc)

let enabled t =
  List.rev
    (fold_enabled t
       ~step:(fun c acc -> Step c :: acc)
       ~respond:(fun p acc -> Respond p.lid :: acc)
       [])

let fire t ev =
  match ev with
  | Step c ->
      let cr = client_rec t c in
      if not (step_enabled cr) then
        invalid_arg (Fmt.str "Sim.fire: %a not enabled" event_pp ev);
      (match cr.fiber with
      | Waiting { k; _ } ->
          cr.fiber <- Idle;
          Effect.Deep.continue k ()
      | Idle -> assert false)
  | Respond lid -> (
      match Pending.find_opt (Id.Lop.to_int lid) t.pending_map with
      | None -> invalid_arg (Fmt.str "Sim.fire: %a not pending" event_pp ev)
      | Some p ->
          if obj_crashed t p.info.obj then
            invalid_arg (Fmt.str "Sim.fire: %a on crashed server" event_pp ev);
          t.pending_map <- Pending.remove (Id.Lop.to_int lid) t.pending_map;
          let o = obj_rec t p.info.obj in
          let state', result = Base_object.apply o.kind o.state p.info.op in
          o.state <- state';
          Log.debug (fun m ->
              m "t=%d: %a responds %a on %a" (now t) Id.Lop.pp lid Value.pp
                result Id.Obj.pp p.info.obj);
          Trace.record t.tr
            (Respond
               {
                 lid;
                 client = p.info.client;
                 obj = p.info.obj;
                 op = p.info.op;
                 result;
               });
          if not (client_crashed t p.info.client) then p.on_response result)

let pending t =
  Pending.fold (fun _ p acc -> p.info :: acc) t.pending_map [] |> List.rev

let pending_on t oid =
  List.filter (fun p -> Id.Obj.equal p.obj oid) (pending t)

let covered_objects t =
  List.fold_left
    (fun acc p ->
      if Base_object.is_mutator p.op then Id.Obj.Set.add p.obj acc else acc)
    Id.Obj.Set.empty (pending t)
