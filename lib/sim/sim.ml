open Regemu_objects

let src = Logs.Src.create "regemu.sim" ~doc:"Simulator event log"

module Log = (val Logs.src_log src : Logs.LOG)

(* the log level [Log.debug] tests, read first so that a disabled log
   builds no message closure on the hot paths *)
let debug_on () =
  match Logs.Src.level src with Some Logs.Debug -> true | _ -> false

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

(* fills the free slots of the pending table *)
let no_info =
  {
    lid = Id.Lop.of_int (-1);
    obj = Id.Obj.of_int (-1);
    op = Base_object.Read;
    client = Id.Client.of_int (-1);
    triggered_at = -1;
  }

let no_response (_ : Value.t) = ()

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

(* A client runs one call at a time, so its effect handler is built
   once, with the client, and reads the call in progress from it. *)
type client_rec = {
  cid : Id.Client.t;
  mutable crashed : bool;
  mutable fiber : fiber;
  mutable busy : bool;
  mutable call : call;  (* the call in progress, or the last one *)
  mutable parking : unit -> bool;  (* the predicate being waited on *)
  mutable handler : (Value.t, unit) Effect.Deep.handler;
}

type t = {
  n : int;
  mutable server_crashed : bool array;
  mutable objs : obj_rec array;
  mutable num_objs : int;
  mutable cls : client_rec array;
  mutable num_cls : int;
  (* The pending operations are [pending_infos.(0 .. num_pending - 1)],
     with their handlers at the same index of [on_responses].  Lids are
     allocated in increasing order at trigger time, so a trigger
     appends and the arrays stay in lid order, which is trigger order.
     They hold only what is pending: a respond shifts the later entries
     down.  A pending operation's object and client exist, so they are
     read without [obj_rec]'s and [client_rec]'s checks. *)
  mutable pending_infos : pending_info array;
  mutable on_responses : (Value.t -> unit) array;
  mutable num_pending : int;
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
    pending_infos = [||];
    on_responses = [||];
    num_pending = 0;
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

let push_pending t info on_response =
  let i = t.num_pending in
  if i = Array.length t.pending_infos then begin
    let size = Stdlib.max 16 (2 * i) in
    let infos = Array.make size no_info in
    let handlers = Array.make size no_response in
    Array.blit t.pending_infos 0 infos 0 i;
    Array.blit t.on_responses 0 handlers 0 i;
    t.pending_infos <- infos;
    t.on_responses <- handlers
  end;
  t.pending_infos.(i) <- info;
  t.on_responses.(i) <- on_response;
  t.num_pending <- i + 1;
  t.next_lid <- t.next_lid + 1

(* the index of lid [l] among the pending operations, or -1.  The
   search runs from the newest: operations stuck on a crashed server
   gather at the front. *)
let find_pending t l =
  let infos = t.pending_infos in
  let i = ref (t.num_pending - 1) in
  while !i >= 0 && Id.Lop.to_int infos.(!i).lid > l do
    decr i
  done;
  if !i >= 0 && Id.Lop.to_int infos.(!i).lid = l then !i else -1

(* the operation at index [i] responded *)
let remove_pending t i =
  let infos = t.pending_infos and handlers = t.on_responses in
  let last = t.num_pending - 1 in
  for j = i to last - 1 do
    infos.(j) <- infos.(j + 1);
    handlers.(j) <- handlers.(j + 1)
  done;
  infos.(last) <- no_info;
  handlers.(last) <- no_response;
  t.num_pending <- last

(* [f] folded over the pending infos in lid order *)
let fold_pending t f acc =
  let acc = ref acc in
  for i = 0 to t.num_pending - 1 do
    acc := f t.pending_infos.(i) !acc
  done;
  !acc

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

let no_call =
  {
    cl = Id.Client.of_int (-1);
    hop = Trace.H_read;
    invoked_at = -1;
    result = None;
    returned_at = None;
  }

(* [cr]'s handler: a return completes [cr.call]; a [wait_until] parks
   the fiber on its predicate *)
let handler_for t cr : (Value.t, unit) Effect.Deep.handler =
  let park =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        cr.fiber <- Waiting { pred = cr.parking; k })
  in
  {
    retc =
      (fun v ->
        let call = cr.call in
        call.result <- Some v;
        Trace.record t.tr (Return (call.cl, call.hop, v));
        call.returned_at <- Some (now t);
        cr.busy <- false;
        cr.fiber <- Idle);
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with
        | Wait_until pred ->
            cr.parking <- pred;
            park
        | _ -> None);
  }

let new_client t =
  let cid = Id.Client.of_int t.num_cls in
  let cr =
    {
      cid;
      crashed = false;
      fiber = Idle;
      busy = false;
      call = no_call;
      parking = Fun.const false;
      handler = { retc = ignore; exnc = raise; effc = (fun _ -> None) };
    }
  in
  cr.handler <- handler_for t cr;
  push_client t cr;
  cid

let clients t = List.init t.num_cls Id.Client.of_int

let crash_server t s =
  check_server t s;
  if not t.server_crashed.(Id.Server.to_int s) then begin
    t.server_crashed.(Id.Server.to_int s) <- true;
    if debug_on () then
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
  if debug_on () then
    Log.debug (fun m ->
        m "t=%d: %a triggers %a on %a" (now t) Id.Client.pp client
          Base_object.op_pp op Id.Obj.pp oid);
  Trace.record t.tr (Trigger { lid; client; obj = oid; op });
  push_pending t { lid; obj = oid; op; client; triggered_at = now t } on_response;
  lid

let call_client c = c.cl
let call_hop c = c.hop
let call_result c = c.result
let call_returned c = match c.result with Some _ -> true | None -> false
let call_invoked_at c = c.invoked_at
let call_returned_at c = c.returned_at

let client_busy t c = (client_rec t c).busy

let invoke t ~client hop body =
  let cr = client_rec t client in
  if cr.crashed then invalid_arg "Sim.invoke: client crashed";
  if cr.busy then invalid_arg "Sim.invoke: client already has a pending call";
  cr.busy <- true;
  Trace.record t.tr (Invoke (client, hop));
  let call =
    { cl = client; hop; invoked_at = now t; result = None; returned_at = None }
  in
  cr.call <- call;
  Effect.Deep.match_with body () cr.handler;
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
  fold_pending t
    (fun p acc ->
      let o = t.objs.(Id.Obj.to_int p.obj) in
      if t.server_crashed.(Id.Server.to_int o.server) then acc
      else respond p acc)
    (steps 0 acc)

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
  | Respond lid ->
      let i = find_pending t (Id.Lop.to_int lid) in
      if i < 0 then invalid_arg (Fmt.str "Sim.fire: %a not pending" event_pp ev);
      let p = t.pending_infos.(i) and on_response = t.on_responses.(i) in
      let o = t.objs.(Id.Obj.to_int p.obj) in
      if t.server_crashed.(Id.Server.to_int o.server) then
        invalid_arg (Fmt.str "Sim.fire: %a on crashed server" event_pp ev);
      remove_pending t i;
      let state', result = Base_object.apply o.kind o.state p.op in
      o.state <- state';
      if debug_on () then
        Log.debug (fun m ->
            m "t=%d: %a responds %a on %a" (now t) Id.Lop.pp lid Value.pp
              result Id.Obj.pp p.obj);
      Trace.record t.tr
        (Respond { lid; client = p.client; obj = p.obj; op = p.op; result });
      if not t.cls.(Id.Client.to_int p.client).crashed then on_response result

let pending t = List.rev (fold_pending t List.cons [])

let pending_on t oid =
  List.filter (fun p -> Id.Obj.equal p.obj oid) (pending t)

let covered_objects t =
  List.fold_left
    (fun acc p ->
      if Base_object.is_mutator p.op then Id.Obj.Set.add p.obj acc else acc)
    Id.Obj.Set.empty (pending t)
