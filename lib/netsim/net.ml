open Regemu_objects

(* the wire payloads and the server step live in Proto, shared verbatim
   with the live threaded runtime *)
type payload = Proto.payload =
  | Query of { rid : int; key : int }
  | Query_reply of { rid : int; stored : Value.t }
  | Update of { rid : int; key : int; proposed : Value.t }
  | Update_reply of { rid : int }
  | Reg_read of { rid : int; reg : int }
  | Reg_read_reply of { rid : int; stored : Value.t }
  | Reg_write of { rid : int; reg : int; proposed : Value.t }
  | Reg_write_reply of { rid : int }
  | Cquery of { rid : int }
  | Cquery_reply of { rid : int; slots : (int * Value.t) list }
  | Cwrite of { rid : int; slot : int; proposed : Value.t }
  | Cwrite_reply of { rid : int; slot : int }

let payload_pp = Proto.payload_pp

type dest = To_server of Id.Server.t | To_client of Id.Client.t

type event = Deliver of int | Step of Id.Client.t

let event_pp ppf = function
  | Deliver m -> Fmt.pf ppf "deliver(m%d)" m
  | Step c -> Fmt.pf ppf "step(%a)" Id.Client.pp c

type _ Effect.t += Net_wait : (unit -> bool) -> unit Effect.t

let wait_until pred = Effect.perform (Net_wait pred)

type message = {
  mid : int;
  src : Id.Client.t option;  (* None for server replies *)
  dest : dest;
  payload : payload;
}

type fiber =
  | Idle
  | Waiting of {
      pred : unit -> bool;
      k : (unit, unit) Effect.Deep.continuation;
    }

type client_rec = { cid : Id.Client.t; mutable fiber : fiber; mutable busy : bool }

type call = {
  cl : Id.Client.t;
  hop : Regemu_sim.Trace.hop;
  invoked_at : int;
  index : int;
  mutable result : Value.t option;
  mutable returned_at : int option;
}

type t = {
  n : int;
  stores : Proto.store array;  (* per-server storage, shared with live *)
  server_down : bool array;
  mutable clients : client_rec list;
  mutable flight : message list;  (* newest first *)
  mutable next_mid : int;
  mutable next_rid : int;
  handlers : (int * int, payload -> unit) Hashtbl.t;  (* (client, rid) *)
  mutable clock : int;
  mutable deliveries : int;
  mutable ops : call list;  (* newest first *)
  mutable next_op_index : int;
}

let create ~n () =
  if n <= 0 then invalid_arg "Net.create: n must be positive";
  {
    n;
    stores = Array.init n (fun _ -> Proto.store_create ());
    server_down = Array.make n false;
    clients = [];
    flight = [];
    next_mid = 0;
    next_rid = 0;
    handlers = Hashtbl.create 32;
    clock = 0;
    deliveries = 0;
    ops = [];
    next_op_index = 0;
  }

let num_servers t = t.n
let servers t = Id.Server.range t.n

let new_client t =
  let cid = Id.Client.of_int (List.length t.clients) in
  t.clients <- t.clients @ [ { cid; fiber = Idle; busy = false } ];
  cid

let client_rec t c =
  match
    List.find_opt (fun r -> Id.Client.equal r.cid c) t.clients
  with
  | Some r -> r
  | None -> invalid_arg "Net: unknown client"

let check_server t s =
  let i = Id.Server.to_int s in
  if i < 0 || i >= t.n then invalid_arg "Net: unknown server"

let alloc_reg t s =
  check_server t s;
  Proto.alloc_reg t.stores.(Id.Server.to_int s)

let regs_on t s =
  check_server t s;
  Proto.num_regs t.stores.(Id.Server.to_int s)

let peek_reg t s reg =
  check_server t s;
  Proto.peek_reg t.stores.(Id.Server.to_int s) reg

let crash_server t s =
  check_server t s;
  t.server_down.(Id.Server.to_int s) <- true

let server_crashed t s =
  check_server t s;
  t.server_down.(Id.Server.to_int s)

let tick t = t.clock <- t.clock + 1

let send t ~from dest payload =
  check_server t dest;
  tick t;
  let mid = t.next_mid in
  t.next_mid <- mid + 1;
  t.flight <- { mid; src = Some from; dest = To_server dest; payload } :: t.flight

let send_to_client t c payload =
  let mid = t.next_mid in
  t.next_mid <- mid + 1;
  t.flight <- { mid; src = None; dest = To_client c; payload } :: t.flight

let on_reply t ~client ~rid f =
  Hashtbl.replace t.handlers (Id.Client.to_int client, rid) f

let fresh_rid t =
  let r = t.next_rid in
  t.next_rid <- r + 1;
  r

(* --- fibers ----------------------------------------------------------- *)

let run_fiber t (cr : client_rec) (call : call) body =
  let handler : (Value.t, unit) Effect.Deep.handler =
    {
      retc =
        (fun v ->
          tick t;
          call.result <- Some v;
          call.returned_at <- Some t.clock;
          cr.busy <- false;
          cr.fiber <- Idle);
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Net_wait pred ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  cr.fiber <- Waiting { pred; k })
          | _ -> None);
    }
  in
  Effect.Deep.match_with body () handler

let invoke t ~client hop body =
  let cr = client_rec t client in
  if cr.busy then invalid_arg "Net.invoke: client busy";
  cr.busy <- true;
  tick t;
  let call =
    {
      cl = client;
      hop;
      invoked_at = t.clock;
      index = t.next_op_index;
      result = None;
      returned_at = None;
    }
  in
  t.next_op_index <- t.next_op_index + 1;
  t.ops <- call :: t.ops;
  run_fiber t cr call body;
  call

let call_returned c = c.result <> None
let call_result c = c.result

(* --- environment ------------------------------------------------------- *)

let deliverable t (m : message) =
  match m.dest with
  | To_server s -> not (server_crashed t s)
  | To_client _ -> true

let enabled t =
  let steps =
    List.filter_map
      (fun cr ->
        match cr.fiber with
        | Waiting { pred; _ } when pred () -> Some (Step cr.cid)
        | Waiting _ | Idle -> None)
      t.clients
  in
  let delivers =
    List.rev t.flight
    |> List.filter_map (fun m ->
           if deliverable t m then Some (Deliver m.mid) else None)
  in
  steps @ delivers

(* the built-in server behaviour — the shared protocol core applied to
   this server's store *)
let server_process t s payload =
  Proto.step t.stores.(Id.Server.to_int s) payload
  |> List.map (fun reply -> (Proto.rid_of reply, reply))

let client_of_rid t rid =
  (* handlers are keyed by (client, rid); rids are globally unique so a
     linear scan finds the owner *)
  Hashtbl.fold
    (fun (c, r) _ acc -> if r = rid then Some (Id.Client.of_int c) else acc)
    t.handlers None

let fire t ev =
  match ev with
  | Step c -> (
      let cr = client_rec t c in
      match cr.fiber with
      | Waiting { pred; k } when pred () ->
          tick t;
          cr.fiber <- Idle;
          Effect.Deep.continue k ()
      | Waiting _ | Idle ->
          invalid_arg (Fmt.str "Net.fire: %a not enabled" event_pp ev))
  | Deliver mid -> (
      match List.find_opt (fun m -> m.mid = mid) t.flight with
      | None -> invalid_arg "Net.fire: message not in flight"
      | Some m ->
          if not (deliverable t m) then
            invalid_arg "Net.fire: destination crashed";
          t.flight <- List.filter (fun m' -> m'.mid <> mid) t.flight;
          tick t;
          t.deliveries <- t.deliveries + 1;
          (match m.dest with
          | To_server s ->
              let replies = server_process t s m.payload in
              List.iter
                (fun (rid, reply) ->
                  match client_of_rid t rid with
                  | Some c -> send_to_client t c reply
                  | None -> ())
                replies
          | To_client c -> (
              let rid = Proto.rid_of m.payload in
              match
                Hashtbl.find_opt t.handlers (Id.Client.to_int c, rid)
              with
              | Some f ->
                  (* one-shot: a duplicated reply must not double-count
                     toward a quorum *)
                  Hashtbl.remove t.handlers (Id.Client.to_int c, rid);
                  f m.payload
              | None -> ())))

(* the environment may duplicate any in-flight message (at-least-once
   delivery); the protocol must tolerate it *)
let duplicate t mid =
  match List.find_opt (fun m -> m.mid = mid) t.flight with
  | None -> invalid_arg "Net.duplicate: message not in flight"
  | Some m ->
      let mid' = t.next_mid in
      t.next_mid <- mid' + 1;
      t.flight <- { m with mid = mid' } :: t.flight

let in_flight t = List.length t.flight
let sent t = t.next_mid

let flight t =
  List.rev_map (fun m -> (m.mid, m.dest, m.payload)) t.flight

let src_of t mid =
  match List.find_opt (fun m -> m.mid = mid) t.flight with
  | Some m -> m.src
  | None -> None
let delivered t = t.deliveries

let history t =
  List.rev t.ops
  |> List.map (fun (c : call) ->
         {
           Regemu_history.History.index = c.index;
           client = c.cl;
           hop = c.hop;
           invoked_at = c.invoked_at;
           returned_at = c.returned_at;
           result = c.result;
         })
