open Regemu_bounds
open Regemu_objects

module type RUNTIME = sig
  type t
  type client
  type call

  val client_id : client -> Id.Client.t
  val num_servers : t -> int
  val alloc_reg : t -> server:int -> int
  val locked : client -> (unit -> 'a) -> 'a

  val rpc :
    t ->
    src:client ->
    ?sticky:bool ->
    int ->
    make:(int -> Proto.payload) ->
    handler:(Proto.payload -> unit) ->
    unit

  val rpc_quorum :
    t ->
    src:client ->
    quorum:int ->
    make:(int -> Proto.payload) ->
    handler:(Proto.payload -> unit) ->
    int list ->
    unit

  val await : t -> client -> ?need:int list * int -> (unit -> bool) -> unit
  val invoke : t -> client -> Regemu_sim.Trace.hop -> (unit -> Value.t) -> call
end

module Net_runtime = struct
  type t = Net.t
  type client = Id.Client.t
  type call = Net.call

  let client_id c = c
  let num_servers = Net.num_servers
  let alloc_reg net ~server = Net.alloc_reg net (Id.Server.of_int server)
  let locked _ f = f ()

  (* the rid is drawn, then the handler registered, then the request
     sent: the explorer's search tree depends on this order *)
  let rpc net ~src ?sticky:_ server ~make ~handler =
    let rid = Net.fresh_rid net in
    Net.on_reply net ~client:src ~rid handler;
    Net.send net ~from:src (Id.Server.of_int server) (make rid)

  let rpc_quorum net ~src ~quorum:_ ~make ~handler replicas =
    List.iter (fun s -> rpc net ~src s ~make ~handler) replicas

  let await _ _ ?need:_ pred = Net.wait_until pred
  let invoke net client hop body = Net.invoke net ~client hop body
end

module Round (R : RUNTIME) = struct
  (* replies are deduplicated per rid by the runtime, so each counts
     toward the quorum once *)
  let quorum_round rt cl ~replicas ~quorum ~request ~fold ~init =
    let count = ref 0 in
    let acc = ref init in
    R.locked cl (fun () ->
        R.rpc_quorum rt ~src:cl ~quorum ~make:request
          ~handler:(fun reply ->
            acc := fold !acc reply;
            incr count)
          replicas);
    R.await rt cl ~need:(replicas, quorum) (fun () -> !count >= quorum);
    R.locked cl (fun () -> !acc)
end

let check_replicas ~what ~have ~f =
  let needed = (2 * f) + 1 in
  if have < needed then
    invalid_arg
      (Fmt.str "%s.create: need at least %d servers, have %d" what needed have);
  List.init needed Fun.id

let writer_slot ~what slots c =
  match List.assoc_opt (Id.Client.to_int c) slots with
  | Some s -> s
  | None -> invalid_arg (what ^ ".write: not a registered writer")

module Abd (R : RUNTIME) = struct
  include Round (R)

  type t = {
    rt : R.t;
    f : int;
    replicas : int list;
    write_back_reads : bool;
  }

  let create rt ~f ?(write_back_reads = false) () =
    let replicas =
      check_replicas ~what:"Abd" ~have:(R.num_servers rt) ~f
    in
    { rt; f; replicas; write_back_reads }

  let replicas t = List.length t.replicas

  let round t cl =
    quorum_round t.rt cl ~replicas:t.replicas ~quorum:(t.f + 1)

  let query_max t cl =
    round t cl
      ~request:(fun rid -> Proto.Query { rid })
      ~init:Value.v0
      ~fold:(fun best reply ->
        match reply with
        | Proto.Query_reply { stored; _ } -> Value.max best stored
        | _ -> best)

  let update t cl ts_val =
    round t cl
      ~request:(fun rid -> Proto.Update { rid; proposed = ts_val })
      ~init:() ~fold:(fun () _ -> ())

  let write t cl v =
    R.invoke t.rt cl (Regemu_sim.Trace.H_write v) (fun () ->
        let latest = query_max t cl in
        update t cl (Value.with_ts (Value.ts latest + 1) v);
        Value.Unit)

  let read t cl =
    R.invoke t.rt cl Regemu_sim.Trace.H_read (fun () ->
        let latest = query_max t cl in
        if t.write_back_reads then update t cl latest;
        Value.payload latest)
end

module Alg2 (R : RUNTIME) = struct
  type cell = { server : int; reg : int }

  (* per-writer covering-discipline slot over its register-cell set;
     all mutable fields are touched only under the writer's lock *)
  type slot = {
    client : R.client;
    rset : cell array;
    mutable ts_val : Value.t;
    mutable acked : int list;  (* rset indexes acknowledged for ts_val *)
    outstanding : (int, Value.t) Hashtbl.t;  (* rset index -> value in flight *)
  }

  type t = {
    rt : R.t;
    params : Params.t;
    naive : bool;
    by_server : cell list array;  (* index = server id *)
    slots : (int * slot) list;  (* writer client id -> slot *)
  }

  let cells t = Array.fold_left (fun a l -> a + List.length l) 0 t.by_server

  let create rt (p : Params.t) ?(naive = false) ~writers () =
    if List.length writers <> p.k then
      invalid_arg "Alg2.create: writer count mismatch";
    if R.num_servers rt <> p.n then
      invalid_arg "Alg2.create: server count mismatch";
    let by_server = Array.make p.n [] in
    let cell server =
      let c = { server; reg = R.alloc_reg rt ~server } in
      by_server.(server) <- by_server.(server) @ [ c ];
      c
    in
    (* the Section 3.3 layout puts set i's register j on server
       (i+j) mod n, and writer i uses set i/z; the strawman is one cell
       on each of 2f+1 servers, shared by every writer *)
    let sets, z =
      if naive then ([ Array.init ((2 * p.f) + 1) cell ], p.k)
      else
        ( List.mapi
            (fun i size -> Array.init size (fun j -> cell ((i + j) mod p.n)))
            (Formulas.set_sizes p),
          Formulas.z p )
    in
    let slots =
      List.mapi
        (fun i client ->
          ( Id.Client.to_int (R.client_id client),
            {
              client;
              rset = List.nth sets (i / z);
              ts_val = Value.with_ts 0 Value.v0;
              acked = [];
              outstanding = Hashtbl.create 8;
            } ))
        writers
    in
    { rt; params = p; naive; by_server; slots }

  (* send the slot's current value to rset index [i]; register the
     covering-discipline acknowledgement handler.  Caller holds the
     writer's lock (reply handlers do by construction).  The request is
     [sticky]: its acknowledgement matters across operations, so it is
     retransmitted until acked even if the submitting operation has
     long returned. *)
  let rec send_current t slot i =
    let cell = slot.rset.(i) in
    let v = slot.ts_val in
    Hashtbl.replace slot.outstanding i v;
    R.rpc t.rt ~src:slot.client ~sticky:true cell.server
      ~make:(fun rid -> Proto.Reg_write { rid; reg = cell.reg; proposed = v })
      ~handler:(fun _ ->
        match Hashtbl.find_opt slot.outstanding i with
        | None -> ()  (* naive mode: a superseded acknowledgement *)
        | Some sent ->
            Hashtbl.remove slot.outstanding i;
            if Value.equal sent slot.ts_val then begin
              if not (List.mem i slot.acked) then slot.acked <- i :: slot.acked
            end
            else if not t.naive then
              (* a stale acknowledgement finally arrived: the cell now
                 holds an old value; immediately re-send the current one *)
              send_current t slot i)

  let submit t slot v ~quorum =
    R.locked slot.client (fun () ->
        slot.ts_val <- v;
        slot.acked <- [];
        Array.iteri
          (fun i _ ->
            if t.naive || not (Hashtbl.mem slot.outstanding i) then
              send_current t slot i)
          slot.rset);
    (* the quorum counts acked cells: one awaited reply per cell *)
    let cell_servers = Array.to_list (Array.map (fun c -> c.server) slot.rset) in
    R.await t.rt slot.client ~need:(cell_servers, quorum) (fun () ->
        List.length slot.acked >= quorum)

  (* read every cell of [n - f] servers, return the maximum *)
  let collect t cl =
    let n = t.params.Params.n and f = t.params.Params.f in
    let scans = ref 0 in
    let best = ref Value.v0 in
    (* servers holding no cell count as scanned for free; the rest must
       each answer *)
    let busy_servers =
      List.filter (fun s -> t.by_server.(s) <> []) (List.init n Fun.id)
    in
    let auto = n - List.length busy_servers in
    R.locked cl (fun () ->
        Array.iter
          (fun cells ->
            match cells with
            | [] -> incr scans
            | cells ->
                let remaining = ref (List.length cells) in
                List.iter
                  (fun cell ->
                    R.rpc t.rt ~src:cl cell.server
                      ~make:(fun rid -> Proto.Reg_read { rid; reg = cell.reg })
                      ~handler:(fun reply ->
                        (match reply with
                        | Proto.Reg_read_reply { stored; _ } ->
                            best := Value.max !best stored
                        | _ -> ());
                        decr remaining;
                        if !remaining = 0 then incr scans))
                  cells)
          t.by_server);
    R.await t.rt cl
      ~need:(busy_servers, max 0 (n - f - auto))
      (fun () -> !scans >= n - f);
    R.locked cl (fun () -> !best)

  let write t c v =
    let slot = writer_slot ~what:"Alg2" t.slots (R.client_id c) in
    R.invoke t.rt c (Regemu_sim.Trace.H_write v) (fun () ->
        let latest = collect t c in
        let quorum =
          if t.naive then t.params.Params.f + 1
          else Array.length slot.rset - t.params.Params.f
        in
        submit t slot (Value.with_ts (Value.ts latest + 1) v) ~quorum;
        Value.Unit)

  let read t c =
    R.invoke t.rt c Regemu_sim.Trace.H_read (fun () ->
        Value.payload (collect t c))
end

module Cds (R : RUNTIME) = struct
  include Round (R)

  (* Timestamps are [seq * ts_stride + slot], so [Value.max] over
     timestamped values orders (seq, writer) lexicographically: no two
     writers ever produce the same timestamp, and a writer's own
     timestamps strictly increase (its collect sees its previous write's
     quorum).  1024 writers per emulation is far beyond anything the
     benches drive. *)
  let ts_stride = 1024

  type t = {
    rt : R.t;
    f : int;
    replicas : int list;
    slots : (int * int) list;  (* writer client id -> slot index *)
  }

  let create rt ~f ~writers () =
    let replicas = check_replicas ~what:"Cds" ~have:(R.num_servers rt) ~f in
    if List.length writers > ts_stride then
      invalid_arg (Fmt.str "Cds.create: at most %d writers supported" ts_stride);
    let slots =
      List.mapi (fun i c -> (Id.Client.to_int (R.client_id c), i)) writers
    in
    { rt; f; replicas; slots }

  let replicas t = List.length t.replicas
  let writer_slots t = List.length t.slots

  let round t cl =
    quorum_round t.rt cl ~replicas:t.replicas ~quorum:(t.f + 1)

  (* the collect phase: every resident slot of a quorum, folded to the
     lexicographic maximum *)
  let collect t cl =
    round t cl
      ~request:(fun rid -> Proto.Cquery { rid })
      ~init:Value.v0
      ~fold:(fun best reply ->
        match reply with
        | Proto.Cquery_reply { slots; _ } ->
            List.fold_left (fun b (_, v) -> Value.max b v) best slots
        | _ -> best)

  let write t cl v =
    let slot = writer_slot ~what:"Cds" t.slots (R.client_id cl) in
    R.invoke t.rt cl (Regemu_sim.Trace.H_write v) (fun () ->
        let latest = collect t cl in
        let seq = (Value.ts latest / ts_stride) + 1 in
        let ts_val = Value.with_ts ((seq * ts_stride) + slot) v in
        round t cl
          ~request:(fun rid -> Proto.Cwrite { rid; slot; proposed = ts_val })
          ~init:() ~fold:(fun () _ -> ());
        Value.Unit)

  let read t cl =
    R.invoke t.rt cl Regemu_sim.Trace.H_read (fun () ->
        Value.payload (collect t cl))
end
