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
  val invoke :
    t -> client -> ?key:int -> Regemu_sim.Trace.hop -> (unit -> Value.t) -> call
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
  let invoke net client ?key:_ hop body = Net.invoke net ~client hop body
end

module Sim_runtime = struct
  open Regemu_sim

  (* [alloc_reg] returns the register's object id, so a request names
     its base object directly *)
  type t = {
    sim : Sim.t;
    max_regs : Id.Obj.t array;  (* index = server id *)
    mutable regs : Id.Obj.t list;  (* newest first *)
  }

  type client = Id.Client.t
  type call = Sim.call

  let create sim ~max_registers =
    let max_reg s =
      Sim.alloc sim ~server:(Id.Server.of_int s) Base_object.Max_register
    in
    { sim; max_regs = Array.init max_registers max_reg; regs = [] }

  let objects t = Array.to_list t.max_regs @ List.rev t.regs
  let client_id c = c
  let num_servers t = Sim.num_servers t.sim

  let alloc_reg t ~server =
    let b =
      Sim.alloc t.sim ~server:(Id.Server.of_int server) Base_object.Register
    in
    t.regs <- b :: t.regs;
    Id.Obj.to_int b

  let locked _ f = f ()

  (* a request is one low-level operation, its reply that operation's
     response; Sim matches the two, so rids are never drawn *)
  let trigger t src b op on_response =
    ignore (Sim.trigger t.sim ~client:src b op ~on_response)

  let rpc t ~src ?sticky:_ server ~make ~handler =
    match make 0 with
    | Proto.Query { key = 0; _ } ->
        trigger t src t.max_regs.(server) Base_object.Max_read (fun stored ->
            handler (Proto.Query_reply { rid = 0; stored }))
    | Proto.Update { key = 0; proposed; _ } ->
        trigger t src t.max_regs.(server) (Base_object.Max_write proposed)
          (fun _ -> handler (Proto.Update_reply { rid = 0 }))
    | Proto.Reg_read { reg; _ } ->
        trigger t src (Id.Obj.of_int reg) Base_object.Read (fun stored ->
            handler (Proto.Reg_read_reply { rid = 0; stored }))
    | Proto.Reg_write { reg; proposed; _ } ->
        trigger t src (Id.Obj.of_int reg) (Base_object.Write proposed)
          (fun _ -> handler (Proto.Reg_write_reply { rid = 0 }))
    | p ->
        invalid_arg
          (Fmt.str "Sim_runtime.rpc: no base object serves %a" Proto.payload_pp
             p)

  let rpc_quorum t ~src ~quorum:_ ~make ~handler replicas =
    List.iter (fun s -> rpc t ~src s ~make ~handler) replicas

  let await _ _ ?need:_ pred = Sim.wait_until pred
  let invoke t client ?key:_ hop body = Sim.invoke t.sim ~client hop body
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

let find_slot ~what slots c =
  match List.assoc_opt (Id.Client.to_int c) slots with
  | Some s -> s
  | None -> invalid_arg (what ^ ": not a registered client")

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

  let query_max t cl ~key ~replicas =
    quorum_round t.rt cl ~replicas ~quorum:(t.f + 1)
      ~request:(fun rid -> Proto.Query { rid; key })
      ~init:Value.v0
      ~fold:(fun best reply ->
        match reply with
        | Proto.Query_reply { stored; _ } -> Value.max best stored
        | _ -> best)

  let update t cl ~key ~replicas ts_val =
    quorum_round t.rt cl ~replicas ~quorum:(t.f + 1)
      ~request:(fun rid -> Proto.Update { rid; key; proposed = ts_val })
      ~init:() ~fold:(fun () _ -> ())

  let write_key t cl ~key ~replicas v =
    R.invoke t.rt cl ~key (Regemu_sim.Trace.H_write v) (fun () ->
        let latest = query_max t cl ~key ~replicas in
        update t cl ~key ~replicas (Value.with_ts (Value.ts latest + 1) v);
        Value.Unit)

  let read_key t cl ~key ~replicas =
    R.invoke t.rt cl ~key Regemu_sim.Trace.H_read (fun () ->
        let latest = query_max t cl ~key ~replicas in
        if t.write_back_reads then update t cl ~key ~replicas latest;
        Value.payload latest)

  let write t cl v = write_key t cl ~key:0 ~replicas:t.replicas v
  let read t cl = read_key t cl ~key:0 ~replicas:t.replicas
end

module Alg2 (R : RUNTIME) = struct
  type cell = { server : int; reg : int }

  (* per-client covering-discipline slot over its register-cell set;
     all mutable fields are touched only under the client's lock *)
  type slot = {
    client : R.client;
    rset : cell array;
    mutable ts_val : Value.t;
    mutable acked : int list;  (* rset indexes acknowledged for ts_val *)
    pending : bool array;  (* rset index -> a request of ours in flight *)
  }

  type t = {
    rt : R.t;
    params : Params.t;
    naive : bool;
    by_server : cell list array;  (* index = server id *)
    busy_servers : int list;  (* servers holding at least one cell *)
    slots : (int * slot) list;  (* writer client id -> slot *)
    readers : (int * slot) list;  (* registered reader id -> slot *)
  }

  let cells t = Array.fold_left (fun a l -> a + List.length l) 0 t.by_server

  let create rt (p : Params.t) ?(naive = false)
      ?placement ?(readers = []) ~writers () =
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
    (* the Section 3.3 layout sized for every writer and registered
       reader: set i's register j on server [placement ~set:i ~index:j],
       and client slot i (writers first) on set i/z; the strawman is one
       set of a cell on each of 2f+1 servers, shared by every client *)
    let slot_params =
      Params.make_exn ~k:(p.k + List.length readers) ~f:p.f ~n:p.n
    in
    let sizes, z =
      if naive then ([ (2 * p.f) + 1 ], slot_params.k)
      else (Formulas.set_sizes slot_params, Formulas.z slot_params)
    in
    let sets = Formulas.walk_sets ?placement ~n:p.n sizes cell in
    let slot i client =
      let rset = List.nth sets (i / z) in
      ( Id.Client.to_int (R.client_id client),
        {
          client;
          rset;
          ts_val = Value.with_ts 0 Value.v0;
          acked = [];
          pending = Array.make (Array.length rset) false;
        } )
    in
    {
      rt;
      params = p;
      naive;
      by_server;
      busy_servers =
        List.filter (fun s -> by_server.(s) <> []) (List.init p.n Fun.id);
      slots = List.mapi slot writers;
      readers = List.mapi (fun j c -> slot (p.k + j) c) readers;
    }

  (* send the slot's current value to rset index [i]; register the
     covering-discipline acknowledgement handler.  Caller holds the
     client's lock (reply handlers do by construction).  The request is
     [sticky]: its acknowledgement matters across operations, so it is
     retransmitted until acked even if the submitting operation has
     long returned.  A reply acknowledges the value its own request
     carried, and only if that is still the current one: the naive
     strawman may have several requests in flight on one cell, and an
     older write's reply must not count toward a newer write's quorum. *)
  let rec send_current t slot i =
    let cell = slot.rset.(i) in
    let v = slot.ts_val in
    slot.pending.(i) <- true;
    R.rpc t.rt ~src:slot.client ~sticky:true cell.server
      ~make:(fun rid -> Proto.Reg_write { rid; reg = cell.reg; proposed = v })
      ~handler:(fun _ ->
        slot.pending.(i) <- false;
        if Value.equal v slot.ts_val then begin
          if not (List.mem i slot.acked) then slot.acked <- i :: slot.acked
        end
        else if not t.naive then
          (* a stale acknowledgement finally arrived: the cell now holds
             an old value; immediately re-send the current one *)
          send_current t slot i)

  (* adopt [v], send it to every cell without a request of ours in
     flight (the naive strawman: to every cell), and wait until
     [|rset| - f] cells acknowledged it *)
  let submit t slot v =
    let quorum = Array.length slot.rset - t.params.Params.f in
    R.locked slot.client (fun () ->
        slot.ts_val <- v;
        slot.acked <- [];
        Array.iteri
          (fun i _ ->
            if t.naive || not slot.pending.(i) then send_current t slot i)
          slot.rset);
    (* the quorum counts acked cells: one awaited reply per cell *)
    let cell_servers = Array.to_list (Array.map (fun c -> c.server) slot.rset) in
    R.await t.rt slot.client ~need:(cell_servers, quorum) (fun () ->
        List.length slot.acked >= quorum)

  (* read every cell of [n - f] servers, return the maximum *)
  let collect t cl =
    let n = t.params.Params.n and f = t.params.Params.f in
    (* servers holding no cell count as scanned for free; the rest must
       each answer *)
    let vacant = n - List.length t.busy_servers in
    let scans = ref vacant in
    let best = ref Value.v0 in
    R.locked cl (fun () ->
        Array.iter
          (fun cells ->
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
      ~need:(t.busy_servers, max 0 (n - f - vacant))
      (fun () -> !scans >= n - f);
    R.locked cl (fun () -> !best)

  let write t c v =
    let slot = find_slot ~what:"Alg2.write" t.slots (R.client_id c) in
    R.invoke t.rt c (Regemu_sim.Trace.H_write v) (fun () ->
        let latest = collect t c in
        submit t slot (Value.with_ts (Value.ts latest + 1) v);
        Value.Unit)

  (* a registered reader writes the value back through its own slot
     before returning, so no later collect can miss it *)
  let read t c =
    let write_back =
      match t.readers with
      | [] -> None
      | readers -> Some (find_slot ~what:"Alg2.read" readers (R.client_id c))
    in
    R.invoke t.rt c Regemu_sim.Trace.H_read (fun () ->
        let latest = collect t c in
        Option.iter (fun slot -> submit t slot latest) write_back;
        Value.payload latest)
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
    let slot = find_slot ~what:"Cds.write" t.slots (R.client_id cl) in
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
