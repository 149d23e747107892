open Regemu_objects
open Regemu_live
open Regemu_netsim

type t = {
  cluster : Cluster.t;
  placement : Placement.t;
  f : int;
  write_back_reads : bool;
}

type worker = Cluster.client

let server_cells t =
  let n = Cluster.num_servers t.cluster in
  let mx = ref 0 and total = ref 0 in
  for s = 0 to n - 1 do
    let c = Cluster.server_num_keys t.cluster ~server:s in
    if c > !mx then mx := c;
    total := !total + c
  done;
  (!mx, !total)

let create cluster ~f ?(write_back_reads = false) () =
  let placement = Placement.create ~n:(Cluster.num_servers cluster) ~f in
  let t = { cluster; placement; f; write_back_reads } in
  let sink = Cluster.sink cluster in
  Sink.gauge_fn sink ~unit_:"cells"
    ~help:"per-key max-register cells resident across all servers"
    "keyspace.server_cells.total" (fun () -> snd (server_cells t));
  Sink.gauge_fn sink ~unit_:"cells"
    ~help:"per-key max-register cells on the fullest server"
    "keyspace.server_cells.max" (fun () -> fst (server_cells t));
  t

let cluster t = t.cluster
let placement t = t.placement
let klog t = Cluster.log t.cluster
let new_worker t = Cluster.new_client t.cluster
let worker_client w = w

module Q = Quorum_client.Round (Cluster)

(* one per-key quorum round over the key's replicas — the shared client
   round, so keyed rounds hedge, retransmit and dedupe replies exactly
   like single-register rounds *)
let quorum_round t w ~key =
  Q.quorum_round t.cluster w
    ~replicas:(Placement.replicas t.placement key)
    ~quorum:(t.f + 1)

let query_max t w ~key =
  quorum_round t w ~key
    ~request:(fun rid -> Proto.Kquery { rid; key })
    ~init:Value.v0
    ~fold:(fun best reply ->
      match reply with
      | Proto.Kquery_reply { stored; _ } -> Value.max best stored
      | _ -> best)

let update t w ~key ts_val =
  quorum_round t w ~key
    ~request:(fun rid -> Proto.Kupdate { rid; key; proposed = ts_val })
    ~init:() ~fold:(fun () _ -> ())

let write t w ~key v =
  ignore
    (Cluster.invoke t.cluster w ~key (Regemu_sim.Trace.H_write v) (fun () ->
         let latest = query_max t w ~key in
         update t w ~key (Value.with_ts (Value.ts latest + 1) v);
         Value.Unit))

let read t w ~key =
  Cluster.invoke t.cluster w ~key Regemu_sim.Trace.H_read (fun () ->
      let latest = query_max t w ~key in
      if t.write_back_reads then update t w ~key latest;
      Value.payload latest)
