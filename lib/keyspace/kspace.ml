open Regemu_live
module Abd = Regemu_netsim.Quorum_client.Abd (Cluster)

type t = { cluster : Cluster.t; placement : Placement.t; abd : Abd.t }
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

let create cluster ~f () =
  let placement = Placement.create ~n:(Cluster.num_servers cluster) ~f in
  let t = { cluster; placement; abd = Abd.create cluster ~f () } in
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

let replicas t key = Placement.replicas t.placement key

let write t w ~key v =
  ignore (Abd.write_key t.abd w ~key ~replicas:(replicas t key) v)

let read t w ~key = Abd.read_key t.abd w ~key ~replicas:(replicas t key)
