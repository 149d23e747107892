(* The transport seam: one message-fabric API, two backends.

   [Threads] is the seeded in-process courier fabric
   ({!Transport_courier}) — the deterministic backend, and the only
   one a {!Sched_hook} can drive, so the presence of a scheduler
   forces it regardless of the configured backend.  [Socket] runs
   each server as a forked process behind the binary codec
   ({!Transport_socket}).  Everything above this module — Cluster,
   the algorithms, the nemesis, the checkers — is backend-agnostic. *)

type backend = Transport_intf.backend = Threads | Socket

let backends = Transport_intf.backends
let backend_name = Transport_intf.backend_name
let backend_of_name = Transport_intf.backend_of_name
let backend_pp = Transport_intf.backend_pp

type dest = Transport_intf.dest = To_server of int | To_client of int

type envelope = Transport_intf.envelope = {
  src : int;
  dest : dest;
  payload : Regemu_netsim.Proto.payload;
}

type config = Transport_intf.config = {
  couriers : int;
  delay_prob : float;
  max_delay_us : int;
  dup_prob : float;
  drop_prob : float;
  reorder : bool;
  backend : backend;
  seed : int;
}

let default_config ~seed =
  {
    couriers = 2;
    delay_prob = 0.0;
    max_delay_us = 0;
    dup_prob = 0.0;
    drop_prob = 0.0;
    reorder = true;
    backend = Threads;
    seed;
  }

(* the scheduler owns all concurrency in a DST run: only the courier
   fabric cooperates with it, so [?sched] wins over [cfg.backend] *)
let effective_backend ?sched cfg =
  match sched with Some _ -> Threads | None -> cfg.backend

type fabric = C of Transport_courier.t | S of Transport_socket.t

(* every control and counter lives in the shared control plane; only
   the data plane is dispatched *)
type t = { ctl : Transport_intf.control; fabric : fabric }

let create ?sched ?sink ?server_regs cfg ~servers ~deliver =
  match effective_backend ?sched cfg with
  | Threads ->
      let x = Transport_courier.create ?sched ?sink cfg ~servers ~deliver in
      { ctl = x.ctl; fabric = C x }
  | Socket ->
      let x =
        Transport_socket.create ?sink cfg ~servers ~deliver
          ~server_regs:(Option.value server_regs ~default:(fun _ -> 0))
      in
      { ctl = x.ctl; fabric = S x }

let backend t =
  match t.fabric with C _ -> Threads | S _ -> Socket

let start t =
  match t.fabric with
  | C x -> Transport_courier.start x
  | S x -> Transport_socket.start x

let send t env =
  match t.fabric with
  | C x -> Transport_courier.send x env
  | S x -> Transport_socket.send x env

let set_server_up t ~server v =
  match t.fabric with
  | C _ -> ()  (* courier delivery is up-agnostic: the mailbox gates *)
  | S x -> Transport_socket.set_server_up x ~server v

let stop t =
  match t.fabric with
  | C x -> Transport_courier.stop x
  | S x -> Transport_socket.stop x

let lanes t =
  match t.fabric with
  | C x -> Transport_courier.lanes x
  | S x -> Transport_socket.lanes x

let threads_started t =
  match t.fabric with
  | C x -> Transport_courier.threads_started x
  | S _ -> 0

let split t = Transport_intf.split t.ctl
let heal t = Transport_intf.heal t.ctl
let set_drop t = Transport_intf.set_drop t.ctl
let reachable t = Transport_intf.reachable t.ctl
let set_slow t = Transport_intf.set_slow t.ctl
let slow_us t = Transport_intf.slow_us t.ctl
let freeze t = Transport_intf.freeze t.ctl
let thaw t = Transport_intf.thaw t.ctl
let frozen t = Transport_intf.frozen t.ctl
let heal_gray t = Transport_intf.heal_gray t.ctl
let sent t = Transport_intf.sent t.ctl
let delivered t = Transport_intf.delivered t.ctl
let duplicated t = Transport_intf.duplicated t.ctl
let delayed t = Transport_intf.delayed t.ctl
let slowed t = Transport_intf.slowed t.ctl
let dropped t = Transport_intf.dropped t.ctl
let cut t = Transport_intf.cut t.ctl
