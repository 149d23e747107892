(* Everything the two transport backends share: destinations,
   envelopes, the configuration record, the control plane (the
   runtime-adjustable hostile-network state and the message counters),
   and the per-envelope fault decision.  The backends — the seeded
   in-process courier ([Threads]) and the forked-process [Socket]
   fabric — keep only their data planes: where messages queue, how
   lanes park, where a server step runs.  [Transport] dispatches those
   and forwards every control here. *)

type backend = Threads | Socket

let backends = [ Threads; Socket ]

let backend_name = function Threads -> "threads" | Socket -> "socket"

let backend_of_name s =
  List.find_opt (fun b -> backend_name b = s) backends

let backend_pp ppf b = Fmt.string ppf (backend_name b)

type dest = To_server of int | To_client of int

type envelope = { src : int; dest : dest; payload : Regemu_netsim.Proto.payload }

type config = {
  couriers : int;
  delay_prob : float;
  max_delay_us : int;
  dup_prob : float;
  drop_prob : float;
  reorder : bool;
  backend : backend;
  seed : int;
}

let check_prob what p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Fmt.str "Transport: %s=%g not a probability in [0,1]" what p)

let validate_config cfg ~servers =
  if servers < 1 then invalid_arg "Transport.create: need >= 1 server";
  if cfg.couriers < 1 then invalid_arg "Transport.create: need >= 1 courier";
  if cfg.max_delay_us < 0 then
    invalid_arg "Transport.create: max_delay_us must be >= 0";
  check_prob "delay_prob" cfg.delay_prob;
  check_prob "dup_prob" cfg.dup_prob;
  check_prob "drop_prob" cfg.drop_prob

(* The runtime-adjustable hostile-network state, published as one
   immutable value so the send fast path reads it with a single
   [Atomic.get] instead of taking a lock.  [groups] is built once per
   [split] and never mutated after publication; [slow] and [frozen]
   are copied on every write (gray-failure controls are nemesis-rate,
   not send-rate). *)
type net_state = {
  drop_requests : float;
  drop_replies : float;
  groups : (int, int) Hashtbl.t option;  (* server -> group id *)
  client_group : int;
  slow : int array;  (* per-server added delivery delay, us; [||] = none *)
  frozen : bool array;  (* per-server request-lane freeze; [||] = none *)
}

let initial_state cfg =
  {
    drop_requests = cfg.drop_prob;
    drop_replies = cfg.drop_prob;
    groups = None;
    client_group = 0;
    slow = [||];
    frozen = [||];
  }

(* Which server is this envelope's link attached to?  (Clients are not
   partitioned — or slowed — among themselves.) *)
let link_server env =
  match env.dest with To_server s -> s | To_client _ -> env.src

let slow_of st ~server =
  if server >= 0 && server < Array.length st.slow then st.slow.(server) else 0

let frozen_of st ~server =
  server >= 0 && server < Array.length st.frozen && st.frozen.(server)

let reachable_of st ~server =
  match st.groups with
  | None -> true
  | Some g -> Hashtbl.find_opt g server = Some st.client_group

(* build the [split] reachability map, validating the groups *)
let groups_table ~groups ~clients_with =
  if groups = [] then invalid_arg "Transport.split: no groups";
  if clients_with < 0 || clients_with >= List.length groups then
    invalid_arg
      (Fmt.str "Transport.split: clients_with=%d not a group index" clients_with);
  let h = Hashtbl.create 16 in
  List.iteri
    (fun gi servers ->
      List.iter
        (fun s ->
          if s < 0 then invalid_arg "Transport.split: negative server id";
          if Hashtbl.mem h s then
            invalid_arg
              (Fmt.str "Transport.split: server %d appears in two groups" s);
          Hashtbl.replace h s gi)
        servers)
    groups;
  h

(* grow-and-copy so the published arrays are never mutated in place *)
let with_cell arr n server v ~default =
  let a = Array.make (max n (Array.length arr)) default in
  Array.blit arr 0 a 0 (Array.length arr);
  a.(server) <- v;
  a

let dest_str = function
  | To_server s -> "s" ^ string_of_int s
  | To_client c -> "c" ^ string_of_int c

let env_args env =
  [
    ("src", Sink.Event.I env.src);
    ("dest", Sink.Event.S (dest_str env.dest));
    ("rid", Sink.Event.I (Regemu_netsim.Proto.rid_of env.payload));
  ]

(* [p] as an event on a seeded integer rng *)
let hit rng p =
  p > 0.0 && Regemu_sim.Rng.int rng ~bound:1_000_000 < int_of_float (p *. 1e6)

(* a sampled message point event on a lane's recorder *)
let msg_point lrec name env =
  if Sink.sample_msg lrec then
    Sink.instant lrec ~cat:"msg" ~args:(env_args env) name

(* --- the control plane --------------------------------------------------- *)

(* One per transport, whatever the backend.  The only backend-specific
   piece is [wake]: make server [s]'s request lane re-check its park
   predicate after a thaw, since each backend parks lanes its own way. *)
type control = {
  cfg : config;
  nservers : int;
  deliver : envelope -> unit;
  wake : int -> unit;
  state : net_state Atomic.t;
  stopped : bool Atomic.t;
  sent : int Atomic.t;
  duplicated : int Atomic.t;
  delayed : int Atomic.t;
  slowed : int Atomic.t;
  dropped : int Atomic.t;
  cut : int Atomic.t;
  delivered : int Atomic.t;
}

let control ?(sink = Sink.none) cfg ~servers ~deliver ~wake =
  validate_config cfg ~servers;
  let counter help name = Sink.counter sink ~help ("transport." ^ name) in
  {
    cfg;
    nservers = servers;
    deliver;
    wake;
    state = Atomic.make (initial_state cfg);
    stopped = Atomic.make false;
    sent = counter "envelopes accepted for delivery" "sent";
    duplicated = counter "envelopes duplicated in flight" "duplicated";
    delayed = counter "envelopes held by a delivery delay" "delayed";
    slowed = counter "envelopes held by a gray slow link" "slowed";
    dropped = counter "envelopes lost to the drop rates" "dropped";
    cut = counter "envelopes lost to a partition" "cut";
    delivered = counter "envelopes handed to their destination" "delivered";
  }

(* swap in a new state derived from the current one; the nemesis is the
   sole writer, so a plain read-modify-write is enough *)
let update_state c f = Atomic.set c.state (f (Atomic.get c.state))

let split c ~groups ~clients_with =
  let h = groups_table ~groups ~clients_with in
  update_state c (fun st ->
      { st with groups = Some h; client_group = clients_with })

let heal c =
  update_state c (fun st -> { st with groups = None; client_group = 0 })

let set_drop c ?requests ?replies () =
  Option.iter (check_prob "requests") requests;
  Option.iter (check_prob "replies") replies;
  update_state c (fun st ->
      {
        st with
        drop_requests = Option.value ~default:st.drop_requests requests;
        drop_replies = Option.value ~default:st.drop_replies replies;
      })

let reachable c ~server = reachable_of (Atomic.get c.state) ~server

let check_server c what server =
  if server < 0 || server >= c.nservers then
    invalid_arg
      (Fmt.str "Transport.%s: server %d out of range [0,%d)" what server
         c.nservers)

let set_slow c ~server us =
  check_server c "set_slow" server;
  if us < 0 then invalid_arg "Transport.set_slow: negative delay";
  update_state c (fun st ->
      { st with slow = with_cell st.slow c.nservers server us ~default:0 })

let slow_us c ~server =
  check_server c "slow_us" server;
  slow_of (Atomic.get c.state) ~server

let set_frozen c ~server v =
  update_state c (fun st ->
      {
        st with
        frozen = with_cell st.frozen c.nservers server v ~default:false;
      });
  if not v then c.wake server

let freeze c ~server =
  check_server c "freeze" server;
  set_frozen c ~server true

let thaw c ~server =
  check_server c "thaw" server;
  set_frozen c ~server false

let frozen c ~server =
  check_server c "frozen" server;
  frozen_of (Atomic.get c.state) ~server

let heal_gray c =
  update_state c (fun st -> { st with slow = [||]; frozen = [||] });
  for s = 0 to c.nservers - 1 do
    c.wake s
  done

let sent c = Atomic.get c.sent
let delivered c = Atomic.get c.delivered
let duplicated c = Atomic.get c.duplicated
let delayed c = Atomic.get c.delayed
let slowed c = Atomic.get c.slowed
let dropped c = Atomic.get c.dropped
let cut c = Atomic.get c.cut

(* --- the fault decision -------------------------------------------------- *)

(* Every path that carries an envelope decides its faults in two steps,
   each drawing from the caller's seeded lane rng in a fixed order.
   [admit] settles whether the envelope travels at all: cut by a
   partition, then lost to the drop rate (one draw), then duplicated
   (one draw).  [hold] settles, per surviving copy, how long it waits:
   a random delivery delay (one draw for the coin, one for the length)
   plus the link's gray slowness.  A backend may run the two steps in
   different places — the courier admits at [send] and holds in its
   drain loop — or back to back with {!forward}. *)

type verdict = Cut | Drop | Pass | Dup

let admit c ~rng ~lrec st env =
  if not (reachable_of st ~server:(link_server env)) then begin
    Atomic.incr c.cut;
    msg_point lrec "cut" env;
    Cut
  end
  else if
    hit rng
      (if Regemu_netsim.Proto.is_reply env.payload then st.drop_replies
       else st.drop_requests)
  then begin
    Atomic.incr c.dropped;
    msg_point lrec "drop" env;
    Drop
  end
  else if hit rng c.cfg.dup_prob then Dup
  else Pass

(* account the second copy of a [Dup] *)
let count_dup c lrec env =
  Atomic.incr c.sent;
  Atomic.incr c.duplicated;
  msg_point lrec "dup" env

(* the total hold of one copy, microseconds; counts and traces both parts *)
let hold c ~rng ~lrec st env =
  let delay_us =
    if hit rng c.cfg.delay_prob && c.cfg.max_delay_us > 0 then begin
      Atomic.incr c.delayed;
      let d = 1 + Regemu_sim.Rng.int rng ~bound:c.cfg.max_delay_us in
      if Sink.sample_msg lrec then
        Sink.instant lrec ~cat:"msg"
          ~args:(("delay_us", Sink.Event.I d) :: env_args env)
          "delay";
      d
    end
    else 0
  in
  let slow_us = slow_of st ~server:(link_server env) in
  if slow_us > 0 then begin
    Atomic.incr c.slowed;
    if Sink.sample_msg lrec then
      Sink.instant lrec ~cat:"msg"
        ~args:(("slow_us", Sink.Event.I slow_us) :: env_args env)
        "slow"
  end;
  delay_us + slow_us

(* hand an envelope to its destination; the point goes out first so a
   rid's trace points stay in causal order when deliveries nest *)
let hand c lrec env =
  msg_point lrec "recv" env;
  c.deliver env;
  Atomic.incr c.delivered

(* the whole decision on the calling thread: admit, then serve each
   surviving copy's hold right here before passing it to [out] *)
let forward c ~rng ~lrec st env out =
  let copy () =
    let us = hold c ~rng ~lrec st env in
    if us > 0 then Thread.delay (float_of_int us *. 1e-6);
    out env
  in
  match admit c ~rng ~lrec st env with
  | Cut | Drop -> ()
  | Pass -> copy ()
  | Dup ->
      count_dup c lrec env;
      copy ();
      copy ()
