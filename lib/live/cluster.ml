open Regemu_objects
open Regemu_netsim

type config = {
  n : int;
  transport : Transport.config;
  op_timeout_s : float;
  recovery : Recovery.mode;
  retry : Retry.config option;
  hedge : Hedge.config option;
  deadline : Deadline.config option;
}

let default_config ~n ~seed =
  {
    n;
    transport = Transport.default_config ~seed;
    op_timeout_s = 30.0;
    recovery = Recovery.Persist;
    retry = Some Retry.default_config;
    hedge = None;
    deadline = None;
  }

exception Timeout of string

type cause = Quorum_lost | Deadline_exceeded

let cause_pp ppf = function
  | Quorum_lost -> Fmt.string ppf "quorum lost"
  | Deadline_exceeded -> Fmt.string ppf "deadline exceeded"

type unavailable = {
  client : Id.Client.t;
  cause : cause;
  elapsed_s : float;
  reachable : int;
  required : int;
}

exception Unavailable of unavailable

let unavailable_pp ppf u =
  Fmt.pf ppf "client %a unavailable after %.2fs (%a: %d of %d needed servers \
              reachable)"
    Id.Client.pp u.client u.elapsed_s cause_pp u.cause u.reachable u.required

(* how many mailbox messages a server drains per wakeup *)
let server_batch = 16

type server = {
  sid : int;
  store : Proto.store;
  mailbox : (int * Proto.payload) Mailbox.t;
  backlog : int Atomic.t;
      (* requests handed to the mailbox and not yet stepped: queued, or
         popped and in the server thread's hands *)
  xm : Mutex.t;
      (* the execution lock: held for every [Proto.step] and store wipe,
         whichever thread runs it *)
  sm : Mutex.t;
  sc : Condition.t;
  mutable up : bool;
  mutable closing : bool;
  mutable sthread : Thread.t option;
      (* unscheduled [Threads]: started by the first request pushed to
         [mailbox] ({!deliver}); written under the cluster's [gm] *)
}

(* a hedged round's deferred sends, armed until the round completes or
   the adaptive delay elapses; owned by the client mutex *)
type hedge_pending = {
  h_armed : float;  (* when the round's initial sends went out *)
  h_due : float;  (* monotonic fire time *)
  h_servers : int list;  (* the not-yet-contacted replicas *)
  h_make : int -> Proto.payload;
  h_handler : Proto.payload -> unit;
}

type client = {
  id : Id.Client.t;
  crec : Sink.Trace.recorder option;  (* this client's trace stream *)
  mutable op_live : bool;
      (* the current op's span is open (it was sampled); client-thread
         private, so awaits know whether to nest their own spans *)
  cm : Mutex.t;
  mutable owner : int;
      (* id of the thread holding [cm], -1 when none: a reply delivered
         on that thread runs its handler in place (OCaml's mutexes are
         error-checking, so re-locking would raise) *)
  cc : Condition.t;
  handlers : (int, Proto.payload -> unit) Hashtbl.t;
  pending : (int, Retry.pending) Hashtbl.t;  (* rid -> retransmission state *)
  crng : Regemu_sim.Rng.t;  (* jitter; touched only under [cm] *)
  hlog : Histlog.writer;  (* this client's private history shard *)
  dl : Deadline.t option;  (* reply-latency estimator; under [cm] *)
  mutable hedge : hedge_pending option;  (* armed hedge; under [cm] *)
  mutable op_t0 : float;  (* monotonic invocation time of the current op *)
  mutable waiting : bool;  (* a thread is blocked in [await]; under [cm],
                              read opportunistically by wakers *)
  mutable pred : (unit -> bool) option;
      (* the predicate that await is blocked on, under [cm]: reply
         dispatch signals only when it flips, so the sub-quorum replies
         of a round never wake the client *)
}

(* retransmission-backoff histogram bucket upper edges, milliseconds
   (the metrics histogram adds the unbounded bucket itself) *)
let backoff_edges_ms = [| 100; 250; 500; 1000; 2000; 4000 |]

type t = {
  cfg : config;
  sched : Sched_hook.t option;
  backend : Transport.backend;  (* the fabric actually running (sched forces
                                   [Threads]); [Socket] restarts wipe *)
  step_inline : bool;  (* unscheduled [Threads]: an uncontended request may
                          be stepped on its delivering thread *)
  inline_steps : int Atomic.t;
  sink : Sink.t;
  ctl : Sink.Trace.recorder option;  (* control-plane events: faults, nemesis *)
  mutable alarm : Alarm.t option;
      (* interrupts the heartbeat/pacer sleeps at shutdown; opened under
         [gm] by the first of them to start *)
  servers : server array;
  mutable clients : client array;
  gm : Mutex.t;
      (* guards [clients] growth, fault counters, [shut], and the start
         of every thread that starts on first use *)
  rid : int Atomic.t;
  log : Histlog.t;
  mutable transport : Transport.t option;
  mutable heartbeat : Thread.t option;  (* started by the first park *)
  mutable pacer : Thread.t option;
      (* hedge timer thread (threaded mode), started by the first armed
         hedge *)
  mutable running : bool;
  mutable shut : bool;
  mutable threads_started : int;  (* servers, heartbeat, pacer; under [gm] *)
  mutable crashes : int;
  mutable restarts : int;
  mutable wipes : int;
  retries : int Atomic.t;
  unavailable : int Atomic.t;
  health : float Atomic.t array;
      (* per-server reply-latency EWMA (seconds, 0 = no data); feeds
         hedged replica selection.  Benign races in threaded mode: a
         lost update only staleness-shifts a score. *)
  hedge_sent : int Atomic.t;
  hedge_won : int Atomic.t;
  backoff_hist : Sink.Metrics.histogram;  (* backoff_ms per retransmission *)
}

let transport t =
  match t.transport with
  | Some tr -> tr
  | None -> invalid_arg "Cluster: torn down"

let sink t = t.sink

(* --- routing ----------------------------------------------------------- *)

let self_id () = Thread.id (Thread.self ())

(* every holder of [cm] that may send goes through these two, so
   [owner] names the holding thread whenever a reply can reach it *)
let lock_client cl =
  Mutex.lock cl.cm;
  cl.owner <- self_id ()

let unlock_client cl =
  cl.owner <- -1;
  Mutex.unlock cl.cm

(* caller holds [cl.cm] *)
let run_reply cl payload =
  match Hashtbl.find_opt cl.handlers (Proto.rid_of payload) with
  | Some f ->
      (* one-shot: a duplicated or retransmitted reply must not
         double-count toward a quorum *)
      Hashtbl.remove cl.handlers (Proto.rid_of payload);
      f payload;
      (* targeted wakeup: only the client this reply progressed, only
         when it is blocked, and only when its awaited predicate
         flipped — a duplicate reply (no handler) or a sub-quorum
         reply wakes nobody *)
      if cl.waiting then (
        match cl.pred with
        | Some p -> if p () then Condition.signal cl.cc
        | None -> Condition.signal cl.cc)
  | None -> ()

let dispatch_to_client t cid payload =
  let clients = t.clients in
  if cid >= 0 && cid < Array.length clients then begin
    let cl = clients.(cid) in
    (* a reply delivered synchronously inside this client's own
       critical section (an [rpc] whose round completed on the sending
       thread) runs its handler in place.  Only the unscheduled
       fabric nests deliveries that way; under a scheduler every actor
       shares one thread id, so the check stays off there. *)
    if t.step_inline && cl.owner = self_id () then run_reply cl payload
    else begin
      lock_client cl;
      run_reply cl payload;
      unlock_client cl
    end
  end

let send_replies t srv src replies =
  List.iter
    (fun reply ->
      Transport.send (transport t)
        {
          Transport.src = srv.sid;
          dest = Transport.To_client src;
          payload = reply;
        })
    replies

(* one protocol step; the caller holds the execution lock, released
   here before the caller sends the replies *)
let step_and_unlock srv payload =
  match Proto.step srv.store payload with
  | replies ->
      Mutex.unlock srv.xm;
      replies
  | exception e ->
      Mutex.unlock srv.xm;
      raise e

(* The unscheduled [Threads] request path: step on the delivering
   thread instead of waking the server thread, when the server is up,
   nothing is queued for it or in its thread's hands, and its
   execution lock is free.  The server thread takes the same lock for
   each step, so steps stay mutually exclusive and a request is never
   stepped ahead of one delivered before it.  [up] is read without
   [sm]: a step racing a crash is ordered before it.  Returns [false]
   when the request must go to the mailbox instead. *)
let try_step_inline t srv src payload =
  (* a backlogged server is not even try-locked: its thread is the one
     that needs the lock *)
  Atomic.get srv.backlog = 0
  && Mutex.try_lock srv.xm
  &&
  if srv.up && Atomic.get srv.backlog = 0 then begin
    let replies = step_and_unlock srv payload in
    Atomic.incr t.inline_steps;
    send_replies t srv src replies;
    true
  end
  else begin
    Mutex.unlock srv.xm;
    false
  end

(* --- servers ----------------------------------------------------------- *)

let server_loop t srv =
  let handle (src, payload) =
    Mutex.lock srv.sm;
    (* protect, not straight-line unlock: on scheduler teardown the
       suspend raises with [srv.sm] re-held, and a leaked [sm] wedges
       every other actor that touches this server *)
    let closing =
      Fun.protect
        ~finally:(fun () -> Mutex.unlock srv.sm)
        (fun () ->
          (match t.sched with
          | None ->
              while (not srv.up) && not srv.closing do
                Condition.wait srv.sc srv.sm
              done
          | Some hook ->
              hook.suspend ~mutex:srv.sm (fun () -> srv.up || srv.closing));
          srv.closing)
    in
    if closing then false
    else begin
      Mutex.lock srv.xm;
      let replies = step_and_unlock srv payload in
      (* left the backlog only once stepped: an inline step that sees
         0 under [xm] has nothing queued ahead of it *)
      Atomic.decr srv.backlog;
      send_replies t srv src replies;
      true
    end
  in
  let rec go () =
    match Mailbox.pop_batch srv.mailbox ~max:server_batch with
    | None -> ()  (* mailbox closed: teardown *)
    | Some batch -> if List.for_all handle batch then go ()
  in
  go ()

(* --- threads on first use ------------------------------------------------ *)

(* Without a scheduler each live thread starts the first time it has
   work, so a cluster whose rounds all run inline starts none.  Each
   [ensure_*] reads its thread field once without [gm] (already
   started: the common case), then again under it.  [shut] shares that
   lock, so no thread starts once {!shutdown} has begun and shutdown
   joins every thread that did.  A scheduler's actors all spawn at
   {!start} instead: actor ids and spawn order are part of every DST
   digest. *)

(* caller holds [gm] *)
let spawn t f x =
  t.threads_started <- t.threads_started + 1;
  Some (Thread.create f x)

(* a server's thread, at the first request pushed to its mailbox *)
let ensure_server t srv =
  if Option.is_none srv.sthread then begin
    Mutex.lock t.gm;
    if Option.is_none srv.sthread && not t.shut then
      srv.sthread <- spawn t (server_loop t) srv;
    Mutex.unlock t.gm
  end

let deliver t (env : Transport.envelope) =
  match env.dest with
  | Transport.To_server i ->
      let srv = t.servers.(i) in
      if not (t.step_inline && try_step_inline t srv env.src env.payload)
      then begin
        (* [Socket] never routes a request here — children serve
           them — but a stray one waits in the mailbox harmlessly *)
        Atomic.incr srv.backlog;
        Mailbox.push srv.mailbox (env.src, env.payload);
        if t.step_inline then ensure_server t srv
      end
  | Transport.To_client c -> dispatch_to_client t c env.payload

(* --- construction ------------------------------------------------------ *)

let create ?sched ?(sink = Sink.none) cfg =
  if cfg.n <= 0 then invalid_arg "Cluster.create: n must be positive";
  if not (cfg.op_timeout_s > 0.0) then
    invalid_arg "Cluster.create: op_timeout_s must be positive";
  Option.iter Retry.validate cfg.retry;
  Option.iter Hedge.validate_config cfg.hedge;
  Option.iter Deadline.validate_config cfg.deadline;
  let servers =
    Array.init cfg.n (fun sid ->
        {
          sid;
          store = Proto.store_create ();
          mailbox = Mailbox.create ?sched ();
          backlog = Atomic.make 0;
          xm = Mutex.create ();
          sm = Mutex.create ();
          sc = Condition.create ();
          up = true;
          closing = false;
          sthread = None;
        })
  in
  let backend = Transport.effective_backend ?sched cfg.transport in
  let t =
    {
      cfg;
      sched;
      backend;
      step_inline = Option.is_none sched && backend = Transport.Threads;
      inline_steps = Atomic.make 0;
      sink;
      ctl = Sink.recorder sink ~name:"cluster";
      alarm = None;
      servers;
      clients = [||];
      gm = Mutex.create ();
      rid = Atomic.make 0;
      log = Histlog.create ();
      transport = None;
      heartbeat = None;
      pacer = None;
      running = false;
      shut = false;
      threads_started = 0;
      crashes = 0;
      restarts = 0;
      wipes = 0;
      retries =
        Sink.counter sink ~help:"client retransmissions" "client.retries";
      unavailable =
        Sink.counter sink ~help:"operations failed fast as Unavailable"
          "client.unavailable";
      health = Array.init cfg.n (fun _ -> Atomic.make 0.0);
      hedge_sent =
        Sink.counter sink ~help:"hedged retransmissions to deferred replicas"
          "client.hedge_sent";
      hedge_won =
        Sink.counter sink ~help:"replies from hedged requests that counted"
          "client.hedge_won";
      backoff_hist =
        Sink.histogram sink ~unit_:"ms"
          ~help:"retransmission backoff at each resend" ~edges:backoff_edges_ms
          "client.backoff_ms";
    }
  in
  t.transport <-
    Some
      (Transport.create ?sched ~sink
         ~server_regs:(fun s ->
           if s >= 0 && s < cfg.n then Proto.num_regs servers.(s).store else 0)
         cfg.transport ~servers:cfg.n ~deliver:(deliver t));
  Sink.gauge_fn sink ~help:"operations invoked" "ops.invoked" (fun () ->
      Histlog.invoked t.log);
  Sink.gauge_fn sink ~help:"operations completed" "ops.completed" (fun () ->
      Histlog.completed t.log);
  Sink.gauge_fn sink ~help:"messages enqueued to server mailboxes"
    "mailbox.pushed" (fun () ->
      Array.fold_left (fun a s -> a + Mailbox.pushed s.mailbox) 0 t.servers);
  Sink.gauge_fn sink ~help:"messages drained from server mailboxes"
    "mailbox.popped" (fun () ->
      Array.fold_left (fun a s -> a + Mailbox.popped s.mailbox) 0 t.servers);
  Sink.gauge_fn sink
    ~help:"requests stepped on their delivering thread, bypassing the mailbox"
    "server.inline_steps" (fun () -> Atomic.get t.inline_steps);
  Sink.gauge_fn sink ~help:"server crashes injected" "cluster.crashes"
    (fun () -> t.crashes);
  Sink.gauge_fn sink ~help:"server restarts" "cluster.restarts" (fun () ->
      t.restarts);
  Sink.gauge_fn sink ~help:"amnesia restarts that wiped a store"
    "cluster.wipes" (fun () -> t.wipes);
  Sink.gauge_fn sink
    ~help:"resident register cells, max over servers (space axis)"
    "store.resident_cells" (fun () ->
      Array.fold_left
        (fun a s -> max a (Proto.resident_cells s.store))
        0 t.servers);
  Sink.gauge_fn sink
    ~help:"resident cell bytes (canonical encoding), max over servers"
    "store.resident_bytes" (fun () ->
      Array.fold_left
        (fun a s -> max a (Proto.resident_bytes s.store))
        0 t.servers);
  Sink.gauge_fn sink
    ~help:"adaptive per-op deadline, microseconds (max over clients)"
    "client.deadline_estimate_us" (fun () ->
      Array.fold_left
        (fun acc cl ->
          match cl.dl with
          | Some dl -> max acc (int_of_float (Deadline.estimate_s dl *. 1e6))
          | None -> acc)
        0 t.clients);
  t

let num_servers t = t.cfg.n
let recovery_mode t = t.cfg.recovery

let new_client t =
  Mutex.lock t.gm;
  let ix = Array.length t.clients in
  let id = Id.Client.of_int ix in
  let cl =
    {
      id;
      crec = Sink.recorder t.sink ~name:("client-" ^ string_of_int ix);
      op_live = false;
      cm = Mutex.create ();
      owner = -1;
      cc = Condition.create ();
      handlers = Hashtbl.create 32;
      pending = Hashtbl.create 32;
      crng =
        Regemu_sim.Rng.create (t.cfg.transport.Transport.seed + (7919 * ix));
      hlog = Histlog.new_writer t.log ~client:id;
      dl =
        (* the estimator also runs when only hedging is on: the hedge
           delay keys off the same observed-latency state *)
        (match (t.cfg.deadline, t.cfg.hedge) with
        | Some dcfg, _ -> Some (Deadline.create dcfg)
        | None, Some _ -> Some (Deadline.create Deadline.default_config)
        | None, None -> None);
      hedge = None;
      op_t0 = 0.0;
      waiting = false;
      pred = None;
    }
  in
  t.clients <- Array.append t.clients [| cl |];
  Mutex.unlock t.gm;
  cl

let client_id cl = cl.id

let alloc_reg t ~server =
  if server < 0 || server >= t.cfg.n then invalid_arg "Cluster: unknown server";
  Proto.alloc_reg t.servers.(server).store

(* --- client primitives -------------------------------------------------- *)

let fresh_rid t = Atomic.fetch_and_add t.rid 1

let locked cl f =
  lock_client cl;
  Fun.protect ~finally:(fun () -> unlock_client cl) f

let check_server t i =
  if i < 0 || i >= t.cfg.n then invalid_arg "Cluster: unknown server"

(* fold one observed reply latency into a server's health EWMA *)
let health_alpha = 0.2

let note_health t server lat =
  let cell = t.health.(server) in
  let prev = Atomic.get cell in
  Atomic.set cell
    (if prev <= 0.0 then lat
     else ((1.0 -. health_alpha) *. prev) +. (health_alpha *. lat))

(* raise a server's health score to at least [lat] — for lower-bound
   evidence (a reply that never came), where an EWMA fold of a small
   bound would wrongly signal speed *)
let penalize_health t server lat =
  let cell = t.health.(server) in
  if lat > Atomic.get cell then Atomic.set cell lat

let server_health t ~server =
  check_server t server;
  Atomic.get t.health.(server)

let rpc t ~src:cl ?(sticky = false) server ~make ~handler =
  check_server t server;
  let rid = fresh_rid t in
  let payload = make rid in
  let handler =
    match cl.dl with
    | None -> handler
    | Some dl ->
        (* reply latency includes any retransmission gap — that is the
           latency the operation actually experienced.  Handlers run
           under [cl.cm], so [observe] is serialized. *)
        let sent_at = Clock.now_s () in
        fun reply ->
          let lat = Clock.now_s () -. sent_at in
          Deadline.observe dl lat;
          note_health t server lat;
          handler reply
  in
  Hashtbl.replace cl.handlers rid (fun reply ->
      Hashtbl.remove cl.pending rid;
      handler reply);
  (match t.cfg.retry with
  | Some rcfg ->
      Hashtbl.replace cl.pending rid
        (Retry.make rcfg ~now:(Clock.now_s ()) ~server ~sticky payload)
  | None -> ());
  if Sink.sample_msg cl.crec then
    Sink.instant cl.crec ~cat:"msg"
      ~args:
        [
          ("rid", Sink.Event.I rid);
          ("server", Sink.Event.I server);
          ("sticky", Sink.Event.B sticky);
        ]
      "rpc";
  Transport.send (transport t)
    {
      Transport.src = Id.Client.to_int cl.id;
      dest = Transport.To_server server;
      payload;
    }

(* caller holds [cl.cm]; a hedge armed for the finished round dies
   with it *)
let clear_round_pendings cl =
  cl.hedge <- None;
  let stale =
    Hashtbl.fold
      (fun rid (p : Retry.pending) acc ->
        if p.Retry.sticky then acc else rid :: acc)
      cl.pending []
  in
  List.iter (Hashtbl.remove cl.pending) stale

(* send the deferred half of a hedged round; caller holds [cl.cm].
   A hedge firing is a control event like a retransmission: always
   recorded, never sampled away. *)
let fire_hedge t cl hp =
  cl.hedge <- None;
  List.iter
    (fun server ->
      Atomic.incr t.hedge_sent;
      Sink.instant cl.crec ~cat:"hedge"
        ~args:[ ("server", Sink.Event.I server) ]
        "hedge";
      rpc t ~src:cl server ~make:hp.h_make ~handler:(fun reply ->
          Atomic.incr t.hedge_won;
          (* A won hedge is health evidence: every server still pending
             has now been outrun by a request sent a whole hedge delay
             later, and has been silent since the round was armed —
             a lower bound on the latency it is inflicting.  Replies
             landing after the round completes are dropped unmatched,
             so without this penalty a straggler that never beats the
             round's end would keep a pristine health score — and keep
             being picked.  [penalize_health] is a max, not an EWMA
             fold: a lower bound must never drag an estimate down. *)
          let late = Clock.now_s () -. hp.h_armed in
          Hashtbl.iter
            (fun _rid (p : Retry.pending) ->
              if not p.Retry.sticky then penalize_health t p.Retry.server late)
            cl.pending;
          hp.h_handler reply))
    hp.h_servers

(* caller holds [cl.cm] *)
let fire_due_hedge t cl now =
  match cl.hedge with
  | Some hp when now >= hp.h_due -> fire_hedge t cl hp
  | _ -> ()

(* --- background threads --------------------------------------------------- *)

let heartbeat_loop t alarm =
  (* periodically wake awaiting clients so deadlines and due
     retransmissions are checked even when no reply arrives; clients
     not blocked in [await] are skipped.  The sleep is an {!Alarm}
     wait, not [Thread.delay]: {!shutdown} rings it, so stopping never
     pays the period as a tail. *)
  while t.running do
    Alarm.wait alarm 0.05;
    if t.running then
      Array.iter
        (fun cl ->
          if cl.waiting then begin
            Mutex.lock cl.cm;
            if cl.waiting then Condition.signal cl.cc;
            Mutex.unlock cl.cm
          end)
        t.clients
  done

(* the hedge timer (threaded mode only): hedge delays sit well under
   the 50ms heartbeat, so due hedges get their own fine-grained scan.
   The unlocked [cl.hedge] peek is a benign race — the armed/not-armed
   decision is re-made under the client mutex. *)
let pacer_loop t alarm (h : Hedge.config) =
  while t.running do
    Alarm.wait alarm h.Hedge.tick_s;
    if t.running then
      Array.iter
        (fun cl ->
          match cl.hedge with
          | None -> ()
          | Some _ ->
              lock_client cl;
              fire_due_hedge t cl (Clock.now_s ());
              unlock_client cl)
        t.clients
  done

(* the alarm the heartbeat and pacer sleep on, opened by the first of
   them to start, under [gm]: a run that parks no client and arms no
   hedge opens no pipe *)
let alarm t =
  match t.alarm with
  | Some a -> a
  | None ->
      let a = Alarm.create () in
      t.alarm <- Some a;
      a

(* the heartbeat, at the first client that parks; it and the pacer
   loop only while [running], so neither starts before {!start} *)
let ensure_heartbeat t =
  if Option.is_none t.heartbeat then begin
    Mutex.lock t.gm;
    if Option.is_none t.heartbeat && t.running then
      t.heartbeat <- spawn t (heartbeat_loop t) (alarm t);
    Mutex.unlock t.gm
  end

(* the hedge pacer, at the first armed hedge *)
let ensure_pacer t h =
  if Option.is_none t.pacer then begin
    Mutex.lock t.gm;
    if Option.is_none t.pacer && t.running then
      t.pacer <- spawn t (pacer_loop t (alarm t)) h;
    Mutex.unlock t.gm
  end

let rpc_quorum t ~src:cl ~quorum ~make ~handler replicas =
  match t.cfg.hedge with
  | None -> List.iter (fun s -> rpc t ~src:cl s ~make ~handler) replicas
  | Some h ->
      (* health-biased, seeded-rotation subset: contact quorum+spares
         now, arm the rest behind the adaptive hedge delay *)
      let n = List.length replicas in
      let rot = if n = 0 then 0 else Regemu_sim.Rng.int cl.crng ~bound:n in
      let health s = Atomic.get t.health.(s) in
      let initial, deferred = Hedge.select h ~rot ~health ~quorum replicas in
      List.iter (fun s -> rpc t ~src:cl s ~make ~handler) initial;
      if deferred <> [] && h.Hedge.fire then begin
        (* key the hedge delay off the EWMA (typical latency), not
           [latency_s]'s tail quantile: one straggler-inflated sample
           would otherwise hold the quantile — and with it the hedge
           delay — above the very stall the hedge exists to cut short *)
        let latency_s =
          match cl.dl with Some dl -> Deadline.ewma dl | None -> 0.0
        in
        let now = Clock.now_s () in
        cl.hedge <-
          Some
            {
              h_armed = now;
              h_due = now +. Hedge.delay_s h ~latency_s;
              h_servers = deferred;
              h_make = make;
              h_handler = handler;
            };
        (* under a scheduler the awaiting client is its own hedge timer *)
        if Option.is_none t.sched then ensure_pacer t h
      end

let start t =
  t.running <- true;
  (match t.sched with
  | None -> ()  (* threads start on first use *)
  | Some hook ->
      Array.iter
        (fun srv ->
          hook.spawn ~name:("server-" ^ string_of_int srv.sid) (fun () ->
              server_loop t srv))
        t.servers);
  (* no heartbeat or pacer under a scheduler: [await] parks with a
     timeout instead (shortened to an armed hedge's due time), so
     deadline, retransmission, and hedge checks run off virtual time
     rather than off polling threads *)
  Transport.start (transport t)

let note_retry t backoff_s =
  Atomic.incr t.retries;
  Sink.Metrics.observe t.backoff_hist (int_of_float (backoff_s *. 1e3))

(* caller holds [cl.cm] *)
let retransmit_due t cl now =
  match t.cfg.retry with
  | None -> ()
  | Some rcfg ->
      let due =
        Hashtbl.fold
          (fun _rid (p : Retry.pending) acc ->
            if Retry.due rcfg cl.crng ~now p then p :: acc else acc)
          cl.pending []
      in
      List.iter
        (fun (p : Retry.pending) ->
          note_retry t p.Retry.backoff_s;
          (* a retransmission is a control event: always recorded *)
          Sink.instant cl.crec ~cat:"retry"
            ~args:
              [
                ("rid", Sink.Event.I (Proto.rid_of p.Retry.payload));
                ("server", Sink.Event.I p.Retry.server);
                ( "backoff_ms",
                  Sink.Event.I (int_of_float (p.Retry.backoff_s *. 1e3)) );
              ]
            "retry";
          Transport.send (transport t)
            {
              Transport.src = Id.Client.to_int cl.id;
              dest = Transport.To_server p.Retry.server;
              payload = p.Retry.payload;
            })
        due

let is_reachable t i =
  check_server t i;
  let srv = t.servers.(i) in
  Mutex.lock srv.sm;
  let up = srv.up in
  Mutex.unlock srv.sm;
  up && Transport.reachable (transport t) ~server:i

let fail_unavailable t cl ~cause ~elapsed ~reachable ~required =
  Atomic.incr t.unavailable;
  Sink.instant cl.crec ~cat:"op"
    ~args:
      [
        ("cause", Sink.Event.S (Fmt.str "%a" cause_pp cause));
        ("elapsed_ms", Sink.Event.I (int_of_float (elapsed *. 1e3)));
        ("reachable", Sink.Event.I reachable);
        ("required", Sink.Event.I required);
      ]
    "unavailable";
  raise
    (Unavailable
       { client = cl.id; cause; elapsed_s = elapsed; reachable; required })

(* The per-op deadline: the static retry budget, tightened to the
   adaptive estimate when the estimator is enabled and has evidence.
   Caller holds [cl.cm]. *)
let effective_deadline_s t cl (rcfg : Retry.config) =
  match (t.cfg.deadline, cl.dl) with
  | Some _, Some dl -> Float.min rcfg.Retry.deadline_s (Deadline.estimate_s dl)
  | _ -> rcfg.Retry.deadline_s

let await_body t cl ?need pred =
  let t_enter = Clock.now_s () in
  let op_t0 = if cl.op_t0 > 0.0 then cl.op_t0 else t_enter in
  let hard_deadline = t_enter +. t.cfg.op_timeout_s in
  locked cl (fun () ->
      let rec go () =
        if pred () then clear_round_pendings cl
        else begin
          let now = Clock.now_s () in
          retransmit_due t cl now;
          fire_due_hedge t cl now;
          (* a resend may have completed the round in place, on this
             thread: no waker will signal it *)
          if pred () then clear_round_pendings cl else park now
        end
      and park now =
        (match t.cfg.retry with
        | None -> ()
        | Some rcfg ->
            if now -. op_t0 > effective_deadline_s t cl rcfg then begin
              clear_round_pendings cl;
              let reachable, required =
                match need with
                | None -> (0, 0)
                | Some (servers, q) ->
                    (List.length (List.filter (is_reachable t) servers), q)
              in
              fail_unavailable t cl ~cause:Deadline_exceeded
                ~elapsed:(now -. op_t0) ~reachable ~required
            end
            else
              match need with
              | Some (servers, required)
                when now -. t_enter > rcfg.Retry.grace_s ->
                  let reachable =
                    List.length (List.filter (is_reachable t) servers)
                  in
                  if reachable < required then begin
                    clear_round_pendings cl;
                    fail_unavailable t cl ~cause:Quorum_lost
                      ~elapsed:(now -. op_t0) ~reachable ~required
                  end
              | _ -> ());
        if now > hard_deadline then
          raise
            (Timeout
               (Fmt.str "client %a: no quorum within %.1fs" Id.Client.pp
                  cl.id t.cfg.op_timeout_s));
        (* [cm] is released while parked: so is its ownership *)
        cl.owner <- -1;
        (match t.sched with
        | None ->
            ensure_heartbeat t;
            cl.waiting <- true;
            cl.pred <- Some pred;
            Fun.protect
              ~finally:(fun () ->
                cl.waiting <- false;
                cl.pred <- None)
              (fun () -> Condition.wait cl.cc cl.cm)
        | Some hook ->
            (* park on the scheduler; the timeout stands in for the
               heartbeat so retransmissions and deadlines are still
               checked when no reply flips the predicate.  An armed
               hedge shortens the park so it fires on time (there is
               no pacer thread under the scheduler — the awaiting
               client is its own timer, in virtual time). *)
            let timeout_s =
              match cl.hedge with
              | Some hp -> Float.max 1e-4 (Float.min 0.05 (hp.h_due -. now))
              | None -> 0.05
            in
            hook.suspend ~timeout_s ~mutex:cl.cm pred);
        cl.owner <- self_id ();
        go ()
      in
      go ())

let await t cl ?need pred =
  if not cl.op_live then await_body t cl ?need pred
  else begin
    (* nest a quorum-wait span inside the sampled op's span; closed on
       the exceptional paths too, so span bracketing stays balanced *)
    Sink.span_begin cl.crec ~cat:"op" "await";
    Fun.protect
      ~finally:(fun () -> Sink.span_end cl.crec ~cat:"op" "await")
      (fun () -> await_body t cl ?need pred)
  end

let exn_label = function
  | Unavailable _ -> "unavailable"
  | Timeout _ -> "timeout"
  | e -> Printexc.exn_slot_name e

type call = Value.t

let invoke _t cl ?key hop body =
  cl.op_t0 <- Clock.now_s ();
  let ticket = Histlog.invoke cl.hlog ?key hop in
  let sampled = Sink.sample_op cl.crec in
  let name =
    match hop with Regemu_sim.Trace.H_write _ -> "write" | H_read -> "read"
  in
  if sampled then begin
    cl.op_live <- true;
    let args =
      match hop with
      | Regemu_sim.Trace.H_write v ->
          [ ("value", Sink.Event.S (Value.to_string v)) ]
      | H_read -> []
    in
    Sink.span_begin cl.crec ~cat:"op" ~args name
  end;
  (* the span closes before the log completes the ticket: a checker
     pass that falls due runs there, on this thread, and is not the
     operation's time *)
  match body () with
  | v ->
      if sampled then begin
        cl.op_live <- false;
        Sink.span_end cl.crec ~cat:"op"
          ~args:[ ("result", Sink.Event.S (Value.to_string v)) ]
          name
      end;
      Histlog.return ticket v;
      v
  | exception e ->
      (* the ticket is aborted: in flight for good for the checker (its
         effect may still land), but no longer a cell to re-poll; the
         span still closes, labelled with how the operation escaped *)
      if sampled then begin
        cl.op_live <- false;
        Sink.span_end cl.crec ~cat:"op"
          ~args:[ ("outcome", Sink.Event.S (exn_label e)) ]
          name
      end;
      Histlog.abort ticket;
      raise e

(* --- failures ----------------------------------------------------------- *)

let crash t i =
  check_server t i;
  let srv = t.servers.(i) in
  Mutex.lock srv.sm;
  let was_up = srv.up in
  srv.up <- false;
  Mutex.unlock srv.sm;
  if was_up then begin
    (* tell the fabric too: [Socket] SIGKILLs the child process;
       [Threads] ignores it (the mailbox gates) *)
    Transport.set_server_up (transport t) ~server:i false;
    Mutex.lock t.gm;
    t.crashes <- t.crashes + 1;
    Mutex.unlock t.gm;
    Sink.instant t.ctl ~cat:"fault"
      ~args:[ ("server", Sink.Event.I i) ]
      "crash"
  end

let restart t i =
  check_server t i;
  let srv = t.servers.(i) in
  (* the execution lock keeps a wipe from interleaving a step *)
  Mutex.lock srv.xm;
  Mutex.lock srv.sm;
  let was_down = not srv.up in
  if
    was_down
    && t.cfg.recovery = Recovery.Amnesia
    && t.backend <> Transport.Socket
  then
    (* a diskless reboot: the server comes back with an empty store.
       [Socket] skips the wipe — its restart execs a fresh process, so
       recovery is amnesiac by construction, and the parent-side store
       must keep its register count for [Ensure_regs] forwarding. *)
    Proto.reset srv.store;
  srv.up <- true;
  Condition.broadcast srv.sc;
  Mutex.unlock srv.sm;
  Mutex.unlock srv.xm;
  if was_down then begin
    let wiped =
      t.cfg.recovery = Recovery.Amnesia || t.backend = Transport.Socket
    in
    Transport.set_server_up (transport t) ~server:i true;
    Mutex.lock t.gm;
    t.restarts <- t.restarts + 1;
    if wiped then t.wipes <- t.wipes + 1;
    Mutex.unlock t.gm;
    Sink.instant t.ctl ~cat:"fault"
      ~args:
        [ ("server", Sink.Event.I i); ("wiped", Sink.Event.B wiped) ]
      "restart"
  end

let is_up t i =
  check_server t i;
  let srv = t.servers.(i) in
  Mutex.lock srv.sm;
  let v = srv.up in
  Mutex.unlock srv.sm;
  v

let crashed_count t =
  let n = ref 0 in
  Array.iteri (fun i _ -> if not (is_up t i) then incr n) t.servers;
  !n

(* --- nemesis passthroughs ----------------------------------------------- *)

let split t ~groups ~clients_with =
  List.iter (List.iter (check_server t)) groups;
  Transport.split (transport t) ~groups ~clients_with;
  Sink.instant t.ctl ~cat:"fault"
    ~args:
      [
        ( "groups",
          Sink.Event.S
            (Fmt.str "%a" Fmt.(list ~sep:(any "|") (list ~sep:comma int)) groups)
        );
        ("clients_with", Sink.Event.I clients_with);
      ]
    "partition"

let heal t =
  Transport.heal (transport t);
  Sink.instant t.ctl ~cat:"fault" "heal"

let set_drop t ?requests ?replies () =
  Transport.set_drop (transport t) ?requests ?replies ();
  Sink.instant t.ctl ~cat:"fault"
    ~args:
      (List.filter_map
         (fun (k, v) -> Option.map (fun p -> (k, Sink.Event.F p)) v)
         [ ("requests", requests); ("replies", replies) ])
    "set-drop"

let set_slow t ~server us =
  check_server t server;
  Transport.set_slow (transport t) ~server us;
  Sink.instant t.ctl ~cat:"fault"
    ~args:[ ("server", Sink.Event.I server); ("slow_us", Sink.Event.I us) ]
    "set-slow"

let slow_us t ~server = Transport.slow_us (transport t) ~server

let freeze t ~server =
  check_server t server;
  Transport.freeze (transport t) ~server;
  Sink.instant t.ctl ~cat:"fault"
    ~args:[ ("server", Sink.Event.I server) ]
    "freeze"

let thaw t ~server =
  check_server t server;
  Transport.thaw (transport t) ~server;
  Sink.instant t.ctl ~cat:"fault"
    ~args:[ ("server", Sink.Event.I server) ]
    "thaw"

let frozen t ~server = Transport.frozen (transport t) ~server

let heal_gray t =
  Transport.heal_gray (transport t);
  Sink.instant t.ctl ~cat:"fault" "heal-gray"

(* --- observation -------------------------------------------------------- *)

let log t = t.log

type stats = {
  msgs_sent : int;
  msgs_delivered : int;
  msgs_duplicated : int;
  msgs_delayed : int;
  msgs_slowed : int;
  msgs_dropped : int;
  msgs_cut : int;
  crashes : int;
  restarts : int;
  wipes : int;
  retries : int;
  unavailable : int;
  hedges : int;
  hedge_wins : int;
  inline_steps : int;
  threads_started : int;
  ops_completed : int;
}

let stats t =
  let tr = transport t in
  Mutex.lock t.gm;
  let crashes = t.crashes and restarts = t.restarts and wipes = t.wipes in
  let threads_started = t.threads_started in
  Mutex.unlock t.gm;
  {
    msgs_sent = Transport.sent tr;
    msgs_delivered = Transport.delivered tr;
    msgs_duplicated = Transport.duplicated tr;
    msgs_delayed = Transport.delayed tr;
    msgs_slowed = Transport.slowed tr;
    msgs_dropped = Transport.dropped tr;
    msgs_cut = Transport.cut tr;
    crashes;
    restarts;
    wipes;
    retries = Atomic.get t.retries;
    unavailable = Atomic.get t.unavailable;
    hedges = Atomic.get t.hedge_sent;
    hedge_wins = Atomic.get t.hedge_won;
    inline_steps = Atomic.get t.inline_steps;
    threads_started = threads_started + Transport.threads_started tr;
    ops_completed = Histlog.completed t.log;
  }

let backoff_histogram t =
  let counts = Sink.Metrics.hist_buckets t.backoff_hist in
  Array.to_list
    (Array.mapi
       (fun i c ->
         ((if i < Array.length backoff_edges_ms then backoff_edges_ms.(i)
           else max_int),
          c))
       counts)

let peek_reg t ~server reg =
  check_server t server;
  Proto.peek_reg t.servers.(server).store reg

let server_num_keys t ~server =
  check_server t server;
  Proto.num_keys t.servers.(server).store

let peek_slot t ~server slot =
  check_server t server;
  Proto.peek_slot t.servers.(server).store slot

let server_resident_cells t ~server =
  check_server t server;
  Proto.resident_cells t.servers.(server).store

let server_resident_bytes t ~server =
  check_server t server;
  Proto.resident_bytes t.servers.(server).store

(* On the [Socket] backend only the parent-side mirror store is
   visible here (children own the real ones), so resident space reads
   as the parent's view: allocated plain cells, nothing touched by
   traffic.  The space benches therefore report on [Threads]. *)
let resident_space t =
  Array.fold_left
    (fun (cells, bytes, total) srv ->
      let c = Proto.resident_cells srv.store in
      ( max cells c,
        max bytes (Proto.resident_bytes srv.store),
        total + c ))
    (0, 0, 0) t.servers

(* --- teardown ----------------------------------------------------------- *)

let shutdown t =
  Mutex.lock t.gm;
  let first = not t.shut in
  t.shut <- true;
  t.running <- false;
  Mutex.unlock t.gm;
  (* from here no thread starts and no alarm opens: join the threads
     that did start *)
  if first then begin
    (* interrupt the periodic sleeps: joining must not wait out a tick *)
    Option.iter Alarm.ring t.alarm;
    Option.iter Thread.join t.heartbeat;
    t.heartbeat <- None;
    Option.iter Thread.join t.pacer;
    t.pacer <- None;
    (* wake crashed servers and tell every server loop to exit *)
    Array.iter
      (fun srv ->
        Mutex.lock srv.sm;
        srv.closing <- true;
        Condition.broadcast srv.sc;
        Mutex.unlock srv.sm;
        Mailbox.close srv.mailbox)
      t.servers;
    Transport.stop (transport t);
    Array.iter
      (fun srv ->
        Option.iter Thread.join srv.sthread;
        srv.sthread <- None)
      t.servers;
    Option.iter Alarm.close t.alarm
  end
