(* The seeded in-process courier fabric — the [Threads] backend, and
   the only one the deterministic scheduler can drive.  This is the
   original Transport implementation, moved behind the backend seam
   unchanged: every lock, wakeup, and seeded draw happens in the same
   order as before, so DST digests and traced replays are preserved
   bit for bit. *)

open Transport_intf

(* One delivery lane: its own queue, lock, condvar, seeded RNG, and
   courier pool.  Sharding assigns each destination its own lane, so
   concurrent RPCs to different servers (and their replies) never
   contend on a common lock. *)
type lane = {
  lserver : int option;  (* Some s: this is server [s]'s request lane *)
  lm : Mutex.t;
  lc : Condition.t;
  buf : envelope Ringbuf.t;  (* protected by [lm] *)
  lrng : Regemu_sim.Rng.t;  (* protected by [lm] *)
  lrec : Sink.Trace.recorder option;  (* this lane's trace stream *)
  mutable inflight : int;  (* popped but not yet delivered; under [lm] *)
  mutable lthreads : Thread.t list;
}

type t = {
  cfg : config;
  sched : Sched_hook.t option;
  deliver : envelope -> unit;
  nservers : int;
  lanes : lane array;  (* sharded: one per server + a client lane *)
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

(* how many envelopes a courier drains per wakeup *)
let batch_max = 32

let make_lane ~seed ~sink ~name ~lserver i =
  {
    lserver;
    lm = Mutex.create ();
    lc = Condition.create ();
    buf = Ringbuf.create ();
    lrng = Regemu_sim.Rng.create (seed + ((i + 1) * 0x9e3779b9));
    lrec = Sink.recorder sink ~name;
    inflight = 0;
    lthreads = [];
  }

let create ?sched ?(sink = Sink.none) cfg ~servers ~deliver =
  validate_config cfg;
  if servers < 1 then invalid_arg "Transport.create: need >= 1 server";
  let num_lanes = if cfg.sharded then servers + 1 else 1 in
  let lane_name i =
    if num_lanes = 1 then "lane-all"
    else if i < servers then Fmt.str "lane-s%d" i
    else "lane-client"
  in
  {
    cfg;
    sched;
    deliver;
    nservers = servers;
    lanes =
      Array.init num_lanes (fun i ->
          let lserver =
            if cfg.sharded && i < servers then Some i else None
          in
          make_lane ~seed:cfg.seed ~sink ~name:(lane_name i) ~lserver i);
    state = Atomic.make (initial_state cfg);
    stopped = Atomic.make false;
    sent = Sink.counter sink ~help:"envelopes accepted for delivery" "transport.sent";
    duplicated = Sink.counter sink ~help:"envelopes duplicated in flight" "transport.duplicated";
    delayed = Sink.counter sink ~help:"envelopes held by a delivery delay" "transport.delayed";
    slowed = Sink.counter sink ~help:"envelopes held by a gray slow link" "transport.slowed";
    dropped = Sink.counter sink ~help:"envelopes lost to the drop rates" "transport.dropped";
    cut = Sink.counter sink ~help:"envelopes lost to a partition" "transport.cut";
    delivered = Sink.counter sink ~help:"envelopes handed to their destination" "transport.delivered";
  }

(* server lanes first, then the client lane; servers beyond the
   declared count (impossible through Cluster) fold into the client
   lane.  (Splitting the client lane into a hashed per-client pool was
   measured and is a wash on a single core: replies to different
   clients rarely collide for long, and the extra courier threads cost
   as much as the collisions.) *)
let lane_for t dest =
  if Array.length t.lanes = 1 then t.lanes.(0)
  else
    match dest with
    | To_server s when s >= 0 && s < t.nservers -> t.lanes.(s)
    | To_server _ | To_client _ -> t.lanes.(t.nservers)

(* a sampled message point event on a lane's recorder *)
let msg_point lane name env =
  if Sink.sample_msg lane.lrec then
    Sink.instant lane.lrec ~cat:"msg" ~args:(env_args env) name

(* pause a courier that drew a delivery delay — virtual time under DST *)
let courier_pause t s =
  match t.sched with None -> Thread.delay s | Some hook -> hook.sleep s

(* A frozen server lane stops draining: envelopes queue up exactly as
   they would behind a stuttering NIC.  Only sharded server lanes can
   freeze (the shared client/fallback lane carries everyone's traffic). *)
let lane_frozen t lane =
  match lane.lserver with
  | None -> false
  | Some s -> frozen_of (Atomic.get t.state) ~server:s

let rec courier_loop t lane =
  Mutex.lock lane.lm;
  (match t.sched with
  | None ->
      while
        (Ringbuf.is_empty lane.buf || lane_frozen t lane)
        && not (Atomic.get t.stopped)
      do
        Condition.wait lane.lc lane.lm
      done
  | Some hook -> (
      try
        hook.suspend ~mutex:lane.lm (fun () ->
            ((not (Ringbuf.is_empty lane.buf)) && not (lane_frozen t lane))
            || Atomic.get t.stopped)
      with exn ->
        (* scheduler teardown: the halt arrives with [lane.lm] re-held;
           release it, or the lane's other couriers wedge forever on a
           mutex owned by a finished thread *)
        Mutex.unlock lane.lm;
        raise exn));
  if Atomic.get t.stopped then Mutex.unlock lane.lm
  else begin
    (* drain a batch under one lock acquisition; fault decisions use
       the lane's own rng, so each lane is a deterministic stream.
       Gray slowness reads the state once per batch: a slow link adds
       a fixed per-envelope delay on top of any random delay drawn. *)
    let st = Atomic.get t.state in
    let n = min batch_max (Ringbuf.length lane.buf) in
    let prompt = ref [] and held = ref [] in
    for _ = 1 to n do
      let len = Ringbuf.length lane.buf in
      let env =
        if t.cfg.reorder && len > 1 then
          Ringbuf.take_at lane.buf (Regemu_sim.Rng.int lane.lrng ~bound:len)
        else Ringbuf.pop lane.buf
      in
      let delay_us =
        if hit lane.lrng t.cfg.delay_prob && t.cfg.max_delay_us > 0 then begin
          Atomic.incr t.delayed;
          let d = 1 + Regemu_sim.Rng.int lane.lrng ~bound:t.cfg.max_delay_us in
          if Sink.sample_msg lane.lrec then
            Sink.instant lane.lrec ~cat:"msg"
              ~args:(("delay_us", Sink.Event.I d) :: env_args env)
              "delay";
          d
        end
        else 0
      in
      let slow_us = slow_of st ~server:(link_server env) in
      if slow_us > 0 then begin
        Atomic.incr t.slowed;
        if Sink.sample_msg lane.lrec then
          Sink.instant lane.lrec ~cat:"msg"
            ~args:(("slow_us", Sink.Event.I slow_us) :: env_args env)
            "slow"
      end;
      let delay_us = delay_us + slow_us in
      if delay_us = 0 then prompt := env :: !prompt
      else held := (delay_us, env) :: !held
    done;
    lane.inflight <- lane.inflight + n;
    Mutex.unlock lane.lm;
    List.iter
      (fun env ->
        msg_point lane "recv" env;
        t.deliver env;
        Atomic.incr t.delivered)
      (List.rev !prompt);
    (* deliver the held envelopes in delay order, sleeping only the
       remaining gap — the courier holds exactly these messages while
       its lane's other couriers keep delivering past it *)
    let held =
      List.sort (fun (a, _) (b, _) -> Int.compare a b) (List.rev !held)
    in
    let slept = ref 0 in
    List.iter
      (fun (d, env) ->
        if d > !slept then begin
          courier_pause t (float_of_int (d - !slept) *. 1e-6);
          slept := d
        end;
        msg_point lane "recv" env;
        t.deliver env;
        Atomic.incr t.delivered)
      held;
    Mutex.lock lane.lm;
    lane.inflight <- lane.inflight - n;
    Mutex.unlock lane.lm;
    courier_loop t lane
  end

let start t =
  match t.sched with
  | None ->
      Array.iter
        (fun lane ->
          lane.lthreads <-
            List.init t.cfg.couriers (fun _ ->
                Thread.create (fun () -> courier_loop t lane) ()))
        t.lanes
  | Some hook ->
      Array.iteri
        (fun li lane ->
          for ci = 0 to t.cfg.couriers - 1 do
            hook.spawn
              ~name:(Fmt.str "courier-%d.%d" li ci)
              (fun () -> courier_loop t lane)
          done)
        t.lanes

let send t env =
  if not (Atomic.get t.stopped) then begin
    let st = Atomic.get t.state in
    let lane = lane_for t env.dest in
    if not (reachable_of st ~server:(link_server env)) then begin
      Atomic.incr t.cut;
      msg_point lane "cut" env
    end
    else begin
      let drop_p =
        if Regemu_netsim.Proto.is_reply env.payload then st.drop_replies
        else st.drop_requests
      in
      Mutex.lock lane.lm;
      if hit lane.lrng drop_p then begin
        Mutex.unlock lane.lm;
        Atomic.incr t.dropped;
        msg_point lane "drop" env
      end
      else begin
        let dup = hit lane.lrng t.cfg.dup_prob in
        (* fast path: an idle lane (nothing queued, nothing
           popped-but-undelivered) may deliver on the sending thread —
           two context switches fewer.  Without reordering the FIFO
           order is the same; with it, an idle lane holds nothing for
           this envelope to be reordered against.  A scheduled run
           keeps reorder-mode traffic on the courier actors, so the
           scheduler still picks every delivery order.  Any backlog or
           in-flight delayed message goes through the couriers. *)
        let inline_ok =
          ((not t.cfg.reorder) || Option.is_none t.sched)
          && t.cfg.delay_prob = 0.0
          && Ringbuf.is_empty lane.buf
          && lane.inflight = 0
          (* a slow or frozen link must queue so the couriers apply
             the gray delay (or hold the lane shut) *)
          && slow_of st ~server:(link_server env) = 0
          && not
               (match env.dest with
               | To_server s -> frozen_of st ~server:s
               | To_client _ -> false)
        in
        (* the points go out before the envelope can be delivered — on
           this thread or by a courier — so each rid's trace points
           stay in causal order even when deliveries nest *)
        Atomic.incr t.sent;
        msg_point lane "send" env;
        if dup then begin
          Atomic.incr t.sent;
          Atomic.incr t.duplicated;
          msg_point lane "dup" env
        end;
        if inline_ok then begin
          lane.inflight <- lane.inflight + 1;
          if dup then Ringbuf.push lane.buf env;
          if dup then Condition.signal lane.lc;
          Mutex.unlock lane.lm;
          msg_point lane "recv" env;
          t.deliver env;
          Atomic.incr t.delivered;
          Mutex.lock lane.lm;
          lane.inflight <- lane.inflight - 1;
          Mutex.unlock lane.lm
        end
        else begin
          Ringbuf.push lane.buf env;
          if dup then Ringbuf.push lane.buf env;
          Condition.signal lane.lc;
          if dup then Condition.signal lane.lc;
          Mutex.unlock lane.lm
        end
      end
    end
  end

(* --- hostile-network controls ------------------------------------------ *)

(* swap in a new state derived from the current one; sole writers are
   the nemesis thread, so a plain read-modify-write is enough *)
let update_state t f = Atomic.set t.state (f (Atomic.get t.state))

let split t ~groups ~clients_with =
  let h = groups_table ~groups ~clients_with in
  update_state t (fun st ->
      { st with groups = Some h; client_group = clients_with })

let heal t = update_state t (fun st -> { st with groups = None; client_group = 0 })

let set_drop t ?requests ?replies () =
  Option.iter (check_prob "requests") requests;
  Option.iter (check_prob "replies") replies;
  update_state t (fun st ->
      {
        st with
        drop_requests = Option.value ~default:st.drop_requests requests;
        drop_replies = Option.value ~default:st.drop_replies replies;
      })

let reachable t ~server = reachable_of (Atomic.get t.state) ~server

(* --- gray-failure controls --------------------------------------------- *)

let check_server t what server =
  if server < 0 || server >= t.nservers then
    invalid_arg
      (Fmt.str "Transport.%s: server %d out of range [0,%d)" what server
         t.nservers)

let set_slow t ~server us =
  check_server t "set_slow" server;
  if us < 0 then invalid_arg "Transport.set_slow: negative delay";
  update_state t (fun st ->
      { st with slow = with_cell st.slow t.nservers server us ~default:0 })

let slow_us t ~server =
  check_server t "slow_us" server;
  slow_of (Atomic.get t.state) ~server

let set_frozen t ~server v =
  update_state t (fun st ->
      { st with frozen = with_cell st.frozen t.nservers server v ~default:false });
  (* threaded couriers park on the lane condvar while frozen; wake them
     so the predicate is re-checked (the DST runner re-polls on its own) *)
  if not v then begin
    let lane = lane_for t (To_server server) in
    Mutex.lock lane.lm;
    Condition.broadcast lane.lc;
    Mutex.unlock lane.lm
  end

let freeze t ~server =
  check_server t "freeze" server;
  set_frozen t ~server true

let thaw t ~server =
  check_server t "thaw" server;
  set_frozen t ~server false

let frozen t ~server =
  check_server t "frozen" server;
  frozen_of (Atomic.get t.state) ~server

let heal_gray t =
  update_state t (fun st -> { st with slow = [||]; frozen = [||] });
  Array.iter
    (fun lane ->
      Mutex.lock lane.lm;
      Condition.broadcast lane.lc;
      Mutex.unlock lane.lm)
    t.lanes

let stop t =
  Atomic.set t.stopped true;
  Array.iter
    (fun lane ->
      Mutex.lock lane.lm;
      Ringbuf.clear lane.buf;
      Condition.broadcast lane.lc;
      Mutex.unlock lane.lm)
    t.lanes;
  Array.iter
    (fun lane ->
      List.iter Thread.join lane.lthreads;
      lane.lthreads <- [])
    t.lanes

let lanes t = Array.length t.lanes
let sent t = Atomic.get t.sent
let delivered t = Atomic.get t.delivered
let duplicated t = Atomic.get t.duplicated
let delayed t = Atomic.get t.delayed
let slowed t = Atomic.get t.slowed
let dropped t = Atomic.get t.dropped
let cut t = Atomic.get t.cut
