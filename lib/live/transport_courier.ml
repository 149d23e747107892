(* The seeded in-process courier fabric — the [Threads] backend, and
   the only one the deterministic scheduler can drive.  [send] admits
   an envelope under its lane's lock and the couriers draw its hold
   while draining, so every seeded draw, park and message event keeps
   the order DST digests and traced replays were recorded with. *)

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
      (* unscheduled: the couriers, started by the lane's first queued
         envelope; under [lm] *)
}

type t = {
  ctl : control;
  sched : Sched_hook.t option;
  lanes : lane array;  (* one per server + the client lane *)
  started : int Atomic.t;  (* courier threads started *)
  alarm : Alarm.t option Atomic.t;
      (* what a courier holding an envelope sleeps on, so {!stop} cuts
         the hold short; opened by the first hold *)
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

(* server [s]'s lane is [lanes.(s)]; the last lane carries the
   client-bound replies *)
let lane_for lanes dest =
  let last = Array.length lanes - 1 in
  match dest with
  | To_server s when s >= 0 && s < last -> lanes.(s)
  | To_server _ | To_client _ -> lanes.(last)

(* one lane per server, then the client lane ({!lane_for}).  No
   courier exists yet: a scheduled fabric spawns its actors at
   {!start}, an unscheduled lane starts its threads at its first
   queued envelope ({!enqueue}), so a lane whose sends all deliver
   inline never starts one.  (Splitting the client lane into a hashed
   per-client pool was measured and is a wash on a single core:
   replies to different clients rarely collide for long, and the extra
   courier threads cost as much as the collisions.) *)
let create ?sched ?(sink = Sink.none) cfg ~servers ~deliver =
  let lanes =
    Array.init (servers + 1) (fun i ->
        let lserver = if i < servers then Some i else None in
        let name =
          match lserver with
          | Some s -> "lane-s" ^ string_of_int s
          | None -> "lane-client"
        in
        make_lane ~seed:cfg.seed ~sink ~name ~lserver i)
  in
  (* threaded couriers park on the lane condvar while frozen; a thaw
     wakes them so the predicate is re-checked (the DST runner re-polls
     on its own) *)
  let wake s =
    let lane = lane_for lanes (To_server s) in
    Mutex.lock lane.lm;
    Condition.broadcast lane.lc;
    Mutex.unlock lane.lm
  in
  {
    ctl = control ~sink cfg ~servers ~deliver ~wake;
    sched;
    lanes;
    started = Atomic.make 0;
    alarm = Atomic.make None;
  }

(* the fabric's alarm, opened on first use: a build whose envelopes are
   never held opens no pipe.  An alarm opened after {!stop} read none is
   rung here, so no hold outlives the stop. *)
let alarm t =
  match Atomic.get t.alarm with
  | Some a -> a
  | None ->
      let a = Alarm.create () in
      if Atomic.compare_and_set t.alarm None (Some a) then begin
        if Atomic.get t.ctl.stopped then Alarm.ring a;
        a
      end
      else begin
        Alarm.close a;
        Option.get (Atomic.get t.alarm)
      end

(* pause a courier that drew a delivery delay — virtual time under DST,
   else until the delay passes or {!stop} rings *)
let courier_pause t s =
  match t.sched with
  | None -> Alarm.wait (alarm t) s
  | Some hook -> hook.sleep s

(* A frozen server lane stops draining: envelopes queue up exactly as
   they would behind a stuttering NIC.  Only server lanes freeze (the
   client lane carries every server's replies). *)
let lane_frozen t lane =
  match lane.lserver with
  | None -> false
  | Some s -> frozen_of (Atomic.get t.ctl.state) ~server:s

let rec courier_loop t lane =
  let c = t.ctl in
  Mutex.lock lane.lm;
  (match t.sched with
  | None ->
      while
        (Ringbuf.is_empty lane.buf || lane_frozen t lane)
        && not (Atomic.get c.stopped)
      do
        Condition.wait lane.lc lane.lm
      done
  | Some hook -> (
      try
        hook.suspend ~mutex:lane.lm (fun () ->
            ((not (Ringbuf.is_empty lane.buf)) && not (lane_frozen t lane))
            || Atomic.get c.stopped)
      with exn ->
        (* scheduler teardown: the halt arrives with [lane.lm] re-held;
           release it, or the lane's other couriers wedge forever on a
           mutex owned by a finished thread *)
        Mutex.unlock lane.lm;
        raise exn));
  if Atomic.get c.stopped then Mutex.unlock lane.lm
  else begin
    (* drain a batch under one lock acquisition, drawing each
       envelope's hold from the lane's own rng, so each lane is a
       deterministic stream.  Gray slowness reads the state once per
       batch. *)
    let st = Atomic.get c.state in
    let n = min batch_max (Ringbuf.length lane.buf) in
    let prompt = ref [] and held = ref [] in
    for _ = 1 to n do
      let len = Ringbuf.length lane.buf in
      let env =
        if c.cfg.reorder && len > 1 then
          Ringbuf.take_at lane.buf (Regemu_sim.Rng.int lane.lrng ~bound:len)
        else Ringbuf.pop lane.buf
      in
      let delay_us = hold c ~rng:lane.lrng ~lrec:lane.lrec st env in
      if delay_us = 0 then prompt := env :: !prompt
      else held := (delay_us, env) :: !held
    done;
    lane.inflight <- lane.inflight + n;
    Mutex.unlock lane.lm;
    List.iter (hand c lane.lrec) (List.rev !prompt);
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
        hand c lane.lrec env)
      held;
    Mutex.lock lane.lm;
    lane.inflight <- lane.inflight - n;
    Mutex.unlock lane.lm;
    courier_loop t lane
  end

(* The actor ids and spawn order of a scheduled run are part of every
   DST digest, so its couriers all spawn here; unscheduled threads wait
   for their lane's first queued envelope. *)
let start t =
  match t.sched with
  | None -> ()
  | Some hook ->
      Array.iteri
        (fun li lane ->
          for ci = 0 to t.ctl.cfg.couriers - 1 do
            hook.spawn
              ~name:("courier-" ^ string_of_int li ^ "." ^ string_of_int ci)
              (fun () -> courier_loop t lane)
          done)
        t.lanes

(* Queue [env] for the couriers; caller holds [lane.lm].  [stopped] is
   read under [lm], which {!stop} takes after setting it: a lane either
   starts its couriers before [stop] collects them or never starts
   them. *)
let enqueue t lane env =
  Ringbuf.push lane.buf env;
  Condition.signal lane.lc;
  if
    lane.lthreads = []
    && Option.is_none t.sched
    && not (Atomic.get t.ctl.stopped)
  then begin
    let couriers = t.ctl.cfg.couriers in
    lane.lthreads <-
      List.init couriers (fun _ ->
          Thread.create (fun () -> courier_loop t lane) ());
    ignore (Atomic.fetch_and_add t.started couriers)
  end

let send t env =
  let c = t.ctl in
  if not (Atomic.get c.stopped) then begin
    let st = Atomic.get c.state in
    let lane = lane_for t.lanes env.dest in
    Mutex.lock lane.lm;
    match admit c ~rng:lane.lrng ~lrec:lane.lrec st env with
    | Cut | Drop -> Mutex.unlock lane.lm
    | (Pass | Dup) as verdict ->
        let dup = verdict = Dup in
        (* fast path: an idle lane (nothing queued, nothing
           popped-but-undelivered) may deliver on the sending thread —
           two context switches fewer.  Without reordering the FIFO
           order is the same; with it, an idle lane holds nothing for
           this envelope to be reordered against.  A scheduled run
           keeps reorder-mode traffic on the courier actors, so the
           scheduler still picks every delivery order.  Any backlog or
           in-flight delayed message goes through the couriers. *)
        let inline_ok =
          ((not c.cfg.reorder) || Option.is_none t.sched)
          && c.cfg.delay_prob = 0.0
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
        Atomic.incr c.sent;
        msg_point lane.lrec "send" env;
        if dup then count_dup c lane.lrec env;
        if inline_ok then begin
          lane.inflight <- lane.inflight + 1;
          if dup then enqueue t lane env;
          Mutex.unlock lane.lm;
          hand c lane.lrec env;
          Mutex.lock lane.lm;
          lane.inflight <- lane.inflight - 1;
          Mutex.unlock lane.lm
        end
        else begin
          enqueue t lane env;
          if dup then enqueue t lane env;
          Mutex.unlock lane.lm
        end
  end

let stop t =
  Atomic.set t.ctl.stopped true;
  (* a courier holding an envelope hands it over now *)
  Option.iter Alarm.ring (Atomic.get t.alarm);
  let started =
    Array.map
      (fun lane ->
        Mutex.lock lane.lm;
        Ringbuf.clear lane.buf;
        Condition.broadcast lane.lc;
        let threads = lane.lthreads in
        lane.lthreads <- [];
        Mutex.unlock lane.lm;
        threads)
      t.lanes
  in
  Array.iter (List.iter Thread.join) started;
  Option.iter Alarm.close (Atomic.get t.alarm)

let lanes t = Array.length t.lanes
let threads_started t = Atomic.get t.started
