(* The [Domains] backend: each server's lane is an OCaml 5 [Domain.t]
   draining a lock-free MPSC ring ({!Mpsc}), plus one lane for
   client-bound replies.  A send is one atomic exchange — no mutex, no
   condvar, no courier handoff — and a server lane's domain both runs
   the fault decision on the requests it drains and executes the
   server itself: the delivering domain IS the server's execution
   context, so a request costs one cross-domain push where the
   threaded backend pays a lane handoff plus a mailbox handoff.

   A reply runs its fault decision on the sending thread — in a
   cluster, the replying server's own domain, so the server's lane rng
   it draws from still has one user — and serves its hold there before
   it reaches the client lane.  So a slow server holds its own replies and nobody
   else's; the client lane only reorders and delivers.  A request's
   hold is served head-of-line in its server's lane, which preserves
   per-destination FIFO.

   Crash gating: a server lane parks while its server is down
   ([set_server_up]) or frozen, so messages to a crashed-but-reachable
   server wait in the ring — the asynchronous model's treatment of
   crashes, same as the mailbox of the threaded backend. *)

open Transport_intf

type lane = {
  lserver : int option;  (* Some s: server [s]'s request lane *)
  q : envelope Mpsc.t;
  lrng : Regemu_sim.Rng.t;  (* consumer-domain private *)
  stash : envelope Ringbuf.t;  (* consumer-private batch/reorder buffer *)
  lrec : Sink.Trace.recorder option;
  mutable dom : unit Domain.t option;
}

type t = {
  ctl : control;
  lanes : lane array;  (* one per server + the client lane *)
  up : bool Atomic.t array;  (* per-server crash gate *)
}

(* how many envelopes a lane drains per wakeup *)
let batch_max = 32

let create ?(sink = Sink.none) cfg ~servers ~deliver =
  let lane_name i =
    if i < servers then "lane-s" ^ string_of_int i else "lane-client"
  in
  let lanes =
    Array.init (servers + 1) (fun i ->
        {
          lserver = (if i < servers then Some i else None);
          q = Mpsc.create ();
          lrng = Regemu_sim.Rng.create (cfg.seed + ((i + 1) * 0x9e3779b9));
          stash = Ringbuf.create ();
          lrec = Sink.recorder sink ~name:(lane_name i);
          dom = None;
        })
  in
  let ctl =
    control ~sink cfg ~servers ~deliver ~wake:(fun s -> Mpsc.wake lanes.(s).q)
  in
  { ctl; lanes; up = Array.init servers (fun _ -> Atomic.make true) }

(* a lane is gated while its server is crashed or frozen: it keeps
   accepting pushes but stops draining *)
let gated t lane =
  match lane.lserver with
  | None -> false
  | Some s ->
      (not (Atomic.get t.up.(s)))
      || frozen_of (Atomic.get t.ctl.state) ~server:s

let lane_loop t lane =
  let c = t.ctl in
  let out = hand c lane.lrec in
  (* a server lane decides its requests' faults; the client lane's
     replies were decided by their senders *)
  let pass =
    match lane.lserver with
    | Some _ ->
        fun st env -> forward c ~rng:lane.lrng ~lrec:lane.lrec st env out
    | None -> fun _ env -> out env
  in
  let ready () =
    Atomic.get c.stopped
    || ((not (Mpsc.is_empty lane.q)) && not (gated t lane))
  in
  while not (Atomic.get c.stopped) do
    if Mpsc.is_empty lane.q || gated t lane then Mpsc.park lane.q ~ready
    else begin
      (* drain a batch into the consumer-private stash, then deliver —
         in arrival order, or by seeded random pick under [reorder] *)
      let more = ref true in
      let n = ref 0 in
      while !more && !n < batch_max do
        match Mpsc.try_pop lane.q with
        | Some env ->
            Ringbuf.push lane.stash env;
            incr n
        | None -> more := false
      done;
      let st = Atomic.get c.state in
      while not (Ringbuf.is_empty lane.stash) do
        let len = Ringbuf.length lane.stash in
        let env =
          if c.cfg.reorder && len > 1 then
            Ringbuf.take_at lane.stash (Regemu_sim.Rng.int lane.lrng ~bound:len)
          else Ringbuf.pop lane.stash
        in
        pass st env
      done
    end
  done

let start t =
  Array.iter
    (fun lane -> lane.dom <- Some (Domain.spawn (fun () -> lane_loop t lane)))
    t.lanes

let send t env =
  let c = t.ctl in
  if not (Atomic.get c.stopped) then begin
    Atomic.incr c.sent;
    let lane = lane_for t.lanes env.dest in
    msg_point lane.lrec "send" env;
    match env.dest with
    | To_client _ when env.src >= 0 && env.src < c.nservers ->
        (* without reordering, a reply that finds the client lane empty
           skips the hop.  Replies from one server stay ordered; an
           inline reply can pass one a consumer has drained but not
           yet delivered, which only reorders replies — every layer
           above already tolerates that. *)
        forward c ~rng:t.lanes.(env.src).lrng ~lrec:lane.lrec
          (Atomic.get c.state) env (fun env ->
            if (not c.cfg.reorder) && Mpsc.is_empty lane.q then
              hand c lane.lrec env
            else Mpsc.push lane.q env)
    | To_server _ | To_client _ -> Mpsc.push lane.q env
  end

(* --- crash gating ------------------------------------------------------- *)

let set_server_up t ~server v =
  check_server t.ctl "set_server_up" server;
  Atomic.set t.up.(server) v;
  if v then Mpsc.wake t.lanes.(server).q

let stop t =
  Atomic.set t.ctl.stopped true;
  Array.iter (fun lane -> Mpsc.wake lane.q) t.lanes;
  Array.iter
    (fun lane ->
      Option.iter Domain.join lane.dom;
      lane.dom <- None)
    t.lanes

let lanes t = Array.length t.lanes
