(* Split quorum rounds into stages by joining trace events on the
   request id, without any span inside the program beyond what its
   trace already records.

   Per rid the join reads four timestamps:
   - [rpc]: the client's "rpc" instant, taken before the send;
   - [req_recv]: the request lane's "recv" point (dest "s<i>"): the
     envelope is in the server's mailbox;
   - [reply_out]: the reply's first point on the client lane — "send",
     or "recv" when the courier fast path delivered it before the send
     point was emitted;
   - [reply_recv]: the client lane's "recv" point (dest "c<i>"): the
     reply handler has run.

   Each operation (a span the benchmark itself recorded around the
   call) is split into rounds.  When the client recorded [await] spans
   a round ends at its await's end and owns every rpc issued since the
   previous await ended; without await spans (the keyspace records
   none) a round ends at the first rpc issued after one of its replies
   arrived, and the last round at the operation's end.  A round's
   critical rid is the one whose reply arrived last before the round
   ended; its path [rpc -> req_recv -> reply_out -> reply_recv -> end]
   gives the request, step, reply and wake stages, and the rest of the
   operation is client time, so per operation the five stages add up
   to the operation's duration exactly. *)

module Event = Regemu_obs.Event

type op_span = { client : int; t0 : int64; t1 : int64 }

type rid_times = {
  mutable rpc : int64;
  mutable req_recv : int64;
  mutable reply_out : int64;
  mutable reply_recv : int64;
}

let unset = Int64.min_int
let is_set x = x <> unset

type t = {
  ops : int;  (** operations offered to the join *)
  joined : int;  (** operations whose every round joined *)
  rids : int;  (** rids with all four timestamps *)
  req_us : float array;  (** per rid: rpc -> req_recv *)
  step_us : float array;  (** per rid: req_recv -> reply_out *)
  reply_us : float array;  (** per rid: reply_out -> reply_recv *)
  await_us : float array;  (** per round: quorum wait *)
  wake_us : float array;  (** per round: critical reply -> round end *)
  op_us : float array;  (** per joined op: duration *)
  self_us : float array;  (** per joined op: duration minus its waits *)
  crit_client_us : float array;
  crit_req_us : float array;
  crit_step_us : float array;
  crit_reply_us : float array;
  crit_wake_us : float array;
}

let us a b = Int64.to_float (Int64.sub b a) /. 1e3

let int_arg args k =
  match List.assoc_opt k args with Some (Event.I i) -> Some i | _ -> None

let str_arg args k =
  match List.assoc_opt k args with Some (Event.S s) -> Some s | _ -> None

let client_of_recorder name =
  let p = "client-" in
  let lp = String.length p in
  if String.length name > lp && String.sub name 0 lp = p then
    int_of_string_opt (String.sub name lp (String.length name - lp))
  else None

type client_ev = Rpc of int | Await_begin | Await_end

let min_set cur ts = if is_set cur && Int64.compare cur ts <= 0 then cur else ts

(* Count the message points with a given name ("send", "rpc", ...)
   over every recorder. *)
let count_points events name =
  List.fold_left
    (fun acc (_, (e : Event.t)) ->
      if e.ph = Event.Instant && e.cat = "msg" && e.name = name then acc + 1
      else acc)
    0 events

let index events =
  let rids : (int, rid_times) Hashtbl.t = Hashtbl.create 4096 in
  let get rid =
    match Hashtbl.find_opt rids rid with
    | Some r -> r
    | None ->
        let r = { rpc = unset; req_recv = unset; reply_out = unset; reply_recv = unset } in
        Hashtbl.replace rids rid r;
        r
  in
  let per_client : (int, (int64 * client_ev) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let push_client c x =
    match Hashtbl.find_opt per_client c with
    | Some l -> l := x :: !l
    | None -> Hashtbl.replace per_client c (ref [ x ])
  in
  List.iter
    (fun (recorder, (e : Event.t)) ->
      match client_of_recorder recorder with
      | Some c -> (
          match (e.ph, e.cat, e.name) with
          | Event.Instant, "msg", "rpc" -> (
              match int_arg e.args "rid" with
              | Some rid ->
                  let r = get rid in
                  r.rpc <- min_set r.rpc e.ts_ns;
                  push_client c (e.ts_ns, Rpc rid)
              | None -> ())
          | Event.Begin, "op", "await" -> push_client c (e.ts_ns, Await_begin)
          | Event.End, "op", "await" -> push_client c (e.ts_ns, Await_end)
          | _ -> ())
      | None -> (
          if e.ph = Event.Instant && e.cat = "msg" then
            match (int_arg e.args "rid", str_arg e.args "dest") with
            | Some rid, Some dest when String.length dest > 0 -> (
                let r = get rid in
                match (dest.[0], e.name) with
                | 's', "recv" -> r.req_recv <- min_set r.req_recv e.ts_ns
                | 'c', ("send" | "recv") ->
                    r.reply_out <- min_set r.reply_out e.ts_ns;
                    if e.name = "recv" then
                      r.reply_recv <- min_set r.reply_recv e.ts_ns
                | _ -> ())
            | _ -> ()))
    events;
  let clients = Hashtbl.create 8 in
  Hashtbl.iter
    (fun c l ->
      let a = Array.of_list (List.rev !l) in
      Array.stable_sort (fun (x, _) (y, _) -> Int64.compare x y) a;
      Hashtbl.replace clients c a)
    per_client;
  (rids, clients)

type round = { rids : int list; start : int64; stop : int64 }

(* the rounds of one operation from its client's events inside [t0,t1] *)
let rounds_of rids evs ~t0 ~t1 =
  (* [evs] is sorted by time: binary-search the first event at or after
     [t0], then take events up to [t1] *)
  let lo = ref 0 and hi = ref (Array.length evs) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int64.compare (fst evs.(mid)) t0 < 0 then lo := mid + 1 else hi := mid
  done;
  let inside = ref [] and i = ref !lo in
  while !i < Array.length evs && Int64.compare (fst evs.(!i)) t1 <= 0 do
    inside := evs.(!i) :: !inside;
    incr i
  done;
  let inside = List.rev !inside in
  let has_awaits = List.exists (fun (_, e) -> e = Await_end) inside in
  if has_awaits then begin
    let acc = ref [] and cur = ref [] and start = ref unset in
    List.iter
      (fun (ts, e) ->
        match e with
        | Rpc rid -> cur := rid :: !cur
        | Await_begin -> start := ts
        | Await_end ->
            if is_set !start then
              acc := { rids = !cur; start = !start; stop = ts } :: !acc;
            cur := [];
            start := unset)
      inside;
    List.rev !acc
  end
  else begin
    let replied_by ts rid =
      match Hashtbl.find_opt rids rid with
      | Some r -> is_set r.reply_recv && Int64.compare r.reply_recv ts <= 0
      | None -> false
    in
    let acc = ref [] and cur = ref [] and start = ref unset in
    List.iter
      (fun (ts, e) ->
        match e with
        | Rpc rid ->
            if !cur <> [] && List.exists (replied_by ts) !cur then begin
              acc := { rids = !cur; start = !start; stop = ts } :: !acc;
              cur := []
            end;
            if !cur = [] then start := ts;
            cur := rid :: !cur
        | Await_begin | Await_end -> ())
      inside;
    if !cur <> [] then acc := { rids = !cur; start = !start; stop = t1 } :: !acc;
    List.rev !acc
  end

(* Operation spans as the cluster traced them ([Cluster.invoke]'s
   "write"/"read" spans), for runs where the benchmark does not hold
   the calls itself (a simulation's own client fibers). *)
let ops_of_trace events =
  let open_ops = Hashtbl.create 8 in
  List.fold_left
    (fun acc (recorder, (e : Event.t)) ->
      match client_of_recorder recorder with
      | Some c when e.cat = "op" && (e.name = "write" || e.name = "read") -> (
          match e.ph with
          | Event.Begin ->
              Hashtbl.replace open_ops c e.ts_ns;
              acc
          | Event.End -> (
              match Hashtbl.find_opt open_ops c with
              | Some t0 ->
                  Hashtbl.remove open_ops c;
                  { client = c; t0; t1 = e.ts_ns } :: acc
              | None -> acc)
          | Event.Instant -> acc)
      | _ -> acc)
    [] events
  |> List.rev

let complete r =
  is_set r.rpc && is_set r.req_recv && is_set r.reply_out && is_set r.reply_recv

let join events ops =
  let rids, clients = index events in
  let b () = Pct.Samples.create () in
  let req = b () and step = b () and reply = b () in
  Hashtbl.iter
    (fun _ r ->
      if complete r then begin
        Pct.Samples.push req (us r.rpc r.req_recv);
        Pct.Samples.push step (us r.req_recv r.reply_out);
        Pct.Samples.push reply (us r.reply_out r.reply_recv)
      end)
    rids;
  let await = b () and wake = b () and op = b () and self = b () in
  let c_client = b () and c_req = b () and c_step = b () in
  let c_reply = b () and c_wake = b () in
  let joined = ref 0 in
  List.iter
    (fun o ->
      match Hashtbl.find_opt clients o.client with
      | None -> ()
      | Some evs ->
          let rounds = rounds_of rids evs ~t0:o.t0 ~t1:o.t1 in
          (* critical rid of a round: last reply to land before it ended *)
          let crit rd =
            List.fold_left
              (fun best rid ->
                match Hashtbl.find_opt rids rid with
                | Some r
                  when complete r && Int64.compare r.reply_recv rd.stop <= 0
                  -> (
                    match best with
                    | Some b when Int64.compare b.reply_recv r.reply_recv >= 0 -> best
                    | _ -> Some r)
                | _ -> best)
              None rd.rids
          in
          let crits = List.map crit rounds in
          if rounds <> [] && List.for_all Option.is_some crits then begin
            incr joined;
            let dur = us o.t0 o.t1 in
            let waits = ref 0.0 and path = ref 0.0 in
            let sr = ref 0.0 and ss = ref 0.0 and sp = ref 0.0 and sw = ref 0.0 in
            List.iter2
              (fun rd c ->
                let c = Option.get c in
                let w = us rd.start rd.stop in
                Pct.Samples.push await w;
                Pct.Samples.push wake (us c.reply_recv rd.stop);
                waits := !waits +. w;
                path := !path +. us c.rpc rd.stop;
                sr := !sr +. us c.rpc c.req_recv;
                ss := !ss +. us c.req_recv c.reply_out;
                sp := !sp +. us c.reply_out c.reply_recv;
                sw := !sw +. us c.reply_recv rd.stop)
              rounds crits;
            Pct.Samples.push op dur;
            Pct.Samples.push self (dur -. !waits);
            Pct.Samples.push c_client (dur -. !path);
            Pct.Samples.push c_req !sr;
            Pct.Samples.push c_step !ss;
            Pct.Samples.push c_reply !sp;
            Pct.Samples.push c_wake !sw
          end)
    ops;
  let a = Pct.Samples.to_array in
  {
    ops = List.length ops;
    joined = !joined;
    rids = Pct.Samples.length req;
    req_us = a req;
    step_us = a step;
    reply_us = a reply;
    await_us = a await;
    wake_us = a wake;
    op_us = a op;
    self_us = a self;
    crit_client_us = a c_client;
    crit_req_us = a c_req;
    crit_step_us = a c_step;
    crit_reply_us = a c_reply;
    crit_wake_us = a c_wake;
  }

(* The stages' medians over the operations' median: 1 when the
   per-stage medians add up to the end-to-end median. *)
let sum_ratio t =
  let op = Pct.median t.op_us in
  if op <= 0.0 then 0.0
  else
    List.fold_left
      (fun acc a -> acc +. Pct.median a)
      0.0
      [ t.crit_client_us; t.crit_req_us; t.crit_step_us; t.crit_reply_us; t.crit_wake_us ]
    /. op

(* Pool the joins of separate traces (whose rids and clocks are
   unrelated, so their events must not be joined together). *)
let merge ts =
  let cat f = Array.concat (List.map f ts) in
  let sum f = List.fold_left (fun a t -> a + f t) 0 ts in
  {
    ops = sum (fun t -> t.ops);
    joined = sum (fun t -> t.joined);
    rids = sum (fun t -> t.rids);
    req_us = cat (fun t -> t.req_us);
    step_us = cat (fun t -> t.step_us);
    reply_us = cat (fun t -> t.reply_us);
    await_us = cat (fun t -> t.await_us);
    wake_us = cat (fun t -> t.wake_us);
    op_us = cat (fun t -> t.op_us);
    self_us = cat (fun t -> t.self_us);
    crit_client_us = cat (fun t -> t.crit_client_us);
    crit_req_us = cat (fun t -> t.crit_req_us);
    crit_step_us = cat (fun t -> t.crit_step_us);
    crit_reply_us = cat (fun t -> t.crit_reply_us);
    crit_wake_us = cat (fun t -> t.crit_wake_us);
  }
