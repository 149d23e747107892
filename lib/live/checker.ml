open Regemu_objects
open Regemu_history

type result = {
  checks : int;
  ws : Ws_check.verdict;
  atomic : bool option;
  ops_checked : int;
}

let ok r =
  (match r.ws with Ws_check.Violated _ -> false | _ -> true)
  && match r.atomic with Some false -> false | _ -> true

let result_pp ppf r =
  Fmt.pf ppf "%d online checks over %d ops: WS-Regular %a%a" r.checks
    r.ops_checked Ws_check.verdict_pp r.ws
    Fmt.(
      option (fun ppf a ->
          Fmt.pf ppf ", atomic %s" (if a then "yes" else "NO")))
    r.atomic

(* The online checker is incremental: work per tick is proportional to
   the operations that completed since the last tick, not to the whole
   history, and its state is bounded by the operations in flight.
   Four facts make this sound:

   - completed operations never change, so a pair of completed writes
     once checked comparable stays comparable ([writes] keeps the
     verified total order; its broken flag is sticky);
   - a completed read validated against the write order stays valid as
     later writes arrive: any write it has not seen was invoked after
     the read returned, so it can only land at positions the check
     already excludes — each read is checked exactly once;
   - each client is sequential, so a per-writer cursor into the
     {!Histlog} advances past every completed or aborted cell and only
     the in-flight tail is ever re-polled ({!Histlog.poll});
   - every write still to be added and every read still to be checked
     is invoked at or after the frontier: the clock read before
     polling, the pending cells and the held reads.  Writes returning
     below it are folded into the order's floor ({!Write_order.settle}),
     which changes no verdict. *)

type cursor = { w : Histlog.writer; mutable pos : int (* cells consumed *) }

(* the completed cells of one kind one tick collects, in poll order:
   columns kept across ticks, so collecting a cell allocates nothing *)
type batch = {
  mutable b_inv : int array;
  mutable b_ret : int array;
  mutable b_value : Value.t array;  (* a write's value, a read's result *)
  mutable b_client : Id.Client.t array;
  mutable b_n : int;
}

let batch () =
  { b_inv = [||]; b_ret = [||]; b_value = [||]; b_client = [||]; b_n = 0 }

let push b client ~inv ~ret v =
  if b.b_n = Array.length b.b_inv then begin
    let grow a fill = Array.append a (Array.make (max 16 b.b_n) fill) in
    b.b_inv <- grow b.b_inv 0;
    b.b_ret <- grow b.b_ret 0;
    b.b_value <- grow b.b_value Value.v0;
    b.b_client <- grow b.b_client client
  end;
  let i = b.b_n in
  b.b_inv.(i) <- inv;
  b.b_ret.(i) <- ret;
  b.b_value.(i) <- v;
  b.b_client.(i) <- client;
  b.b_n <- i + 1

(* empty [b] for a new tick; columns a quarter full last tick are
   halved, so a burst does not pin its high-water mark for good *)
let reset b =
  let cap = Array.length b.b_inv in
  if cap > 64 && b.b_n < cap / 4 then begin
    b.b_inv <- Array.make (cap / 2) 0;
    b.b_ret <- Array.make (cap / 2) 0;
    b.b_value <- Array.make (cap / 2) Value.v0;
    b.b_client <- Array.sub b.b_client 0 (cap / 2)
  end;
  b.b_n <- 0

let read_op b i =
  {
    History.index = b.b_inv.(i);
    client = b.b_client.(i);
    hop = Regemu_sim.Trace.H_read;
    invoked_at = b.b_inv.(i);
    returned_at = Some b.b_ret.(i);
    result = Some b.b_value.(i);
  }

type online = {
  log : Histlog.t;
  mutable cursors : cursor list;
  mutable nwriters : int;  (* writers with a cursor *)
  writes : Write_order.t;
  mutable aborted : (int * Value.t) list;
      (* aborted writes: their effect may still land, so they stay in
         flight for good *)
  new_writes : batch;  (* this tick's completed writes *)
  fresh : batch;  (* this tick's completed reads *)
  mutable backlog : History.op list;
      (* completed reads not checked yet: the tick was not
         write-sequential (e.g. a write was in flight), or the read
         returned after the clock read that began the tick *)
  mutable ticks : int;
  mutable polled : int;
}

let online log =
  {
    log;
    cursors = [];
    nwriters = 0;
    writes = Write_order.create ();
    aborted = [];
    new_writes = batch ();
    fresh = batch ();
    backlog = [];
    ticks = 0;
    polled = 0;
  }

let cells_polled o = o.polled

(* [Histlog.writers] only ever prepends: the new writers are a prefix *)
let refresh_cursors o =
  let ws = Histlog.writers o.log in
  let n = List.length ws in
  let rec fresh k = function
    | w :: rest when k > 0 -> { w; pos = 0 } :: fresh (k - 1) rest
    | _ -> []
  in
  if n > o.nwriters then begin
    o.cursors <- fresh (n - o.nwriters) ws @ o.cursors;
    o.nwriters <- n
  end

(* the first read outside its window of admissible writes: this tick's
   reads returning before [clock] in poll order, then the held ones;
   the rest are held for the next tick *)
let check_reads o ~in_flight ~clock =
  let v = ref Ws_check.Holds and later = ref [] in
  let check ~inv ~ret got op =
    match !v with
    | Ws_check.Holds -> (
        match Write_order.check_read o.writes ~in_flight ~inv ~ret got with
        | None -> ()
        | Some allowed ->
            let reason = Ws_check.regular_reason in
            v := Ws_check.Violated { read = op (); got; allowed; reason })
    | Ws_check.Vacuous | Ws_check.Violated _ -> ()
  in
  let r = o.fresh in
  for i = 0 to r.b_n - 1 do
    if r.b_ret.(i) >= clock then later := read_op r i :: !later
    else
      check ~inv:r.b_inv.(i) ~ret:r.b_ret.(i) r.b_value.(i) (fun () ->
          read_op r i)
  done;
  List.iter
    (fun (rd : History.op) ->
      match (rd.returned_at, rd.result) with
      | Some ret, Some got when ret < clock ->
          check ~inv:rd.invoked_at ~ret got (fun () -> rd)
      | _ -> later := rd :: !later)
    o.backlog;
  o.backlog <- List.rev !later;
  !v

(* One incremental pass over the log. *)
let tick o =
  o.ticks <- o.ticks + 1;
  refresh_cursors o;
  (* every cell a poll below misses is invoked at or after [clock] *)
  let clock = Histlog.clock o.log in
  let frontier = ref clock in
  let in_flight = ref [] in
  reset o.new_writes;
  reset o.fresh;
  List.iter
    (fun cur ->
      let client = Histlog.writer_client cur.w in
      (* a client is sequential: its one pending cell, if any, is its
         newest, so the cursor stops there and nothing after it is
         consumed *)
      let stopped = ref false in
      ignore
        (Histlog.poll cur.w ~from:cur.pos (fun (cv : Histlog.cell_view) ->
             o.polled <- o.polled + 1;
             let inv = cv.v_invoked_at in
             let done_ = cv.v_returned_at > 0 || cv.v_aborted in
             if done_ && not !stopped then begin
               cur.pos <- cur.pos + 1;
               match cv.v_hop with
               | Regemu_sim.Trace.H_write v ->
                   if cv.v_aborted then o.aborted <- (inv, v) :: o.aborted
                   else push o.new_writes client ~inv ~ret:cv.v_returned_at v
               | Regemu_sim.Trace.H_read ->
                   if not cv.v_aborted then
                     push o.fresh client ~inv ~ret:cv.v_returned_at cv.v_result
             end;
             if not done_ then begin
               stopped := true;
               frontier := min !frontier inv;
               match cv.v_hop with
               | Regemu_sim.Trace.H_write v ->
                   in_flight := (inv, v) :: !in_flight
               | Regemu_sim.Trace.H_read -> ()
             end)))
    o.cursors;
  (* in invocation order, so each insertion is the common-case append *)
  let w = o.new_writes in
  let by_inv = Array.init w.b_n Fun.id in
  Array.sort (fun a b -> Int.compare w.b_inv.(a) w.b_inv.(b)) by_inv;
  Array.iter
    (fun i ->
      Write_order.add o.writes ~inv:w.b_inv.(i) ~ret:w.b_ret.(i)
        w.b_value.(i))
    by_inv;
  let in_flight = Array.of_list (List.rev_append !in_flight o.aborted) in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) in_flight;
  let v =
    if Write_order.broken o.writes then begin
      (* vacuous for good: no read will ever be checked *)
      o.backlog <- [];
      Ws_check.Vacuous
    end
    else if not (Write_order.total o.writes ~in_flight) then begin
      (* vacuous this tick; hold the reads until the write order is
         total again *)
      o.backlog <- List.init o.fresh.b_n (read_op o.fresh) @ o.backlog;
      Ws_check.Vacuous
    end
    else
      (* a read returning at or after [clock] may have seen a write
         invoked after its writer's poll: it is checked next tick *)
      check_reads o ~in_flight ~clock
  in
  let frontier =
    List.fold_left
      (fun acc (rd : History.op) -> min acc rd.invoked_at)
      !frontier o.backlog
  in
  ignore (Write_order.settle o.writes ~frontier);
  v

type t = {
  core : online;
  cluster : Cluster.t;
  interval_s : float;
  final_atomic : bool;
  atomic_limit : int;
  cr : Sink.Trace.recorder option;  (* verdict-flip instants *)
  mutable last_class : string;  (* verdict class of the previous tick *)
  mutable running : bool;
  mutable thread : Thread.t option;
  mutable violation : Ws_check.verdict option;  (* first Violated seen *)
}

let check_once t =
  let v = tick t.core in
  (match v with
  | Ws_check.Violated _ when t.violation = None -> t.violation <- Some v
  | _ -> ());
  (* a verdict-class flip is a control event: always recorded *)
  let cls =
    match v with
    | Ws_check.Holds -> "holds"
    | Ws_check.Vacuous -> "vacuous"
    | Ws_check.Violated _ -> "violated"
  in
  if cls <> t.last_class then begin
    Sink.instant t.cr ~cat:"checker"
      ~args:
        [ ("from", Sink.Event.S t.last_class); ("to", Sink.Event.S cls) ]
      "verdict";
    t.last_class <- cls
  end;
  v

let checker_loop ?sched t =
  let pause =
    match sched with
    | None -> Thread.delay
    | Some (hook : Sched_hook.t) -> hook.sleep
  in
  while t.running do
    pause t.interval_s;
    if t.running then ignore (check_once t)
  done

let spawn ?sched cluster ?(interval_s = 0.02) ?(final_atomic = false)
    ?(atomic_limit = 600) () =
  let sink = Cluster.sink cluster in
  let t =
    {
      core = online (Cluster.log cluster);
      cluster;
      interval_s;
      final_atomic;
      atomic_limit;
      cr = Sink.recorder sink ~name:"checker";
      last_class = "holds";
      running = true;
      thread = None;
      violation = None;
    }
  in
  Sink.gauge_fn sink ~help:"online checker passes" "checker.checks" (fun () ->
      t.core.ticks);
  Sink.gauge_fn sink ~help:"1 iff a WS-Regularity violation was seen"
    "checker.violation" (fun () -> if t.violation = None then 0 else 1);
  Sink.gauge_fn sink ~help:"history cells visited by the checker's polls"
    "checker.cells_polled" (fun () -> t.core.polled);
  (* checker memory: the checker's own state is bounded by the ops in
     flight, but it reads the history log, which keeps every op of the
     run — published here so the GC'd keyspace checker
     ([Regemu_keyspace.Kchecker]) is directly comparable in the same
     --metrics snapshot *)
  let hlog = Cluster.log cluster in
  Sink.gauge_fn sink ~unit_:"bytes"
    ~help:"history log feeding the checker (every op of the run)"
    "checker.resident_bytes" (fun () -> Histlog.approx_bytes hlog);
  Sink.gauge_fn sink ~help:"invoked but not yet completed operations"
    "checker.pending_ops" (fun () ->
      Histlog.invoked hlog - Histlog.completed hlog);
  (match sched with
  | None -> t.thread <- Some (Thread.create (checker_loop ?sched:None) t)
  | Some hook ->
      hook.Sched_hook.spawn ~name:"checker" (fun () -> checker_loop ~sched:hook t));
  t

let stop t =
  t.running <- false;
  Option.iter Thread.join t.thread;
  t.thread <- None;
  (* the final pass sees the complete history; everything validated
     online is skipped, so it costs only the tail *)
  let final = check_once t in
  let ws =
    match t.violation with
    | Some v -> v
    | None -> (
        (* the last tick's verdict only covers fresh reads; lift it to
           the whole run *)
        match final with
        | Ws_check.Vacuous -> Ws_check.Vacuous
        | Ws_check.Holds | Ws_check.Violated _ -> Ws_check.Holds)
  in
  (* the log counts its own operations; the merged history is built
     only for the atomicity pass, which is bounded by [atomic_limit] *)
  let ops = Histlog.invoked (Cluster.log t.cluster) in
  let atomic =
    if t.final_atomic && ops <= t.atomic_limit then
      Some
        (Linearize.linearizable Linearize.register
           (Cluster.history t.cluster))
    else None
  in
  { checks = t.core.ticks; ws; atomic; ops_checked = ops }
