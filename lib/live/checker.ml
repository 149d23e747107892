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
   history.  Three facts make incrementality sound:

   - completed operations never change, so a pair of completed writes
     once checked comparable stays comparable ([writes] keeps the
     verified total order; its broken flag is sticky);
   - a completed read validated against the write order stays valid as
     later writes arrive: any write it has not seen was invoked after
     the read returned, so it can only land at positions the check
     already excludes — each read is checked exactly once;
   - each client is sequential, so a per-writer cursor into the
     {!Histlog} advances past a contiguous completed prefix and only
     the in-flight suffix is ever re-polled ({!Histlog.poll}). *)
type t = {
  cluster : Cluster.t;
  interval_s : float;
  final_atomic : bool;
  atomic_limit : int;
  cr : Sink.Trace.recorder option;  (* verdict-flip instants *)
  mutable last_class : string;  (* verdict class of the previous tick *)
  mutable running : bool;
  mutable thread : Thread.t option;
  mutable checks : int;
  mutable violation : Ws_check.verdict option;  (* first Violated seen *)
  cursors : (int, int) Hashtbl.t;  (* client -> consumed prefix length *)
  seen : (int, unit) Hashtbl.t;  (* invoked_at of collected ops *)
  writes : Write_order.t;  (* every completed write; never settled *)
  mutable backlog : History.op list;
      (* completed reads collected during a non-write-sequential tick
         (e.g. while a write was in flight), awaiting validation *)
}

let op_of_view client (cv : Histlog.cell_view) =
  {
    History.index = cv.v_invoked_at;
    client;
    hop = cv.v_hop;
    invoked_at = cv.v_invoked_at;
    returned_at = cv.v_returned_at;
    result = cv.v_result;
  }

(* the first read of [reads] outside its window of admissible writes *)
let verdict_of_reads t ~in_flight reads =
  let rec go = function
    | [] -> Ws_check.Holds
    | (rd : History.op) :: rest -> (
        match (rd.result, rd.returned_at) with
        | Some got, Some ret -> (
            match
              Write_order.check_read t.writes ~in_flight ~inv:rd.invoked_at
                ~ret got
            with
            | None -> go rest
            | Some allowed ->
                Ws_check.Violated
                  { read = rd; got; allowed; reason = Ws_check.regular_reason })
        | _ -> go rest)
  in
  go reads

(* One incremental pass over the log. *)
let check_once t =
  t.checks <- t.checks + 1;
  let new_writes = ref [] and in_flight = ref [] and fresh = ref [] in
  List.iter
    (fun w ->
      let client = Histlog.writer_client w in
      let key = Id.Client.to_int client in
      let cur = Option.value ~default:0 (Hashtbl.find_opt t.cursors key) in
      let newcur = ref cur and contiguous = ref true in
      let _len =
        Histlog.poll w ~from:cur (fun (cv : Histlog.cell_view) ->
            let inv = cv.v_invoked_at in
            let completed = cv.v_returned_at <> None in
            if completed && !contiguous then incr newcur
            else contiguous := false;
            match (cv.v_returned_at, cv.v_hop) with
            | Some ret, hop when not (Hashtbl.mem t.seen inv) -> (
                Hashtbl.replace t.seen inv ();
                match hop with
                | Regemu_sim.Trace.H_write v ->
                    new_writes := (inv, ret, v) :: !new_writes
                | Regemu_sim.Trace.H_read ->
                    fresh := op_of_view client cv :: !fresh)
            | None, Regemu_sim.Trace.H_write v ->
                in_flight := (inv, v) :: !in_flight
            | _ -> ())
      in
      Hashtbl.replace t.cursors key !newcur)
    (Histlog.writers (Cluster.log t.cluster));
  (* in invocation order, so each insertion is the common-case append *)
  List.iter
    (fun (inv, ret, v) -> Write_order.add t.writes ~inv ~ret v)
    (List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) !new_writes);
  let in_flight = Array.of_list !in_flight in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) in_flight;
  let v =
    if not (Write_order.total t.writes ~in_flight) then begin
      (* vacuous this tick (sticky only once the order breaks); hold
         the reads until the write order is total again *)
      t.backlog <- List.rev_append !fresh t.backlog;
      Ws_check.Vacuous
    end
    else begin
      let reads = List.rev_append !fresh t.backlog in
      t.backlog <- [];
      verdict_of_reads t ~in_flight reads
    end
  in
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
      cluster;
      interval_s;
      final_atomic;
      atomic_limit;
      cr = Sink.recorder sink ~name:"checker";
      last_class = "holds";
      running = true;
      thread = None;
      checks = 0;
      violation = None;
      cursors = Hashtbl.create 32;
      seen = Hashtbl.create 64;
      writes = Write_order.create ();
      backlog = [];
    }
  in
  Sink.gauge_fn sink ~help:"online checker passes" "checker.checks" (fun () ->
      t.checks);
  Sink.gauge_fn sink ~help:"1 iff a WS-Regularity violation was seen"
    "checker.violation" (fun () -> if t.violation = None then 0 else 1);
  (* checker memory: this checker reads the full unbounded Histlog, so
     its resident feed is the log itself — published here so the GC'd
     keyspace checker ([Regemu_keyspace.Kchecker]) is directly
     comparable in the same --metrics snapshot *)
  let hlog = Cluster.log cluster in
  Sink.gauge_fn sink ~unit_:"bytes"
    ~help:"resident history feeding the checker (unbounded Histlog)"
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
  { checks = t.checks; ws; atomic; ops_checked = ops }
