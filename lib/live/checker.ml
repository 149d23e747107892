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
   history.  The old implementation snapshotted and reran the full
   [Ws_check.check_ws_regular] — an O(writes²) sequentiality scan plus
   an O(reads × writes) admissibility scan over an O(n log n) snapshot
   — every 10 ms on the single runtime lock, which visibly throttled
   the cluster as histories grew.

   Three facts make incrementality sound:

   - completed operations never change, so a pair of completed writes
     once checked comparable stays comparable ([winv]/[wret]/[wval]
     cache the verified total order in append-only arrays; [wbroken]
     is a sticky "two completed writes overlap");
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
  (* completed writes, oldest first, verified pairwise sequential: the
     first [wn] slots of three parallel arrays, grown by doubling *)
  mutable winv : int array;
  mutable wret : int array;
  mutable wval : Value.t array;
  mutable wn : int;
  mutable max_wret : int;  (* latest return tick among the writes *)
  mutable wbroken : bool;  (* two completed writes overlap: vacuous for
                              good *)
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

let grow arr fill =
  let a = Array.make (2 * Array.length arr) fill in
  Array.blit arr 0 a 0 (Array.length arr);
  a

(* Insert a newly completed write into the verified order.  Writers are
   polled independently, so a write can surface after a later-invoked
   one — it must land at its invocation position (shifting the newer
   slots up) and be comparable with both neighbours.  The common case
   (new latest write) is an O(1) append. *)
let insert_write t (w : History.op) =
  let inv = w.History.invoked_at in
  let ret = match w.returned_at with Some r -> r | None -> assert false in
  let v =
    match History.written_value w with Some v -> v | None -> assert false
  in
  if t.wn = Array.length t.winv then begin
    t.winv <- grow t.winv 0;
    t.wret <- grow t.wret 0;
    t.wval <- grow t.wval Value.v0
  end;
  let p = ref t.wn in
  while !p > 0 && t.winv.(!p - 1) > inv do
    decr p
  done;
  let p = !p in
  let ok_newer = p = t.wn || ret < t.winv.(p)
  and ok_older = p = 0 || t.wret.(p - 1) < inv in
  let shift arr = Array.blit arr p arr (p + 1) (t.wn - p) in
  shift t.winv;
  shift t.wret;
  shift t.wval;
  t.winv.(p) <- inv;
  t.wret.(p) <- ret;
  t.wval.(p) <- v;
  t.wn <- t.wn + 1;
  if ret > t.max_wret then t.max_wret <- ret;
  if not (ok_newer && ok_older) then t.wbroken <- true

(* first index [i < n] with [get i >= x]; [get] ascending *)
let lower_bound get n x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if get mid < x then go (mid + 1) hi else go lo mid
  in
  go 0 n

(* Validate completed reads against the write order [completed @ pending]:
   for each read, the admissible write positions form a contiguous
   window (writes returned before its invocation are excluded below,
   writes invoked after its return above), found by binary search —
   O(log writes + window) per read instead of the closed-form checker's
   O(writes). *)
let validate_reads t ~pending reads =
  (* the pending writes (still running, no return tick) follow the
     completed ones; index [i] reads the arrays below [wn] *)
  let pend = Array.of_list pending in
  let n = t.wn + Array.length pend in
  let at arr f i = if i < t.wn then arr.(i) else f pend.(i - t.wn) in
  let inv = at t.winv (fun (w : History.op) -> w.invoked_at)
  and ret = at t.wret (fun _ -> max_int)
  and value =
    at t.wval (fun w ->
        match History.written_value w with Some v -> v | None -> assert false)
  in
  let check_read (rd : History.op) =
    match (rd.result, rd.returned_at) with
    | Some got, Some rret ->
        (* positions [p .. q], 1-based over writes; position 0 is the
           initial value, admissible when no write precedes the read *)
        let p = lower_bound ret n rd.invoked_at in
        let q = lower_bound inv n rret in
        let admissible =
          (p = 0 && Value.equal got Value.v0)
          ||
          let rec probe j =
            j <= q && (Value.equal got (value (j - 1)) || probe (j + 1))
          in
          probe (max p 1)
        in
        if admissible then None
        else
          let allowed =
            (if p = 0 then [ Value.v0 ] else [])
            @ List.init (max 0 (q - max p 1 + 1)) (fun i ->
                  value (max p 1 + i - 1))
          in
          Some
            {
              Ws_check.read = rd;
              got;
              allowed;
              reason =
                "WS-Regular: no linearization of the writes and this read \
                 exists";
            }
    | _ -> None
  in
  let rec go = function
    | [] -> Ws_check.Holds
    | rd :: rest -> (
        match check_read rd with
        | None -> go rest
        | Some v -> Ws_check.Violated v)
  in
  go reads

(* One incremental pass over the log. *)
let check_once t =
  t.checks <- t.checks + 1;
  let new_writes = ref [] and pending_w = ref [] and fresh = ref [] in
  List.iter
    (fun w ->
      let client = Histlog.writer_client w in
      let key = Id.Client.to_int client in
      let cur = Option.value ~default:0 (Hashtbl.find_opt t.cursors key) in
      let newcur = ref cur and contiguous = ref true in
      let _len =
        Histlog.poll w ~from:cur (fun cv ->
            let completed = cv.Histlog.v_returned_at <> None in
            if completed && !contiguous then incr newcur
            else contiguous := false;
            let is_write = Regemu_sim.Trace.hop_is_write cv.Histlog.v_hop in
            if completed && not (Hashtbl.mem t.seen cv.Histlog.v_invoked_at)
            then begin
              Hashtbl.replace t.seen cv.Histlog.v_invoked_at ();
              let op = op_of_view client cv in
              if is_write then new_writes := op :: !new_writes
              else fresh := op :: !fresh
            end
            else if (not completed) && is_write then
              pending_w := op_of_view client cv :: !pending_w)
      in
      Hashtbl.replace t.cursors key !newcur)
    (Histlog.writers (Cluster.log t.cluster));
  List.iter (insert_write t)
    (List.sort
       (fun (a : History.op) b -> Int.compare a.invoked_at b.invoked_at)
       !new_writes);
  let sequential_now =
    (not t.wbroken)
    &&
    (* a pending write is comparable only with writes that returned
       before it was invoked; two pending writes never are *)
    match !pending_w with
    | [] -> true
    | [ w ] -> w.History.invoked_at > t.max_wret
    | _ :: _ :: _ -> false
  in
  let v =
    if not sequential_now then begin
      (* vacuous this tick (sticky only via [wbroken]); hold the reads
         until the write order is total again *)
      t.backlog <- List.rev_append !fresh t.backlog;
      Ws_check.Vacuous
    end
    else begin
      let reads = List.rev_append !fresh t.backlog in
      t.backlog <- [];
      match reads with
      | [] -> Ws_check.Holds
      | _ ->
          let pending =
            List.sort
              (fun (a : History.op) b -> Int.compare a.invoked_at b.invoked_at)
              !pending_w
          in
          validate_reads t ~pending reads
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
      winv = Array.make 64 0;
      wret = Array.make 64 0;
      wval = Array.make 64 Value.v0;
      wn = 0;
      max_wret = 0;
      wbroken = false;
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
