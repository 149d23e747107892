open Regemu_objects
open Regemu_history

type config = { interval_s : float; deep_sample : int; deep_cap : int }

let default_config = { interval_s = 0.02; deep_sample = 0; deep_cap = 4096 }

module Stats = struct
  type violation = { v_key : int; v_detail : string }

  type t = {
    checks : int;
    violations : int;
    first_violation : violation option;
    broken_keys : int;
    settled_writes : int;
    pending_undecided : int;
    deep_keys : int;
    deep_evicted : int;
    deep_mismatches : int;
    max_resident_ops : int;
  }
end

(* The checker is incremental: work per tick is proportional to the
   operations that completed since the last tick, not to the whole
   history, and its state is bounded by the operations in flight.
   Four facts make this sound, per key:

   - completed operations never change, so a pair of completed writes
     once checked comparable stays comparable (the key's
     [Write_order] keeps the verified total order; its broken flag is
     sticky);
   - a completed read validated against the write order stays valid as
     later writes arrive: any write it has not seen was invoked after
     the read returned, so it can only land at positions the check
     already excludes — each read is checked exactly once;
   - each client is sequential, so a per-writer cursor into the
     {!Histlog} advances past every completed or aborted cell, only the
     in-flight tail is ever re-polled, and everything behind the cursor
     can be trimmed;
   - every write still to be added and every read still to be checked
     is invoked at or after the frontier: the clock read before
     polling, the pending cells and the held reads.  Writes returning
     below it are folded into the order's floor ({!Write_order.settle}),
     which changes no verdict. *)

(* FNV-1a over the key's decimal digits: stable across processes,
   OCaml versions, and architectures (unlike Hashtbl.hash, which is
   seed- and version-dependent). *)
let key_hash key =
  let h = ref 0xcbf29ce484222325L in
  let prime = 0x100000001b3L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    (string_of_int key);
  (* keep 62 bits: [Int64.to_int] of a 63-bit value can wrap negative
     on OCaml's 63-bit native int *)
  Int64.to_int (Int64.logand !h 0x3FFF_FFFF_FFFF_FFFFL)

type cursor = {
  w : Histlog.writer;
  mutable pos : int;  (* cells consumed *)
  mutable trimmed : int;  (* [pos] at the last trim *)
}

(* a completed operation as one tick collects it; a read not checked
   yet is held as one: its key's writes were not write-sequential at
   its tick, or it returned after the clock read that began the tick *)
type op = {
  key : int;
  client : Id.Client.t;
  inv : int;
  ret : int;
  value : Value.t;  (* a write's value, a read's result *)
}

(* a key's retained subhistory; [Evicted] once it went past the cap *)
type deep = Kept of Histlog.store | Evicted

type t = {
  log : Histlog.t;
  cfg : config;
  mutable cursors : cursor list;
  mutable nwriters : int;  (* writers with a cursor *)
  orders : (int, Write_order.t) Hashtbl.t;  (* every key seen *)
  mutable last : (int * Write_order.t) option;  (* the last key looked up *)
  open_ : (int, Write_order.t) Hashtbl.t;
      (* the keys whose window is non-empty (a broken key's never is):
         the only keys a settle can change *)
  aborted : (int, Write_order.in_flight) Hashtbl.t;
      (* aborted writes of keys not broken: their effect may still
         land, so they stay in flight for good *)
  mutable naborted : int;  (* aborted writes across keys *)
  tails : (int, Write_order.in_flight) Hashtbl.t;
      (* this tick's in-flight tail of each key with a pending write *)
  mutable held : op list;
  mutable nheld : int;
  deeps : (int, deep) Hashtbl.t;
  mutable ticks : int;
  mutable polled : int;
  mutable checks : int;
  mutable violations : int;
  mutable first : (int * Ws_check.violation) option;
  mutable broken : int;
  mutable settled : int;
  mutable window_ops : int;  (* window writes across keys *)
  mutable deep_ops : int;  (* retained cells across keys *)
  mutable max_resident : int;
  mutable deep_keys : int;
  mutable deep_evicted : int;
  mutable mismatches : int;
  mutable mismatch : Stats.violation option;
  (* the running checker *)
  final_atomic : bool;
  cr : Sink.Trace.recorder option;  (* verdict-flip instants *)
  mutable last_class : string;  (* verdict class of the previous pass *)
  settled_ctr : Sink.Metrics.counter;
  mutable running : bool;
      (* passes are driven: by the log's completing threads, or by the
         scheduled actor's loop *)
}

let make ?(config = default_config) ?(sink = Sink.none) ?(final_atomic = false)
    log =
  if config.interval_s <= 0.0 then
    invalid_arg "Checker: interval_s must be positive";
  if config.deep_sample < 0 || config.deep_cap < 1 then
    invalid_arg "Checker: bad deep-check configuration";
  {
    log;
    cfg = config;
    cursors = [];
    nwriters = 0;
    orders = Hashtbl.create 1;
    last = None;
    open_ = Hashtbl.create 1;
    aborted = Hashtbl.create 1;
    naborted = 0;
    tails = Hashtbl.create 1;
    held = [];
    nheld = 0;
    deeps = Hashtbl.create 1;
    ticks = 0;
    polled = 0;
    checks = 0;
    violations = 0;
    first = None;
    broken = 0;
    settled = 0;
    window_ops = 0;
    deep_ops = 0;
    max_resident = 0;
    deep_keys = 0;
    deep_evicted = 0;
    mismatches = 0;
    mismatch = None;
    final_atomic;
    cr = Sink.recorder sink ~name:"checker";
    last_class = "holds";
    settled_ctr =
      Sink.counter sink ~help:"writes folded away by settling"
        "checker.settled";
    running = false;
  }

let online ?config log = make ?config log
let cells_polled t = t.polled
let keys t = Hashtbl.length t.orders
let open_keys t = Hashtbl.length t.open_
let settled t = t.settled
let violations_so_far t = t.violations
let resident_ops t = t.window_ops + t.nheld + t.deep_ops + t.naborted

let order t key =
  match t.last with
  | Some (k, wo) when k = key -> wo
  | _ ->
      let wo =
        match Hashtbl.find_opt t.orders key with
        | Some wo -> wo
        | None ->
            let wo = Write_order.create () in
            Hashtbl.add t.orders key wo;
            wo
      in
      t.last <- Some (key, wo);
      wo

(* change [key]'s write order, keeping the window count, the open set
   and the broken count in step with it *)
let update t key f =
  let wo = order t key in
  let before = Write_order.length wo and was_broken = Write_order.broken wo in
  f wo;
  let after = Write_order.length wo in
  t.window_ops <- t.window_ops + after - before;
  if before = 0 && after > 0 then Hashtbl.replace t.open_ key wo
  else if before > 0 && after = 0 then Hashtbl.remove t.open_ key;
  if (not was_broken) && Write_order.broken wo then begin
    t.broken <- t.broken + 1;
    match Hashtbl.find_opt t.aborted key with
    | Some ws ->
        t.naborted <- t.naborted - Array.length ws;
        Hashtbl.remove t.aborted key
    | None -> ()
  end

let retained t key =
  match t.cfg.deep_sample with
  | 0 -> false
  | 1 -> true
  | s -> key_hash key mod s = 0

let retain t key client cv =
  let keep s =
    Histlog.keep s ~client cv;
    t.deep_ops <- t.deep_ops + 1
  in
  match Hashtbl.find_opt t.deeps key with
  | Some Evicted -> ()
  | Some (Kept s) when Histlog.kept s >= t.cfg.deep_cap ->
      (* past the cap: keep none rather than a truncated history *)
      t.deep_ops <- t.deep_ops - Histlog.kept s;
      Hashtbl.replace t.deeps key Evicted
  | Some (Kept s) -> keep s
  | None ->
      let s = Histlog.store () in
      Hashtbl.replace t.deeps key (Kept s);
      keep s

(* [Histlog.writers] only ever prepends: the new writers are a prefix *)
let refresh_cursors t =
  let ws = Histlog.writers t.log in
  let n = List.length ws in
  let rec fresh k = function
    | w :: rest when k > 0 -> { w; pos = 0; trimmed = 0 } :: fresh (k - 1) rest
    | _ -> []
  in
  if n > t.nwriters then begin
    t.cursors <- fresh (n - t.nwriters) ws @ t.cursors;
    t.nwriters <- n
  end

(* [ws] with [w] inserted by invocation *)
let insert ws w =
  let a = Array.append ws [| w |] in
  Array.stable_sort (fun (x, _) (y, _) -> Int.compare x y) a;
  a

(* An aborted write never returns, so once it is unordered with another
   aborted or a completed write, its key is vacuous for good: break it.
   Only a write added to [key] can change that, so a tick checks just
   the keys it added writes to.  (A pending write may still turn out to
   precede the aborted one: a poll of another client can predate the
   aborted write's invocation.) *)
let break_aborted t key =
  match Hashtbl.find_opt t.aborted key with
  | Some ws when not (Write_order.total (order t key) ~in_flight:ws) ->
      update t key Write_order.break
  | _ -> ()

(* the in-flight tail of [key] this tick: its pending writes and its
   aborted ones, by invocation *)
let tail_of t key =
  match Hashtbl.find_opt t.tails key with
  | Some a -> a
  | None when Hashtbl.length t.aborted = 0 -> [||]
  | None -> Option.value ~default:[||] (Hashtbl.find_opt t.aborted key)

(* One incremental pass over the log. *)
let tick t =
  t.ticks <- t.ticks + 1;
  refresh_cursors t;
  (* every cell a poll below misses is invoked at or after [clock] *)
  let clock = Histlog.clock t.log in
  let frontier = ref clock in
  let pending = ref [] and writes = ref [] and reads = ref [] in
  let aborted_keys = ref [] in
  let consume client (cv : Histlog.cell_view) =
    let key = cv.v_key and inv = cv.v_invoked_at in
    if retained t key then retain t key client cv;
    let op value = { key; client; inv; ret = cv.v_returned_at; value } in
    match cv.v_hop with
    | Regemu_sim.Trace.H_write v ->
        if not cv.v_aborted then writes := op v :: !writes
        else if not (Write_order.broken (order t key)) then begin
          Hashtbl.replace t.aborted key
            (insert
               (Option.value ~default:[||] (Hashtbl.find_opt t.aborted key))
               (inv, v));
          t.naborted <- t.naborted + 1;
          aborted_keys := key :: !aborted_keys
        end
    | Regemu_sim.Trace.H_read ->
        if not cv.v_aborted then reads := op cv.v_result :: !reads
  in
  List.iter
    (fun cur ->
      let client = Histlog.writer_client cur.w in
      (* a client is sequential: its one pending cell, if any, is its
         newest, so the cursor stops there *)
      let stopped = ref false in
      ignore
        (Histlog.poll cur.w ~from:cur.pos (fun (cv : Histlog.cell_view) ->
             t.polled <- t.polled + 1;
             if not !stopped then
               if cv.v_returned_at > 0 || cv.v_aborted then begin
                 cur.pos <- cur.pos + 1;
                 consume client cv
               end
               else begin
                 stopped := true;
                 frontier := min !frontier cv.v_invoked_at;
                 match cv.v_hop with
                 | Regemu_sim.Trace.H_write v ->
                     pending := (cv.v_key, (cv.v_invoked_at, v)) :: !pending
                 | Regemu_sim.Trace.H_read -> ()
               end));
      (* a chunk holds at most 256 cells: trimming more often frees
         nothing more *)
      if cur.pos - cur.trimmed >= 256 then begin
        Histlog.trim cur.w ~upto:cur.pos;
        cur.trimmed <- cur.pos
      end)
    t.cursors;
  (* in invocation order, so each insertion is the common-case append *)
  let writes = List.sort (fun a b -> Int.compare a.inv b.inv) !writes in
  List.iter
    (fun w ->
      update t w.key (fun wo -> Write_order.add wo ~inv:w.inv ~ret:w.ret w.value))
    writes;
  if Hashtbl.length t.aborted > 0 then begin
    List.iter (break_aborted t) !aborted_keys;
    List.iter (fun w -> break_aborted t w.key) writes
  end;
  Hashtbl.clear t.tails;
  List.iter
    (fun (key, w) -> Hashtbl.replace t.tails key (insert (tail_of t key) w))
    !pending;
  (* a key whose tail is not totally ordered is vacuous this tick *)
  let vacuous =
    t.broken > 0
    || Hashtbl.fold
         (fun key in_flight acc ->
           acc || not (Write_order.total (order t key) ~in_flight))
         t.tails false
  in
  (* [true] once the read is decided: checked, or vacuous for good *)
  let found = ref None in
  let decide r =
    let wo = order t r.key in
    let in_flight = tail_of t r.key in
    let broken = Write_order.broken wo in
    let decided = broken || Write_order.total wo ~in_flight in
    if decided then t.checks <- t.checks + 1;
    if decided && not broken then begin
      match
        Write_order.check_read wo ~in_flight ~inv:r.inv ~ret:r.ret r.value
      with
      | None -> ()
      | Some allowed ->
          t.violations <- t.violations + 1;
          let read =
            {
              History.index = r.inv;
              client = r.client;
              hop = Regemu_sim.Trace.H_read;
              invoked_at = r.inv;
              returned_at = Some r.ret;
              result = Some r.value;
            }
          in
          let v =
            {
              Ws_check.read;
              got = r.value;
              allowed;
              reason = Ws_check.regular_reason;
            }
          in
          if !found = None then found := Some v;
          if t.first = None then t.first <- Some (r.key, v)
    end;
    decided
  in
  (* this tick's reads in poll order, then the held ones; a read
     returning at or after [clock] may have seen a write invoked after
     its writer's poll, so it waits a tick *)
  let later = ref [] in
  List.iter
    (fun r -> if r.ret >= clock || not (decide r) then later := r :: !later)
    (List.rev_append !reads t.held);
  t.held <- List.rev !later;
  t.nheld <- List.length t.held;
  let frontier =
    List.fold_left (fun acc r -> min acc r.inv) !frontier t.held
  in
  (* only open keys can settle anything: a tick costs its open windows,
     not every key ever seen *)
  if Hashtbl.length t.open_ > 0 then
    Hashtbl.filter_map_inplace
      (fun _ wo ->
        let n = Write_order.settle wo ~frontier in
        if n > 0 then begin
          t.window_ops <- t.window_ops - n;
          t.settled <- t.settled + n;
          Sink.Metrics.add t.settled_ctr n
        end;
        if Write_order.length wo > 0 then Some wo else None)
      t.open_;
  t.max_resident <- max t.max_resident (resident_ops t);
  match !found with
  | Some v -> Ws_check.Violated v
  | None -> if vacuous then Ws_check.Vacuous else Holds

(* a pass of the running checker: a tick, and its verdict-class flips
   as control events, always recorded *)
let pass t =
  let v = tick t in
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

(* the scheduled checker: an actor whose pauses elapse in virtual
   time, so its passes are part of the schedule *)
let loop (hook : Sched_hook.t) t =
  while t.running do
    hook.sleep t.cfg.interval_s;
    if t.running then ignore (pass t)
  done

let start ?sched ?(sink = Sink.none) ?config ?final_atomic log =
  let t = make ?config ~sink ?final_atomic log in
  t.running <- true;
  Sink.gauge_fn sink ~help:"online checker passes" "checker.checks" (fun () ->
      t.ticks);
  Sink.gauge_fn sink ~help:"reads that failed their WS-Regularity check"
    "checker.violations" (fun () -> t.violations);
  Sink.gauge_fn sink ~help:"log cells visited by the checker's polls"
    "checker.cells_polled" (fun () -> t.polled);
  Sink.gauge_fn sink ~unit_:"bytes"
    ~help:"operation log feeding the checker (trimmed behind its cursors)"
    "checker.resident_bytes" (fun () -> Histlog.approx_bytes log);
  Sink.gauge_fn sink ~help:"invoked but not yet completed operations"
    "checker.pending_ops" (fun () ->
      Histlog.invoked log - Histlog.completed log);
  Sink.gauge_fn sink
    ~help:"checker state (window + held + retained + aborted in-flight ops)"
    "checker.resident_ops" (fun () -> resident_ops t);
  Sink.gauge_fn sink ~help:"distinct keys with checker state" "checker.keys"
    (fun () -> keys t);
  Sink.gauge_fn sink ~help:"keys with an open (unsettled) write window"
    "checker.open_keys" (fun () -> open_keys t);
  (match sched with
  | None ->
      Histlog.attach log ~interval_s:t.cfg.interval_s (fun () ->
          ignore (pass t))
  | Some hook ->
      hook.Sched_hook.spawn ~name:"checker" (fun () -> loop hook t));
  t

(* the offline pass over each retained key: a violation the incremental
   check must have seen too, unless the key was decided clean, which
   would mean settling lost an answer *)
let cross_check t =
  Hashtbl.iter
    (fun key d ->
      match d with
      | Evicted -> t.deep_evicted <- t.deep_evicted + 1
      | Kept s -> (
          t.deep_keys <- t.deep_keys + 1;
          match Ws_check.check_ws_regular (Histlog.history s) with
          | Ws_check.Holds | Ws_check.Vacuous -> ()
          | Ws_check.Violated viol ->
              if t.violations = 0 && not (Write_order.broken (order t key))
              then begin
                t.mismatches <- t.mismatches + 1;
                if t.mismatch = None then
                  t.mismatch <-
                    Some
                      {
                        Stats.v_key = key;
                        v_detail =
                          Fmt.str "deep-check key %d: %a" key
                            Ws_check.violation_pp viol;
                      }
              end))
    t.deeps

(* stop the passes (a running one ends first); the final pass sees
   the complete log, and everything validated online was trimmed, so
   it costs only the tail *)
let halt t =
  if t.running then begin
    t.running <- false;
    Histlog.detach t.log
  end;
  pass t

let finish t =
  let v = halt t in
  cross_check t;
  v

let stats t =
  {
    Stats.checks = t.checks;
    violations = t.violations;
    first_violation =
      (match t.first with
      | Some (key, v) ->
          Some
            {
              Stats.v_key = key;
              v_detail = Fmt.str "key %d: %a" key Ws_check.violation_pp v;
            }
      | None -> t.mismatch);
    broken_keys = t.broken;
    settled_writes = t.settled;
    pending_undecided = t.nheld;
    deep_keys = t.deep_keys;
    deep_evicted = t.deep_evicted;
    deep_mismatches = t.mismatches;
    max_resident_ops = t.max_resident;
  }

(* a retained key 0 that saw no operation has the empty history *)
let history0 t =
  match Hashtbl.find_opt t.deeps 0 with
  | Some (Kept s) -> Some s
  | None when retained t 0 -> Some (Histlog.store ())
  | Some Evicted | None -> None

let full_pass t =
  Option.map
    (fun s ->
      let h = Histlog.history s in
      (h, Ws_check.check_ws_regular h))
    (history0 t)

let latencies_ns t = Option.map Histlog.latencies_ns (history0 t)

(* --- the register front-end --------------------------------------------- *)

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
  Fmt.pf ppf "%d checker passes over %d ops: WS-Regular %a%a" r.checks
    r.ops_checked Ws_check.verdict_pp r.ws
    Fmt.(
      option (fun ppf a ->
          Fmt.pf ppf ", atomic %s" (if a then "yes" else "NO")))
    r.atomic

(* the brute-force atomicity pass's history limit *)
let atomic_limit = 600

let spawn ?sched cluster ?(interval_s = default_config.interval_s)
    ?(final_atomic = false) ?(retain = 0) () =
  let retain = if final_atomic then max retain atomic_limit else retain in
  let config =
    { interval_s; deep_sample = min 1 retain; deep_cap = max 1 retain }
  in
  start ?sched ~sink:(Cluster.sink cluster) ~config ~final_atomic
    (Cluster.log cluster)

(* no deep cross-check: a register run's one retained key is judged
   offline only by a caller of {!full_pass} *)
let stop t =
  let final = halt t in
  let ws =
    match t.first with
    | Some (_, v) -> Ws_check.Violated v
    | None -> (
        (* the last pass's verdict only covers fresh reads; lift it to
           the whole run *)
        match final with
        | Ws_check.Vacuous -> Ws_check.Vacuous
        | Ws_check.Holds | Ws_check.Violated _ -> Ws_check.Holds)
  in
  let atomic =
    match history0 t with
    | Some s when t.final_atomic && Histlog.kept s <= atomic_limit ->
        Some (Linearize.linearizable Linearize.register (Histlog.history s))
    | _ -> None
  in
  { checks = t.ticks; ws; atomic; ops_checked = Histlog.invoked t.log }
