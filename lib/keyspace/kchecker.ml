open Regemu_objects
open Regemu_live
module History = Regemu_history.History
module Ws_check = Regemu_history.Ws_check
module Write_order = Regemu_history.Write_order

type config = {
  interval_s : float;
  deep_sample : int;
  deep_cap : int;
}

let default_config = { interval_s = 0.02; deep_sample = 64; deep_cap = 4096 }

(* a completed read waiting for the frontier to pass its return *)
type pread = { rkey : int; rinv : int; rret : int; rgot : Value.t }

(* full retained subhistory of a deep-sampled key *)
type deep = {
  mutable cells : (Id.Client.t * Klog.cell_view) list;  (* newest first *)
  mutable count : int;
  mutable evicted : bool;
}

type cursor = { cw : Klog.writer; mutable pos : int }

type violation = { v_key : int; v_detail : string }

type result = {
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

type t = {
  klog : Klog.t;
  cfg : config;
  mutable cursors : cursor list;  (* refreshed as writers register *)
  keys : (int, Write_order.t) Hashtbl.t;
  open_ : (int, Write_order.t) Hashtbl.t;
      (* the keys of [keys] whose window is non-empty (a broken key's
         never is): the only keys a settle step can change *)
  mutable pending : pread list;
  mutable pending_count : int;
  deeps : (int, deep) Hashtbl.t;
  mutable checks : int;
  mutable violations : int;
  mutable first_violation : violation option;
  mutable settled : int;
  mutable window_ops : int;  (* total window writes across keys *)
  mutable deep_ops : int;  (* total retained deep cells *)
  mutable max_resident : int;
  mutable running : bool;
  mutable thread : Thread.t option;
  sched : Sched_hook.t option;
  settled_ctr : Sink.Metrics.counter;
}

let order t key =
  match Hashtbl.find_opt t.keys key with
  | Some wo -> wo
  | None ->
      let wo = Write_order.create () in
      Hashtbl.add t.keys key wo;
      wo

let resident_ops t = t.window_ops + t.pending_count + t.deep_ops

(* feed [key]'s write order, keeping the window count and the open set
   in step with its window *)
let update t key f =
  let wo = order t key in
  let before = Write_order.length wo in
  f wo;
  let after = Write_order.length wo in
  t.window_ops <- t.window_ops + after - before;
  if before = 0 && after > 0 then Hashtbl.replace t.open_ key wo
  else if before > 0 && after = 0 then Hashtbl.remove t.open_ key

let opc = Id.Client.of_int 0 (* client ids are irrelevant to the check *)

let decide_read t (r : pread) =
  t.checks <- t.checks + 1;
  match
    Write_order.check_read (order t r.rkey) ~inv:r.rinv ~ret:r.rret r.rgot
  with
  | None -> ()
  | Some allowed ->
      t.violations <- t.violations + 1;
      if t.first_violation = None then
        let read =
          {
            History.index = 0;
            client = opc;
            hop = Regemu_sim.Trace.H_read;
            invoked_at = r.rinv;
            returned_at = Some r.rret;
            result = Some r.rgot;
          }
        in
        t.first_violation <-
          Some
            {
              v_key = r.rkey;
              v_detail =
                Fmt.str "key %d: %a" r.rkey Ws_check.violation_pp
                  {
                    read;
                    got = r.rgot;
                    allowed;
                    reason = Ws_check.regular_reason;
                  };
            }

(* only open keys can settle anything: a round costs its open windows,
   not every key the checker has ever seen *)
let settle_all t ~frontier =
  Hashtbl.filter_map_inplace
    (fun _ wo ->
      let n = Write_order.settle wo ~frontier in
      if n > 0 then begin
        t.window_ops <- t.window_ops - n;
        t.settled <- t.settled + n;
        Sink.Metrics.add t.settled_ctr n
      end;
      if Write_order.length wo > 0 then Some wo else None)
    t.open_

(* --- deep-sample retention --------------------------------------------- *)

let sampled t key =
  t.cfg.deep_sample > 0 && Placement.hash key mod t.cfg.deep_sample = 0

let retain_deep t client (c : Klog.cell_view) =
  let d =
    match Hashtbl.find_opt t.deeps c.k_key with
    | Some d -> d
    | None ->
        let d = { cells = []; count = 0; evicted = false } in
        Hashtbl.add t.deeps c.k_key d;
        d
  in
  if not d.evicted then
    if d.count >= t.cfg.deep_cap then begin
      d.evicted <- true;
      t.deep_ops <- t.deep_ops - d.count;
      d.cells <- [];
      d.count <- 0
    end
    else begin
      d.cells <- (client, c) :: d.cells;
      d.count <- d.count + 1;
      t.deep_ops <- t.deep_ops + 1
    end

(* --- one checker round -------------------------------------------------- *)

let refresh_cursors t =
  let known = List.map (fun c -> c.cw) t.cursors in
  let fresh =
    List.filter (fun w -> not (List.memq w known)) (Klog.writers t.klog)
  in
  t.cursors <-
    t.cursors @ List.map (fun w -> { cw = w; pos = 0 }) fresh

let consume t cur =
  let client = Klog.writer_client cur.cw in
  (* stage under the writer lock, process outside it *)
  let staged = ref [] in
  let view = Klog.poll cur.cw ~from:cur.pos (fun c -> staged := c :: !staged) in
  let cells = List.rev !staged in
  (* consume the contiguous completed prefix; stop at the first cell
     still in flight *)
  let frontier = ref view.Klog.clock in
  let stopped = ref false in
  List.iter
    (fun (c : Klog.cell_view) ->
      if not !stopped then
        match c.k_returned_at with
        | None ->
            stopped := true;
            frontier := c.k_invoked_at
        | Some ret ->
            cur.pos <- cur.pos + 1;
            if sampled t c.k_key then retain_deep t client c;
            if c.k_aborted then begin
              (* its effect may still land later: writes break the key,
                 reads constrain nothing *)
              if c.k_hop <> Regemu_sim.Trace.H_read then
                update t c.k_key Write_order.break
            end
            else begin
              match c.k_hop with
              | Regemu_sim.Trace.H_write v ->
                  update t c.k_key (fun wo ->
                      Write_order.add wo ~inv:c.k_invoked_at ~ret v)
              | Regemu_sim.Trace.H_read ->
                  let got =
                    match c.k_result with Some v -> v | None -> Value.v0
                  in
                  t.pending <-
                    {
                      rkey = c.k_key;
                      rinv = c.k_invoked_at;
                      rret = ret;
                      rgot = got;
                    }
                    :: t.pending;
                  t.pending_count <- t.pending_count + 1
            end)
    cells;
  Klog.trim cur.cw ~upto:cur.pos;
  !frontier

let round t =
  refresh_cursors t;
  let frontier =
    List.fold_left (fun acc cur -> min acc (consume t cur)) max_int t.cursors
  in
  if frontier = max_int then ()
  else begin
    (* decide every read whose window is complete *)
    let decidable, still =
      List.partition (fun r -> r.rret <= frontier) t.pending
    in
    List.iter (decide_read t)
      (List.sort (fun a b -> Int.compare a.rinv b.rinv) decidable);
    t.pending <- still;
    t.pending_count <- List.length still;
    (* a write concurrent with a still-undecided read must stay in the
       window — its value is admissible for that read, so folding it
       into the floor would flag the read falsely.  Bound the GC below
       every pending invocation, not just the cursor frontier. *)
    let gc_frontier =
      List.fold_left (fun acc (r : pread) -> min acc r.rinv) frontier still
    in
    settle_all t ~frontier:gc_frontier
  end;
  let r = resident_ops t in
  if r > t.max_resident then t.max_resident <- r

let pause t =
  match t.sched with
  | Some hook -> hook.Sched_hook.sleep t.cfg.interval_s
  | None -> Thread.delay t.cfg.interval_s

let loop t =
  while t.running do
    pause t;
    if t.running then round t
  done

let spawn ?sched ?(sink = Sink.none) ?(config = default_config) klog =
  if config.interval_s <= 0.0 then
    invalid_arg "Kchecker.spawn: interval_s must be positive";
  if config.deep_sample < 0 || config.deep_cap < 1 then
    invalid_arg "Kchecker.spawn: bad deep-check configuration";
  let t =
    {
      klog;
      cfg = config;
      cursors = [];
      keys = Hashtbl.create 1024;
      open_ = Hashtbl.create 64;
      pending = [];
      pending_count = 0;
      deeps = Hashtbl.create 64;
      checks = 0;
      violations = 0;
      first_violation = None;
      settled = 0;
      window_ops = 0;
      deep_ops = 0;
      max_resident = 0;
      running = true;
      thread = None;
      sched;
      settled_ctr =
        Sink.counter sink ~help:"writes discarded by the settle GC"
          "kchecker.settled";
    }
  in
  Sink.gauge_fn sink ~help:"resident checker state (window+pending+deep ops)"
    "kchecker.resident_ops" (fun () -> resident_ops t);
  Sink.gauge_fn sink ~help:"distinct keys with checker state" "kchecker.keys"
    (fun () -> Hashtbl.length t.keys);
  Sink.gauge_fn sink ~help:"keys with an open (unsettled) write window"
    "kchecker.open_keys" (fun () -> Hashtbl.length t.open_);
  Sink.gauge_fn sink ~help:"per-key WS-Regularity violations seen"
    "kchecker.violations" (fun () -> t.violations);
  (match sched with
  | None -> t.thread <- Some (Thread.create loop t)
  | Some hook -> hook.Sched_hook.spawn ~name:"kchecker" (fun () -> loop t));
  t

let checks t = t.checks
let keys t = Hashtbl.length t.keys
let open_keys t = Hashtbl.length t.open_
let settled t = t.settled
let violations_so_far t = t.violations

(* --- the final deep cross-check ---------------------------------------- *)

let deep_history d =
  let cells =
    List.sort
      (fun (_, (a : Klog.cell_view)) (_, b) ->
        Int.compare a.k_invoked_at b.k_invoked_at)
      d.cells
  in
  List.mapi
    (fun index (client, (c : Klog.cell_view)) ->
      {
        History.index;
        client;
        hop = c.k_hop;
        invoked_at = c.k_invoked_at;
        (* an aborted op is pending in history terms: its effect has no
           return point *)
        returned_at = (if c.k_aborted then None else c.k_returned_at);
        result = (if c.k_aborted then None else c.k_result);
      })
    cells

let stop t =
  t.running <- false;
  Option.iter Thread.join t.thread;
  t.thread <- None;
  (* the workers are quiescent: one final round consumes the tail, and
     the frontier computed from idle writers decides everything
     decidable *)
  round t;
  round t;
  let deep_keys = ref 0 and deep_evicted = ref 0 and deep_mismatches = ref 0 in
  Hashtbl.iter
    (fun key d ->
      if d.evicted then incr deep_evicted
      else begin
        incr deep_keys;
        match Ws_check.check_ws_regular (deep_history d) with
        | Ws_check.Holds | Ws_check.Vacuous -> ()
        | Ws_check.Violated viol ->
            (* the offline pass found a violation the incremental
               checker must have seen too — unless the key was decided
               clean, which would mean the GC lost an answer *)
            if t.violations = 0 && not (Write_order.broken (order t key))
            then begin
              incr deep_mismatches;
              if t.first_violation = None then
                t.first_violation <-
                  Some
                    {
                      v_key = key;
                      v_detail =
                        Fmt.str "deep-check key %d: %a" key
                          Ws_check.violation_pp viol;
                    }
            end
      end)
    t.deeps;
  {
    checks = t.checks;
    violations = t.violations;
    first_violation = t.first_violation;
    broken_keys =
      Hashtbl.fold
        (fun _ wo acc -> if Write_order.broken wo then acc + 1 else acc)
        t.keys 0;
    settled_writes = t.settled;
    pending_undecided = t.pending_count;
    deep_keys = !deep_keys;
    deep_evicted = !deep_evicted;
    deep_mismatches = !deep_mismatches;
    max_resident_ops = t.max_resident;
  }
