open Regemu_objects
open Regemu_sim

(* One chunk of cells as parallel arrays: slot [i] is cell number
   [base + i].  No per-op record, no option boxes, no hop box: an
   operation costs one slot in each of six arrays. *)
type chunk = {
  base : int;
  tag : int array;  (* the key in a writer's log, the client in a store *)
  inv : int array;  (* invocation tick [lsl 1], [lor 1] for a write *)
  arg : Value.t array;  (* a write's value *)
  ret : int array;  (* 0 while pending (the clock starts at 1), -1 aborted *)
  ns : int array;  (* monotonic invocation ns until return, then the latency *)
  result : Value.t array;  (* meaningful once [ret > 0] *)
}

let pending = 0
let aborted = -1

(* chunks start small and double up to [max_chunk] slots: a short-lived
   client allocates little, a long run pays one header per 256 ops *)
let first_chunk = 8
let max_chunk = 256

let new_chunk ~base size =
  {
    base;
    tag = Array.make size 0;
    inv = Array.make size 0;
    arg = Array.make size Value.v0;
    ret = Array.make size pending;
    ns = Array.make size 0;
    result = Array.make size Value.v0;
  }

let capacity c = Array.length c.inv

(* Cells appended at the back and released a chunk at a time from the
   front: [chunks.(lo) .. chunks.(hi - 1)] are live, oldest first, and
   positions are absolute, so trimming renumbers nothing. *)
type cells = {
  mutable chunks : chunk array;
  mutable lo : int;
  mutable hi : int;
  mutable len : int;  (* cells ever appended *)
}

let cells () =
  { chunks = [| new_chunk ~base:0 first_chunk |]; lo = 0; hi = 1; len = 0 }

(* the chunk with room for cell [s.len]; a full chunk table is
   compacted over the trimmed slots when they are half of it, else
   doubled *)
let room s =
  let c = s.chunks.(s.hi - 1) in
  if s.len < c.base + capacity c then c
  else begin
    let c' = new_chunk ~base:s.len (min max_chunk (2 * capacity c)) in
    if s.hi = Array.length s.chunks then begin
      let live = s.hi - s.lo in
      let table =
        if 2 * live <= Array.length s.chunks then s.chunks
        else Array.make (2 * Array.length s.chunks) c'
      in
      Array.blit s.chunks s.lo table 0 live;
      Array.fill table live (Array.length table - live) c';
      s.chunks <- table;
      s.lo <- 0;
      s.hi <- live
    end;
    s.chunks.(s.hi) <- c';
    s.hi <- s.hi + 1;
    c'
  end

(* drop the chunks wholly below [upto], always keeping the newest *)
let drop_below s ~upto =
  while
    s.hi - s.lo > 1
    &&
    let c = s.chunks.(s.lo) in
    c.base + capacity c <= upto
  do
    s.chunks.(s.lo) <- s.chunks.(s.hi - 1);
    s.lo <- s.lo + 1
  done

(* Visit cells [from ..], oldest first; [f] gets the chunk and the
   slot.  The chunks before [from] are skipped by walking back from the
   newest, so a visit that is nearly caught up costs O(new cells). *)
let iter_from s ~from f =
  let rec first ci =
    if ci > s.lo && s.chunks.(ci).base > from then first (ci - 1) else ci
  in
  for ci = first (s.hi - 1) to s.hi - 1 do
    let c = s.chunks.(ci) in
    for i = max 0 (from - c.base) to min (capacity c) (s.len - c.base) - 1 do
      f c i
    done
  done

(* the words [s] keeps alive: its record and chunk table, and each live
   chunk's six arrays and record *)
let words s =
  let n = ref (Array.length s.chunks + 1 + 5) in
  for ci = s.lo to s.hi - 1 do
    n := !n + (6 * (capacity s.chunks.(ci) + 1)) + 8
  done;
  !n

(* The log's one consumer: a pass that a completing thread runs at
   most once per [every_ns], never two at once.  [pm] serialises the
   passes; [live] turns false under it at {!detach}, so a thread that
   read the slot before then runs nothing after. *)
type consumer = {
  pm : Mutex.t;
  every_ns : int;
  mutable due_ns : int;  (* written under [pm]; read racily, an int *)
  mutable live : bool;  (* under [pm] *)
  pass : unit -> unit;
}

type t = {
  m : Mutex.t;  (* guards [writers] registration only *)
  mutable writers : writer list;
  clock : int Atomic.t;  (* the real-time event order *)
  invoked : int Atomic.t;
  completed : int Atomic.t;
  mutable consumer : consumer option;
}

and writer = {
  log : t;
  client : Id.Client.t;
  wm : Mutex.t;  (* guards [cells]; never contended across clients —
                    the op hot path shares no lock *)
  cells : cells;
}

type ticket = { tw : writer; tc : chunk; slot : int }

let create () =
  {
    m = Mutex.create ();
    writers = [];
    clock = Atomic.make 1;
    invoked = Atomic.make 0;
    completed = Atomic.make 0;
    consumer = None;
  }

let new_writer t ~client =
  let w = { log = t; client; wm = Mutex.create (); cells = cells () } in
  Mutex.lock t.m;
  t.writers <- w :: t.writers;
  Mutex.unlock t.m;
  w

let tick t = Atomic.fetch_and_add t.clock 1
let invoked_at c i = c.inv.(i) lsr 1

let hop c i =
  if c.inv.(i) land 1 = 1 then Trace.H_write c.arg.(i) else Trace.H_read

let invoke w ?(key = 0) hop =
  let t = w.log in
  let ns = Int64.to_int (Clock.now_ns ()) in
  Mutex.lock w.wm;
  let s = w.cells in
  let c = room s in
  let i = s.len - c.base in
  c.tag.(i) <- key;
  (match hop with
  | Trace.H_write v ->
      c.inv.(i) <- (tick t lsl 1) lor 1;
      c.arg.(i) <- v
  | Trace.H_read -> c.inv.(i) <- tick t lsl 1);
  c.ns.(i) <- ns;
  s.len <- s.len + 1;
  Mutex.unlock w.wm;
  Atomic.incr t.invoked;
  { tw = w; tc = c; slot = i }

(* a pass that is due runs here, on the completing thread, before
   its operation returns to its caller; a thread that finds one
   already running skips it rather than wait *)
let serve t now =
  match t.consumer with
  | Some c when now >= c.due_ns && Mutex.try_lock c.pm ->
      Fun.protect
        ~finally:(fun () -> Mutex.unlock c.pm)
        (fun () ->
          if c.live && now >= c.due_ns then begin
            c.due_ns <- now + c.every_ns;
            c.pass ()
          end)
  | _ -> ()

let return { tw; tc; slot } v =
  let t = tw.log in
  Mutex.lock tw.wm;
  tc.ret.(slot) <- tick t;
  tc.result.(slot) <- v;
  let now = Int64.to_int (Clock.now_ns ()) in
  tc.ns.(slot) <- now - tc.ns.(slot);
  Mutex.unlock tw.wm;
  Atomic.incr t.completed;
  serve t now

let abort { tw; tc; slot } =
  Mutex.lock tw.wm;
  tc.ret.(slot) <- aborted;
  Mutex.unlock tw.wm;
  serve tw.log (Int64.to_int (Clock.now_ns ()))

let attach t ~interval_s pass =
  if Option.is_some t.consumer then
    invalid_arg "Histlog.attach: the log has a consumer";
  let every_ns = int_of_float (interval_s *. 1e9) in
  t.consumer <-
    Some
      {
        pm = Mutex.create ();
        every_ns;
        due_ns = Int64.to_int (Clock.now_ns ()) + every_ns;
        live = true;
        pass;
      }

let detach t =
  Option.iter
    (fun c ->
      Mutex.lock c.pm;
      c.live <- false;
      t.consumer <- None;
      Mutex.unlock c.pm)
    t.consumer

let writers t =
  Mutex.lock t.m;
  let ws = t.writers in
  Mutex.unlock t.m;
  ws

let writer_client w = w.client

type cell_view = {
  v_key : int;
  v_hop : Trace.hop;
  v_invoked_at : int;
  v_returned_at : int;
  v_aborted : bool;
  v_result : Value.t;
  v_latency_ns : int;
}

let poll w ~from f =
  Mutex.lock w.wm;
  iter_from w.cells ~from (fun c i ->
      let r = c.ret.(i) in
      f
        {
          v_key = c.tag.(i);
          v_hop = hop c i;
          v_invoked_at = invoked_at c i;
          v_returned_at = max r 0;
          v_aborted = r = aborted;
          v_result = c.result.(i);
          v_latency_ns = (if r > 0 then c.ns.(i) else 0);
        });
  let len = w.cells.len in
  Mutex.unlock w.wm;
  len

let trim w ~upto =
  Mutex.lock w.wm;
  drop_below w.cells ~upto;
  Mutex.unlock w.wm

let clock t = Atomic.get t.clock
let completed t = Atomic.get t.completed
let invoked t = Atomic.get t.invoked

let approx_bytes t =
  let n =
    List.fold_left
      (fun acc w ->
        Mutex.lock w.wm;
        let n = words w.cells + 5 in
        Mutex.unlock w.wm;
        acc + n)
      0 (writers t)
  in
  n * (Sys.word_size / 8)

(* --- retained copies ---------------------------------------------------- *)

type store = cells

let store = cells

let keep s ~client (v : cell_view) =
  let c = room s in
  let i = s.len - c.base in
  c.tag.(i) <- Id.Client.to_int client;
  (match v.v_hop with
  | Trace.H_write a ->
      c.inv.(i) <- (v.v_invoked_at lsl 1) lor 1;
      c.arg.(i) <- a
  | Trace.H_read -> c.inv.(i) <- v.v_invoked_at lsl 1);
  c.ret.(i) <- (if v.v_aborted then aborted else v.v_returned_at);
  c.ns.(i) <- v.v_latency_ns;
  c.result.(i) <- v.v_result;
  s.len <- s.len + 1

let kept s = s.len
let store_bytes s = words s * (Sys.word_size / 8)

(* the kept cells as (invocation tick, chunk, slot), in invocation
   order: cells of different clients arrive interleaved *)
let sorted s =
  let acc = ref [] in
  iter_from s ~from:0 (fun c i -> acc := (invoked_at c i, c, i) :: !acc);
  List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) !acc

let history s =
  List.mapi
    (fun index (invoked_at, c, i) ->
      let returned_at, result =
        if c.ret.(i) > 0 then (Some c.ret.(i), Some c.result.(i))
        else (None, None)
      in
      {
        Regemu_history.History.index;
        client = Id.Client.of_int c.tag.(i);
        hop = hop c i;
        invoked_at;
        returned_at;
        result;
      })
    (sorted s)

let latencies_ns s =
  List.filter_map
    (fun (_, c, i) -> if c.ret.(i) > 0 then Some c.ns.(i) else None)
    (sorted s)
