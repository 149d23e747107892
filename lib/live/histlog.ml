open Regemu_objects
open Regemu_sim

(* One chunk of a writer's cells as parallel arrays: slot [i] is the
   writer's operation number [base + i].  No per-op record, no option
   boxes, no hop box: an operation costs one slot in each of five
   arrays. *)
type chunk = {
  base : int;
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
    inv = Array.make size 0;
    arg = Array.make size Value.v0;
    ret = Array.make size pending;
    ns = Array.make size 0;
    result = Array.make size Value.v0;
  }

type t = {
  m : Mutex.t;  (* guards [writers] registration only *)
  mutable writers : writer list;
  clock : int Atomic.t;  (* the real-time event order *)
  invoked : int Atomic.t;
  completed : int Atomic.t;
}

and writer = {
  log : t;
  client : Id.Client.t;
  wm : Mutex.t;  (* guards this client's chunks; never contended across
                    clients — the op hot path shares no lock *)
  mutable chunks : chunk array;  (* the first [nchunks], oldest first *)
  mutable nchunks : int;
  mutable len : int;  (* cells appended *)
}

type ticket = { tw : writer; tc : chunk; slot : int }

let create () =
  {
    m = Mutex.create ();
    writers = [];
    clock = Atomic.make 1;
    invoked = Atomic.make 0;
    completed = Atomic.make 0;
  }

let new_writer t ~client =
  let w =
    {
      log = t;
      client;
      wm = Mutex.create ();
      chunks = [| new_chunk ~base:0 first_chunk |];
      nchunks = 1;
      len = 0;
    }
  in
  Mutex.lock t.m;
  t.writers <- w :: t.writers;
  Mutex.unlock t.m;
  w

let tick t = Atomic.fetch_and_add t.clock 1
let capacity c = Array.length c.inv
let invoked_at c i = c.inv.(i) lsr 1

let hop c i =
  if c.inv.(i) land 1 = 1 then Trace.H_write c.arg.(i) else Trace.H_read

(* the chunk with room for cell [w.len]; caller holds [wm] *)
let room w =
  let c = w.chunks.(w.nchunks - 1) in
  if w.len < c.base + capacity c then c
  else begin
    let c' = new_chunk ~base:w.len (min max_chunk (2 * capacity c)) in
    if w.nchunks = Array.length w.chunks then
      w.chunks <- Array.append w.chunks (Array.make w.nchunks c');
    w.chunks.(w.nchunks) <- c';
    w.nchunks <- w.nchunks + 1;
    c'
  end

let invoke w hop =
  let t = w.log in
  let ns = Int64.to_int (Clock.now_ns ()) in
  Mutex.lock w.wm;
  let c = room w in
  let i = w.len - c.base in
  (* the tick is taken under [wm]: once a poll of this writer has
     released the lock, every cell it missed is invoked after the clock
     value read before that poll *)
  (match hop with
  | Trace.H_write v ->
      c.inv.(i) <- (tick t lsl 1) lor 1;
      c.arg.(i) <- v
  | Trace.H_read -> c.inv.(i) <- tick t lsl 1);
  c.ns.(i) <- ns;
  w.len <- w.len + 1;
  Mutex.unlock w.wm;
  Atomic.incr t.invoked;
  { tw = w; tc = c; slot = i }

let return { tw; tc; slot } v =
  let t = tw.log in
  Mutex.lock tw.wm;
  tc.ret.(slot) <- tick t;
  tc.result.(slot) <- v;
  tc.ns.(slot) <- Int64.to_int (Clock.now_ns ()) - tc.ns.(slot);
  Mutex.unlock tw.wm;
  Atomic.incr t.completed

let abort { tw; tc; slot } =
  Mutex.lock tw.wm;
  tc.ret.(slot) <- aborted;
  Mutex.unlock tw.wm

(* Visit cells [from ..] of one writer, oldest first, under its lock.
   [f] gets the chunk and the slot. *)
let iter_from w ~from f =
  let rec first ci =
    if ci > 0 && w.chunks.(ci).base > from then first (ci - 1) else ci
  in
  for ci = first (w.nchunks - 1) to w.nchunks - 1 do
    let c = w.chunks.(ci) in
    for i = max 0 (from - c.base) to min (capacity c) (w.len - c.base) - 1 do
      f c i
    done
  done

let fold_writer w f acc =
  let acc = ref acc in
  Mutex.lock w.wm;
  iter_from w ~from:0 (fun c i -> acc := f !acc c i);
  Mutex.unlock w.wm;
  !acc

let writers t =
  Mutex.lock t.m;
  let ws = t.writers in
  Mutex.unlock t.m;
  ws

let writer_client w = w.client

type cell_view = {
  v_hop : Trace.hop;
  v_invoked_at : int;
  v_returned_at : int;
  v_aborted : bool;
  v_result : Value.t;
}

(* the online checker's incremental feed: the chunks before [from] are
   skipped by walking back from the newest, so a poll that is nearly
   caught up costs O(new cells), not O(history) *)
let poll w ~from f =
  Mutex.lock w.wm;
  iter_from w ~from (fun c i ->
      let r = c.ret.(i) in
      f
        {
          v_hop = hop c i;
          v_invoked_at = invoked_at c i;
          v_returned_at = max r 0;
          v_aborted = r = aborted;
          v_result = c.result.(i);
        });
  let len = w.len in
  Mutex.unlock w.wm;
  len

let clock t = Atomic.get t.clock

(* Cells across clients merge by the shared atomic clock: sorting by
   [invoked_at] rebuilds global invocation order, and the index is the
   rank in that order.  An aborted cell reads as pending: its effect
   has no return point. *)
let snapshot t =
  let cells =
    List.fold_left
      (fun acc w ->
        fold_writer w
          (fun acc c i ->
            let hop = hop c i and invoked_at = invoked_at c i in
            let returned_at, result =
              if c.ret.(i) > 0 then (Some c.ret.(i), Some c.result.(i))
              else (None, None)
            in
            ( invoked_at,
              fun index ->
                {
                  Regemu_history.History.index;
                  client = w.client;
                  hop;
                  invoked_at;
                  returned_at;
                  result;
                } )
            :: acc)
          acc)
      [] (writers t)
  in
  let cells = List.sort (fun (a, _) (b, _) -> Int.compare a b) cells in
  List.mapi (fun i (_, mk) -> mk i) cells

let completed t = Atomic.get t.completed
let invoked t = Atomic.get t.invoked

(* The words the log keeps alive: each chunk's five arrays and record,
   and each writer's chunk table and record.  Written values and read
   results are the callers' data and are not counted. *)
let approx_bytes t =
  let words =
    List.fold_left
      (fun acc w ->
        Mutex.lock w.wm;
        let n = ref (Array.length w.chunks + 1 + 8) in
        for ci = 0 to w.nchunks - 1 do
          n := !n + (5 * (capacity w.chunks.(ci) + 1)) + 7
        done;
        Mutex.unlock w.wm;
        acc + !n)
      0 (writers t)
  in
  words * (Sys.word_size / 8)

let latencies_ns t =
  let lats =
    List.fold_left
      (fun acc w ->
        fold_writer w
          (fun acc c i ->
            if c.ret.(i) > 0 then (invoked_at c i, c.ns.(i)) :: acc else acc)
          acc)
      [] (writers t)
  in
  List.map snd (List.sort (fun (a, _) (b, _) -> Int.compare a b) lats)
