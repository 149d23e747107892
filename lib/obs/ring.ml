(* [slots] starts small and doubles up to [cap] on demand.  Until it
   reaches [cap] the ring never wraps: entries sit in [0, len) in push
   order and [head = len mod size], so growing is a plain blit. *)
type 'a t = {
  mutable slots : 'a array;
  cap : int;
  dummy : 'a;
  mutable head : int;  (* next write position *)
  mutable len : int;
  mutable pushed : int;
}

let initial_slots = 64

let create ~capacity ~dummy =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be >= 1";
  {
    slots = Array.make (min capacity initial_slots) dummy;
    cap = capacity;
    dummy;
    head = 0;
    len = 0;
    pushed = 0;
  }

let capacity t = t.cap
let length t = t.len
let pushed t = t.pushed
let dropped t = t.pushed - t.len

let grow t =
  let size = Array.length t.slots in
  let bigger = Array.make (min t.cap (2 * size)) t.dummy in
  Array.blit t.slots 0 bigger 0 size;
  t.slots <- bigger;
  t.head <- size

let push t x =
  if t.len = Array.length t.slots && t.len < t.cap then grow t;
  let size = Array.length t.slots in
  t.slots.(t.head) <- x;
  t.head <- (t.head + 1) mod size;
  if t.len < size then t.len <- t.len + 1;
  t.pushed <- t.pushed + 1

let to_list t =
  let size = Array.length t.slots in
  let start = (t.head - t.len + size) mod size in
  List.init t.len (fun i -> t.slots.((start + i) mod size))

let iter t f = List.iter f (to_list t)

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.pushed <- 0
