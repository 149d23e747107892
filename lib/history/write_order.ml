open Regemu_objects

(* the unsettled writes by invocation: the first [n] slots of three
   parallel arrays, grown by doubling *)
type window = {
  inv : int array;
  ret : int array;
  value : Value.t array;
  mutable n : int;
}

type t = {
  mutable floor_ret : int;  (* [min_int] while the floor is v0 *)
  mutable floor_val : Value.t;
  mutable win : window;  (* [empty] when idle: a settled key costs 4 fields *)
  mutable broken : bool;
}

(* every empty window; with no room in it, [add] never writes it *)
let empty = { inv = [||]; ret = [||]; value = [||]; n = 0 }

let create () =
  { floor_ret = min_int; floor_val = Value.v0; win = empty; broken = false }

let broken t = t.broken
let length t = t.win.n

let break t =
  t.broken <- true;
  t.win <- empty

(* the first [i] in [0, n) with [not (ok i)], for [ok] true then false *)
let count ok n =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if ok mid then go (mid + 1) hi else go lo mid
  in
  go 0 n

(* A write lands at its invocation position and must follow the write
   before it and precede the one after: a list sorted by invocation
   whose neighbours are ordered is totally ordered.  The common case,
   the newest write, is an O(1) append. *)
let add t ~inv ~ret v =
  if not t.broken then begin
    let w = t.win in
    let p = ref w.n in
    while !p > 0 && w.inv.(!p - 1) > inv do
      decr p
    done;
    let p = !p in
    if
      (if p = 0 then t.floor_ret else w.ret.(p - 1)) >= inv
      || (p < w.n && w.inv.(p) <= ret)
    then break t
    else begin
      let w =
        if w.n < Array.length w.inv then w
        else
          let grow a fill = Array.append a (Array.make (max 1 w.n) fill) in
          let w' =
            {
              inv = grow w.inv 0;
              ret = grow w.ret 0;
              value = grow w.value Value.v0;
              n = w.n;
            }
          in
          t.win <- w';
          w'
      in
      let shift a = Array.blit a p a (p + 1) (w.n - p) in
      shift w.inv;
      shift w.ret;
      shift w.value;
      w.inv.(p) <- inv;
      w.ret.(p) <- ret;
      w.value.(p) <- v;
      w.n <- w.n + 1
    end
  end

let settle t ~frontier =
  let w = t.win in
  let k = count (fun i -> w.ret.(i) < frontier) w.n in
  if k > 0 then begin
    t.floor_ret <- w.ret.(k - 1);
    t.floor_val <- w.value.(k - 1);
    let drop a = Array.blit a k a 0 (w.n - k) in
    drop w.inv;
    drop w.ret;
    drop w.value;
    w.n <- w.n - k;
    if w.n = 0 then t.win <- empty else Array.fill w.value w.n k Value.v0
  end;
  k

type in_flight = (int * Value.t) array

(* an in-flight write precedes nothing: it must follow every completed
   write, and two of them are never ordered *)
let total t ~in_flight =
  (not t.broken)
  &&
  match in_flight with
  | [||] -> true
  | [| (inv, _) |] ->
      let w = t.win in
      inv > if w.n = 0 then t.floor_ret else w.ret.(w.n - 1)
  | _ -> false

let check_read t ?(in_flight = [||]) ~inv ~ret got =
  if t.broken then None
  else
    let w = t.win in
    let value j =
      if j = 0 then t.floor_val
      else if j <= w.n then w.value.(j - 1)
      else snd in_flight.(j - 1 - w.n)
    in
    let p = count (fun i -> w.ret.(i) < inv) w.n in
    let q =
      count
        (fun i -> (if i < w.n then w.inv.(i) else fst in_flight.(i - w.n)) <= ret)
        (w.n + Array.length in_flight)
    in
    let rec admissible j =
      j <= q && (Value.equal got (value j) || admissible (j + 1))
    in
    if admissible p then None
    else Some (List.init (q - p + 1) (fun i -> value (p + i)))
