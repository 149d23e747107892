open Regemu_bounds

type t = { n : int; f : int; r : int }

let create ~n ~f =
  let r = Formulas.replicas_per_key ~f in
  if n < r then
    invalid_arg
      (Fmt.str "Placement.create: need n >= 2f+1 = %d servers, have %d" r n);
  { n; f; r }

let n t = t.n
let f t = t.f
let replicas_per_key t = t.r
let quorum t = t.f + 1

let hash = Regemu_live.Checker.key_hash

let replicas t key =
  let base = hash key mod t.n in
  List.init t.r (fun i -> (base + i) mod t.n)

let server_load t ~keys server =
  let count = ref 0 in
  for key = 0 to keys - 1 do
    if List.mem server (replicas t key) then incr count
  done;
  !count
