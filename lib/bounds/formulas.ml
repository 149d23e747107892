let ceil_div a b =
  if b <= 0 then invalid_arg "Formulas.ceil_div: divisor must be positive";
  (a + b - 1) / b

let z (p : Params.t) = (p.n - (p.f + 1)) / p.f
let y (p : Params.t) = (z p * p.f) + p.f + 1
let num_sets (p : Params.t) = ceil_div p.k (z p)

let set_sizes (p : Params.t) =
  let z = z p and y = y p in
  let full = p.k / z and rem = p.k mod z in
  let fulls = List.init full (fun _ -> y) in
  if rem = 0 then fulls else fulls @ [ (rem * p.f) + p.f + 1 ]

let placement ~set ~index ~n = (set + index) mod n

(* [List.mapi] and [Array.init] both apply in index order *)
let walk_sets ?(placement = placement) ~n sizes alloc =
  List.mapi
    (fun set size ->
      Array.init size (fun index -> alloc (placement ~set ~index ~n)))
    sizes

let register_lower_bound (p : Params.t) =
  (p.k * p.f) + (ceil_div (p.k * p.f) (p.n - (p.f + 1)) * (p.f + 1))

let register_upper_bound (p : Params.t) =
  (p.k * p.f) + (ceil_div p.k (z p) * (p.f + 1))

let maxreg_bound (p : Params.t) = (2 * p.f) + 1
let cas_bound = maxreg_bound
let maxreg_register_lower_bound ~k = k

let per_server_lower_bound_at_minimum_n (p : Params.t) =
  if p.n <> (2 * p.f) + 1 then
    invalid_arg "per_server_lower_bound_at_minimum_n: requires n = 2f+1";
  p.k

let min_servers ~k ~f ~capacity =
  if capacity <= 0 then invalid_arg "Formulas.min_servers: capacity <= 0";
  ceil_div (k * f) capacity + f + 1

let max_writers ~f ~n ~budget =
  match Params.make ~k:1 ~f ~n with
  | Error _ -> None
  | Ok p1 ->
      if register_upper_bound p1 > budget then None
      else begin
        (* the bound grows by at least f per writer, so k <= budget/f *)
        let rec grow k best =
          if k > (budget / f) + 1 then best
          else
            match Params.make ~k ~f ~n with
            | Error _ -> best
            | Ok p ->
                if register_upper_bound p <= budget then grow (k + 1) k
                else best
        in
        Some (grow 2 1)
      end

let bounds_coincide p = register_lower_bound p = register_upper_bound p
let saturation_n ~k ~f = (k * f) + f + 1

let replicas_per_key ~f =
  if f < 1 then invalid_arg "Formulas.replicas_per_key: f < 1";
  (2 * f) + 1

let max_keys ~n ~f ~per_server_capacity =
  if per_server_capacity <= 0 then
    invalid_arg "Formulas.max_keys: per_server_capacity <= 0";
  let r = replicas_per_key ~f in
  if n < r then None
  else
    (* each key costs one max-register cell on each of its 2f+1
       replicas; a balanced layout spreads K*r cells over n servers *)
    Some (n * per_server_capacity / r)
