(* Percentiles by nearest rank, always reported with the sample count
   they rest on, plus the growable sample buffer the load loops fill. *)

type summary = { count : int; p50 : float; p90 : float; p99 : float }

let empty = { count = 0; p50 = 0.0; p90 = 0.0; p99 = 0.0 }

(* nearest rank: the smallest sample with at least [q] of the samples
   at or below it *)
let rank sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Pct.rank: no samples";
  if q <= 0.0 || q > 1.0 then invalid_arg "Pct.rank: quantile outside (0, 1]";
  let i = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) - 1 in
  sorted.(max 0 (min (n - 1) i))

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let summarize a =
  if Array.length a = 0 then empty
  else
    let s = sorted a in
    { count = Array.length s; p50 = rank s 0.5; p90 = rank s 0.9; p99 = rank s 0.99 }

let median a = if Array.length a = 0 then 0.0 else rank (sorted a) 0.5

module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create ?(capacity = 1024) () =
    { data = Array.make (max 1 capacity) 0.0; len = 0 }

  let push t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len
  let to_array t = Array.sub t.data 0 t.len
end

(* A run split into [windows] equal windows by completion time, each
   window summarised on its own and the summaries' medians reported:
   a hiccup that slows one window moves the medians by one rank, not
   by its whole weight. *)
type windowed = {
  windows : int;
  rate : float;  (** median per-window completions per second *)
  w_p50 : float;  (** median of the windows' p50 *)
  w_p90 : float;  (** median of the windows' p90 *)
}

let windowed ~t_start ~t_end ~windows ~times ~values =
  if windows < 1 || Array.length times <> Array.length values then
    invalid_arg "Pct.windowed";
  let width = (t_end -. t_start) /. float_of_int windows in
  let buckets = Array.init windows (fun _ -> Samples.create ~capacity:256 ()) in
  Array.iteri
    (fun i t ->
      let w = int_of_float ((t -. t_start) /. width) in
      if t >= t_start && w >= 0 && w < windows then Samples.push buckets.(w) values.(i))
    times;
  let per = Array.map Samples.to_array buckets in
  let nonempty = List.filter (fun a -> Array.length a > 0) (Array.to_list per) in
  let med f = median (Array.of_list (List.map f nonempty)) in
  {
    windows;
    rate = median (Array.map (fun a -> float_of_int (Array.length a) /. width) per);
    w_p50 = med (fun a -> (summarize a).p50);
    w_p90 = med (fun a -> (summarize a).p90);
  }
