open Regemu_objects

type write = {
  id : int;
  client : Id.Client.t;
  obj : Id.Obj.t;
  server : Id.Server.t;
}

type action = Trigger of write | Respond of int

module Ints = Set.Make (Int)

type t = {
  f_set : Id.Server.Set.t;
  f : int;  (* |F| - 1 *)
  pending : (int, write) Hashtbl.t;  (* every pending write, by id *)
  cover : (int, int) Hashtbl.t;  (* pending writes per register *)
  servers : (int, Id.Server.t) Hashtbl.t;  (* delta, from the triggers *)
  mutable completed : Id.Client.Set.t;  (* C(t_{i-1}) *)
  mutable cov_start : Id.Obj.Set.t;
  mutable epoch_writes : Ints.t;  (* ids triggered in-epoch *)
  mutable tri : Id.Obj.Set.t;
  mutable rri : Id.Obj.Set.t;
  mutable covi : Id.Obj.Set.t;
  mutable qi : Id.Server.Set.t;
  mutable fi : Id.Server.Set.t;
}

let create ~f_set =
  {
    f_set;
    f = Id.Server.Set.cardinal f_set - 1;
    pending = Hashtbl.create 32;
    cover = Hashtbl.create 32;
    servers = Hashtbl.create 32;
    completed = Id.Client.Set.empty;
    cov_start = Id.Obj.Set.empty;
    epoch_writes = Ints.empty;
    tri = Id.Obj.Set.empty;
    rri = Id.Obj.Set.empty;
    covi = Id.Obj.Set.empty;
    qi = Id.Server.Set.empty;
    fi = Id.Server.Set.empty;
  }

let f_set t = t.f_set
let f_count t = t.f
let delta t b = Hashtbl.find t.servers (Id.Obj.to_int b)

let delta_set t objs =
  Id.Obj.Set.fold (fun b acc -> Id.Server.Set.add (delta t b) acc) objs
    Id.Server.Set.empty

(* Definition 1.4: Q_i follows delta(Cov_i) \ F while that set has at
   most f servers, and freezes otherwise. *)
let update_qi t =
  let d = Id.Server.Set.diff (delta_set t t.covi) t.f_set in
  if Id.Server.Set.cardinal d <= t.f then t.qi <- d

(* A register enters or leaves Cov(t) when its pending count moves
   between 0 and 1; outside Cov(t_{i-1}) that is Cov_i moving too. *)
let bump t b d =
  let key = Id.Obj.to_int b in
  let before = Option.value ~default:0 (Hashtbl.find_opt t.cover key) in
  let after = before + d in
  if after = 0 then Hashtbl.remove t.cover key
  else Hashtbl.replace t.cover key after;
  if (before = 0 || after = 0) && not (Id.Obj.Set.mem b t.cov_start) then begin
    t.covi <-
      (if after = 0 then Id.Obj.Set.remove b t.covi
       else Id.Obj.Set.add b t.covi);
    update_qi t
  end

let apply t = function
  | Trigger w ->
      Hashtbl.replace t.pending w.id w;
      Hashtbl.replace t.servers (Id.Obj.to_int w.obj) w.server;
      t.epoch_writes <- Ints.add w.id t.epoch_writes;
      t.tri <- Id.Obj.Set.add w.obj t.tri;
      bump t w.obj 1
  | Respond id -> (
      match Hashtbl.find_opt t.pending id with
      | None -> ()
      | Some w ->
          Hashtbl.remove t.pending id;
          if Ints.mem id t.epoch_writes then begin
            t.rri <- Id.Obj.Set.add w.obj t.rri;
            if Id.Server.Set.mem w.server t.f_set then
              t.fi <- Id.Server.Set.add w.server t.fi
          end;
          bump t w.obj (-1))

let cov_now t =
  Hashtbl.fold
    (fun _ (w : write) acc -> Id.Obj.Set.add w.obj acc)
    t.pending Id.Obj.Set.empty

let next_epoch t ~completed =
  t.completed <- Id.Client.Set.add completed t.completed;
  t.cov_start <- cov_now t;
  t.epoch_writes <- Ints.empty;
  t.tri <- Id.Obj.Set.empty;
  t.rri <- Id.Obj.Set.empty;
  t.covi <- Id.Obj.Set.empty;
  t.qi <- Id.Server.Set.empty;
  t.fi <- Id.Server.Set.empty

let tri t = t.tri
let rri t = t.rri
let covi t = t.covi
let qi t = t.qi
let fi t = t.fi
let delta_covi t = delta_set t t.covi
let delta_rri t = delta_set t t.rri
let cov_start t = t.cov_start

let mi t =
  Id.Server.Set.inter (delta_covi t) (Id.Server.Set.diff t.f_set t.fi)

let gi t =
  if Id.Server.Set.cardinal t.qi < Id.Server.Set.cardinal t.fi then mi t
  else Id.Server.Set.empty

let blocked t id =
  match Hashtbl.find_opt t.pending id with
  | None -> false
  | Some w ->
      Id.Client.Set.mem w.client t.completed
      || Id.Server.Set.mem w.server (Id.Server.Set.union t.qi (gi t))

let servers_triggered_fresh t =
  delta_set t (Id.Obj.Set.diff t.tri t.cov_start)
