open Regemu_bounds
open Regemu_objects
open Regemu_sim
open Regemu_core

type epoch_stats = {
  epoch : int;
  write_returned : bool;
  cov_total : int;
  cov_new : int;
  cov_on_f : int;
  q_size : int;
  f_size : int;
  fresh_servers_triggered : int;
  new_cov_servers : int;
  cov_monotone : bool;
  objects_used_total : int;
  point_contention : int;
  lemma2_failure : string option;
}

let epoch_stats_pp ppf s =
  Fmt.pf ppf
    "epoch %d: returned=%b |Cov|=%d (+%d) on-F=%d |Qi|=%d |Fi|=%d fresh-servers=%d used=%d pc=%d%a"
    s.epoch s.write_returned s.cov_total s.cov_new s.cov_on_f s.q_size
    s.f_size s.fresh_servers_triggered s.objects_used_total s.point_contention
    Fmt.(option (fun ppf m -> Fmt.pf ppf " LEMMA2-FAIL: %s" m))
    s.lemma2_failure

type run = {
  params : Params.t;
  algo : string;
  f_set : Id.Server.Set.t;
  epochs : epoch_stats list;
  final_cov : int;
  final_objects_used : int;
  final_cov_per_server : (Id.Server.t * int) list;
  trace : Trace.t;
  kind_of : Id.Obj.t -> Base_object.kind;
}

let default_f_set (p : Params.t) =
  Id.Server.set_of_list
    (List.init (p.f + 1) (fun i -> Id.Server.of_int (p.n - 1 - i)))

module type MODEL = sig
  type t
  type event

  val enabled : t -> event list
  val fire : t -> event -> unit
  val completes : event -> int option
  val actions : t -> Epoch_state.action list
  val objects_used : t -> int
end

module Make (M : MODEL) = struct
  let execute m (p : Params.t) ~writers ~write ~f_set ?(check_lemma2 = true)
      ?(budget_per_epoch = 200_000) ~seed () =
    if Id.Server.Set.cardinal f_set <> p.f + 1 then
      invalid_arg "Lowerbound.execute: |F| must be f+1";
    let st = Epoch_state.create ~f_set in
    let rng = Rng.create seed in
    let card = Id.Server.Set.cardinal in
    let run_epoch i writer =
      let lemma2_failure = ref None in
      let snapshot = ref Lemma2.initial in
      let observe () =
        List.iter (Epoch_state.apply st) (M.actions m);
        if check_lemma2 && !lemma2_failure = None then
          match Lemma2.check st ~prev:!snapshot with
          | Ok snap -> snapshot := snap
          | Error fl ->
              lemma2_failure := Some (Fmt.str "%a" Lemma2.failure_pp fl)
      in
      let fire ev =
        M.fire m ev;
        observe ()
      in
      (* Ad_i never fires a blocked write's completion; the epoch-end
         extension fires no client step either *)
      let allowed ~steps =
        List.filter
          (fun ev ->
            match M.completes ev with
            | None -> steps
            | Some id -> not (Epoch_state.blocked st id))
          (M.enabled m)
      in
      let returned = write writer (Value.Str (Fmt.str "v%d" i)) in
      observe ();
      let rec drive budget =
        if returned () then Ok budget
        else if budget = 0 then
          Error (Fmt.str "epoch %d: write exhausted its budget under Ad_i" i)
        else
          match allowed ~steps:true with
          | [] ->
              Error
                (Fmt.str
                   "epoch %d: write is stuck — every enabled event is \
                    blocked (obstruction-freedom violation under Ad_i)"
                   i)
          | evs ->
              fire (Rng.pick rng evs);
              drive (budget - 1)
      in
      (* epoch-end extension: fire the allowed completions until none is
         left; then no newly covered register may remain on F *)
      let rec extend budget =
        match allowed ~steps:false with
        | [] ->
            if
              Id.Server.Set.is_empty
                (Id.Server.Set.inter (Epoch_state.delta_covi st) f_set)
            then Ok ()
            else
              Error
                (Fmt.str
                   "epoch %d: F still newly covered but no allowed response \
                    remains"
                   i)
        | ev :: _ ->
            if budget = 0 then
              Error (Fmt.str "epoch %d: extension exhausted its budget" i)
            else begin
              fire ev;
              extend (budget - 1)
            end
      in
      match drive budget_per_epoch with
      | Error _ as e -> e
      | Ok budget_left -> (
          let q_size = card (Epoch_state.qi st) in
          let f_size = card (Epoch_state.fi st) in
          let fresh = card (Epoch_state.servers_triggered_fresh st) in
          match extend budget_left with
          | Error _ as e -> e
          | Ok () ->
              let cov = Epoch_state.cov_now st in
              let cov_start = Epoch_state.cov_start st in
              let stats =
                {
                  epoch = i;
                  write_returned = true;
                  cov_total = Id.Obj.Set.cardinal cov;
                  cov_new = Id.Obj.Set.cardinal (Id.Obj.Set.diff cov cov_start);
                  cov_on_f =
                    Id.Obj.Set.cardinal
                      (Id.Obj.Set.filter
                         (fun b ->
                           Id.Server.Set.mem (Epoch_state.delta st b) f_set)
                         cov);
                  q_size;
                  f_size;
                  fresh_servers_triggered = fresh;
                  new_cov_servers = card (Epoch_state.delta_covi st);
                  cov_monotone = Id.Obj.Set.subset cov_start cov;
                  objects_used_total = M.objects_used m;
                  point_contention = 1;
                  lemma2_failure = !lemma2_failure;
                }
              in
              Epoch_state.next_epoch st ~completed:writer;
              Ok stats)
    in
    let rec epochs i acc = function
      | [] -> Ok (List.rev acc)
      | w :: rest -> (
          match run_epoch i w with
          | Error _ as e -> e
          | Ok stats -> epochs (i + 1) (stats :: acc) rest)
    in
    epochs 1 [] writers
end

module On_sim = struct
  type t = { sim : Sim.t; mutable cursor : int }
  type event = Sim.event

  let create sim = { sim; cursor = Sim.now sim }

  let enabled t = Sim.enabled t.sim
  let fire t = Sim.fire t.sim

  let completes = function
    | Sim.Step _ -> None
    | Sim.Respond lid -> Some (Id.Lop.to_int lid)

  let actions t =
    let entries = Trace.since (Sim.trace t.sim) t.cursor in
    t.cursor <- Sim.now t.sim;
    List.filter_map
      (function
        | Trace.Trigger { lid; client; obj; op = Base_object.Write _ } ->
            Some
              (Epoch_state.Trigger
                 {
                   id = Id.Lop.to_int lid;
                   client;
                   obj;
                   server = Sim.delta t.sim obj;
                 })
        | Trace.Respond { lid; op = Base_object.Write _; _ } ->
            Some (Epoch_state.Respond (Id.Lop.to_int lid))
        | _ -> None)
      entries

  let objects_used t = Id.Obj.Set.cardinal (Sim.used_objects t.sim)
end

module Sim_run = Make (On_sim)

let execute (factory : Emulation.factory) (p : Params.t) ?f_set ?check_lemma2
    ?budget_per_epoch ~seed () =
  let f_set = Option.value f_set ~default:(default_f_set p) in
  let sim = Sim.create ~n:p.n () in
  let writers = List.init p.k (fun _ -> Sim.new_client sim) in
  let instance = factory.make sim p ~writers in
  let write c v =
    let call = instance.write c v in
    fun () -> Sim.call_returned call
  in
  Sim_run.execute (On_sim.create sim) p ~writers ~write
    ~f_set ?check_lemma2 ?budget_per_epoch ~seed ()
  |> Result.map (fun epochs ->
         let covered = Sim.covered_objects sim in
         {
           params = p;
           algo = factory.name;
           f_set;
           epochs;
           final_cov = Id.Obj.Set.cardinal covered;
           final_objects_used = Id.Obj.Set.cardinal (Sim.used_objects sim);
           final_cov_per_server =
             List.map
               (fun s ->
                 ( s,
                   Id.Obj.Set.cardinal
                     (Id.Obj.Set.filter
                        (fun b -> Id.Server.equal (Sim.delta sim b) s)
                        covered) ))
               (Sim.servers sim);
           trace = Sim.trace sim;
           kind_of = Sim.kind_of sim;
         })
