open Regemu_bounds
open Regemu_objects
open Regemu_sim
open Regemu_history

type script = (Id.Client.t * Trace.hop list) list

type mode = Eager | Sequential

type scenario = {
  params : Params.t;
  mode : mode;
  crashes : int;
  make : unit -> Sim.t * (Id.Client.t -> Trace.hop -> Sim.call) * script;
}

let emulation_scenario (factory : Regemu_core.Emulation.factory)
    (p : Params.t) ?(mode = Eager) ?(crashes = 0) ~writer_ops ~readers
    ~reads_each () =
  if List.length writer_ops <> p.k then
    invalid_arg "Explore.emulation_scenario: writer_ops size must be k";
  let make () =
    let sim = Sim.create ~n:p.n () in
    let writers = List.init p.k (fun _ -> Sim.new_client sim) in
    let instance = factory.make sim p ~writers in
    let reader_clients = List.init readers (fun _ -> Sim.new_client sim) in
    let script =
      List.map2
        (fun w vs -> (w, List.map (fun v -> Trace.H_write v) vs))
        writers writer_ops
      @ List.map
          (fun r -> (r, List.init reads_each (fun _ -> Trace.H_read)))
          reader_clients
    in
    let invoke1 c hop =
      match hop with
      | Trace.H_write v -> instance.write c v
      | Trace.H_read -> instance.read c
    in
    (sim, invoke1, script)
  in
  { params = p; mode; crashes; make }

type result = {
  terminal_runs : int;
  distinct_histories : int;
  stuck_runs : int;
  fired_events : int;
  replayed : int;
  exhaustive : bool;
  max_depth : int;
  ws_safe_violations : History.t list;
  ws_regular_violations : History.t list;
  first_violation_at : int option;
  state_fingerprints : string list;
}

let result_pp ppf r =
  Fmt.pf ppf
    "%d terminal runs (%d distinct histories), %d stuck, %d events fired, \
     exhaustive=%b, max depth %d, %d WS-Safe / %d WS-Regular violations"
    r.terminal_runs r.distinct_histories r.stuck_runs r.fired_events
    r.exhaustive r.max_depth
    (List.length r.ws_safe_violations)
    (List.length r.ws_regular_violations)

module Make (M : Model.S) = struct
  let run ?(stop_on_violation = false) scenario ~max_fired =
    let fired = ref 0 in
    let replayed = ref 0 in
    let truncated = ref false in
    let halted = ref false in
    let distinct : (string, unit) Hashtbl.t = Hashtbl.create 64 in
    let terminal = ref 0 in
    let stuck = ref 0 in
    let max_depth = ref 0 in
    let safe_bad = ref [] in
    let regular_bad = ref [] in
    let first_violation = ref None in
    (* keeps the first few violating histories; true on a violation *)
    let keep_violation store h = function
      | Ws_check.Violated _ ->
          if !first_violation = None then first_violation := Some !fired;
          if List.length !store < 3 then store := h :: !store;
          true
      | Ws_check.Holds | Ws_check.Vacuous -> false
    in
    let fire s th =
      M.fire s th;
      incr fired
    in
    (* [path] is newest first *)
    let rec replay_onto s = function
      | [] -> ()
      | th :: older ->
          replay_onto s older;
          fire s th
    in
    let record s ~stuck =
      let h = M.history s in
      let vs, vr, key = Model.judge h ~stuck in
      Hashtbl.replace distinct key ();
      let unsafe = keep_violation safe_bad h vs in
      let irregular = keep_violation regular_bad h vr in
      if stop_on_violation && (unsafe || irregular) then halted := true
    in
    (* [s] is live and positioned at [path], [depth] choices long; the
       first child is explored by firing it in place (saving one replay
       per node), the siblings by replaying their paths from scratch. *)
    let rec dfs s path depth =
      if !halted then ()
      else if !fired >= max_fired then truncated := true
      else begin
        if depth > !max_depth then max_depth := depth;
        if M.finished s then begin
          incr terminal;
          record s ~stuck:false
        end
        else
          match M.choices s with
          | [||] ->
              incr stuck;
              record s ~stuck:true
          | cs ->
              fire s cs.(0).thread;
              dfs s (cs.(0).thread :: path) (depth + 1);
              for i = 1 to Array.length cs - 1 do
                if (not !halted) && !fired < max_fired then begin
                  let s' = M.create scenario in
                  replay_onto s' path;
                  replayed := !replayed + depth;
                  fire s' cs.(i).thread;
                  dfs s' (cs.(i).thread :: path) (depth + 1)
                end
              done
      end
    in
    dfs (M.create scenario) [] 0;
    let fingerprints =
      List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) distinct [])
    in
    {
      terminal_runs = !terminal;
      distinct_histories = List.length fingerprints;
      stuck_runs = !stuck;
      fired_events = !fired;
      replayed = !replayed;
      exhaustive = (not !truncated) && not !halted;
      max_depth = !max_depth;
      ws_safe_violations = List.rev !safe_bad;
      ws_regular_violations = List.rev !regular_bad;
      first_violation_at = !first_violation;
      state_fingerprints = fingerprints;
    }
end

module Session = struct
  type nonrec scenario = scenario

  type t = {
    scenario : scenario;
    sim : Sim.t;
    invoke1 : Id.Client.t -> Trace.hop -> Sim.call;
    remaining : (int, Id.Client.t * Trace.hop list) Hashtbl.t;
    mutable seq_queue : (Id.Client.t * Trace.hop) list;
        (* script order, for Sequential mode *)
    mutable calls : Sim.call list;
    mutable invoked : int list;  (* by the last step, newest first *)
    mutable time_before : int;  (* trace time when the last step began *)
    monitor : Invariants.Monitor.t;  (* fed the trace after every step *)
  }

  let invoke t c hop =
    t.calls <- t.invoke1 c hop :: t.calls;
    t.invoked <- Id.Client.to_int c :: t.invoked

  let rec auto_invoke t =
    match t.scenario.mode with
    | Eager ->
        let progressed = ref false in
        Hashtbl.iter
          (fun key (c, ops) ->
            match ops with
            | hop :: rest when not (Sim.client_busy t.sim c) ->
                Hashtbl.replace t.remaining key (c, rest);
                invoke t c hop;
                progressed := true
            | _ -> ())
          (Hashtbl.copy t.remaining);
        if !progressed then auto_invoke t
    | Sequential -> (
        match t.seq_queue with
        | (c, hop) :: rest when List.for_all Sim.call_returned t.calls ->
            t.seq_queue <- rest;
            (match Hashtbl.find_opt t.remaining (Id.Client.to_int c) with
            | Some (c', _ :: ops_rest) ->
                Hashtbl.replace t.remaining (Id.Client.to_int c) (c', ops_rest)
            | _ -> ());
            invoke t c hop;
            auto_invoke t
        | _ -> ())

  let create scenario =
    let sim, invoke1, script = scenario.make () in
    let remaining = Hashtbl.create 8 in
    List.iter
      (fun (c, ops) -> Hashtbl.replace remaining (Id.Client.to_int c) (c, ops))
      script;
    let t =
      {
        scenario;
        sim;
        invoke1;
        remaining;
        seq_queue =
          List.concat_map
            (fun (c, ops) -> List.map (fun o -> (c, o)) ops)
            script;
        calls = [];
        invoked = [];
        time_before = 0;
        monitor = Invariants.Monitor.create ~f:scenario.params.f;
      }
    in
    auto_invoke t;
    Invariants.Monitor.observe t.monitor (Sim.trace sim);
    t

  let sim t = t.sim

  let finished t =
    Hashtbl.fold (fun _ (_, ops) acc -> acc && ops = []) t.remaining true
    && List.for_all Sim.call_returned t.calls

  (* servers that may still be crashed, in choice order *)
  let crash_candidates t =
    let so_far = Id.Server.Set.cardinal (Sim.crashed_servers t.sim) in
    if so_far < t.scenario.crashes then
      List.filter
        (fun s -> not (Sim.server_crashed t.sim s))
        (Sim.servers t.sim)
    else []

  (* a respond accumulates into its client's response set and writes
     its object *)
  let choices t =
    (* enabled responds come in trigger order, a subsequence of
       [Sim.pending]'s, so one forward walk finds each *)
    let pend = ref (Sim.pending t.sim) in
    let rec lop_info l =
      match !pend with
      | [] -> invalid_arg "Explore.Session.choices: respond not pending"
      | (p : Sim.pending_info) :: rest ->
          pend := rest;
          if Id.Lop.equal p.lid l then p else lop_info l
    in
    let events =
      List.map
        (function
          | Sim.Step c -> Model.client_step (Id.Client.to_int c)
          | Sim.Respond l ->
              let p = lop_info l in
              {
                Model.thread = Job (Id.Lop.to_int l);
                comps =
                  [
                    (Cclient (Id.Client.to_int p.client), Accum);
                    (Cobj (Id.Obj.to_int p.obj), Write);
                  ];
              })
        (Sim.enabled t.sim)
    in
    let crashes =
      List.map (fun s -> Model.crash (Id.Server.to_int s)) (crash_candidates t)
    in
    Array.of_list (events @ crashes)

  let fire t th =
    t.time_before <- Sim.now t.sim;
    t.invoked <- [];
    (match th with
    | Model.Client c -> Sim.fire t.sim (Sim.Step (Id.Client.of_int c))
    | Job l -> Sim.fire t.sim (Sim.Respond (Id.Lop.of_int l))
    | Crash s ->
        Model.fire_crash (crash_candidates t) (Sim.crash_server t.sim) s);
    auto_invoke t;
    Invariants.Monitor.observe t.monitor (Sim.trace t.sim)

  let last_step t =
    let recorded = ref false in
    let spawned = ref [] in
    let tr = Sim.trace t.sim in
    for i = t.time_before to Trace.time tr - 1 do
      match Trace.get tr i with
      | Trace.Invoke _ | Trace.Return _ -> recorded := true
      | Trace.Trigger { lid; _ } -> spawned := Id.Lop.to_int lid :: !spawned
      | _ -> ()
    done;
    { Model.recorded = !recorded; spawned = !spawned; invoked = t.invoked }

  let history t = History.of_trace (Sim.trace t.sim)

  let invariants t =
    List.filter_map
      (function
        | Ok () -> None
        | Error v -> Some (Fmt.str "invariant: %a" Invariants.violation_pp v))
      [
        Invariants.Monitor.single_pending t.monitor;
        Invariants.Monitor.pending_at_return t.monitor;
      ]
end

include Make (Session)
