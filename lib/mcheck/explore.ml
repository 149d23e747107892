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
  judged : int;
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
    let verdicts = Model.Verdicts.create () in
    let terminal = ref 0 in
    let stuck = ref 0 in
    let max_depth = ref 0 in
    let safe_bad = ref [] in
    let regular_bad = ref [] in
    let first_violation = ref None in
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
    let violated = function
      | Ws_check.Violated _ -> true
      | Ws_check.Holds | Ws_check.Vacuous -> false
    in
    (* keeps the first few violating histories, building one only on a
       verdict-table hit that still has room for it *)
    let record s ~stuck =
      let vs, vr, h =
        Model.Verdicts.judge verdicts (M.history_key s) ~stuck M.history s
      in
      if violated vs || violated vr then begin
        if !first_violation = None then first_violation := Some !fired;
        let keeps store v = violated v && List.length !store < 3 in
        let keep_safe = keeps safe_bad vs and keep_regular = keeps regular_bad vr in
        if keep_safe || keep_regular then begin
          let h = match h with Some h -> h | None -> M.history s in
          if keep_safe then safe_bad := h :: !safe_bad;
          if keep_regular then regular_bad := h :: !regular_bad
        end;
        if stop_on_violation then halted := true
      end
    in
    (* [s] is live and positioned at [path], [depth] choices long; the
       first child is explored by firing it in place (saving one replay
       per node), the siblings by replaying their paths from scratch.
       The budget is checked before each branch fires, so the state the
       last permitted fire reaches is still judged; a branch whose
       replay overshoots it is not. *)
    let rec dfs s path depth =
      if !halted then ()
      else if !fired > max_fired then truncated := true
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
              if !fired >= max_fired then truncated := true
              else begin
                fire s cs.(0).thread;
                dfs s (cs.(0).thread :: path) (depth + 1)
              end;
              for i = 1 to Array.length cs - 1 do
                if !halted then ()
                else if !fired >= max_fired then truncated := true
                else begin
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
    let fingerprints = Model.Verdicts.fingerprints verdicts in
    {
      terminal_runs = !terminal;
      distinct_histories = List.length fingerprints;
      stuck_runs = !stuck;
      fired_events = !fired;
      replayed = !replayed;
      judged = Model.Verdicts.misses verdicts;
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
    mutable uninvoked : int;  (* script operations not invoked yet *)
    mutable open_calls : Sim.call list;
        (* every call not yet seen returned is here, newest first *)
    mutable invoked : int list;  (* by the last step, newest first *)
    mutable time_before : int;  (* trace time when the last step began *)
    step_choices : Model.footprint array;
        (* each client's step, by client id; a scenario makes every
           client before the run starts *)
    crash_choices : Model.footprint array;  (* each server's crash, by id *)
    monitor : Invariants.Monitor.t;  (* fed the trace after every step *)
  }

  let invoke t c hop =
    t.open_calls <- t.invoke1 c hop :: t.open_calls;
    t.uninvoked <- t.uninvoked - 1;
    t.invoked <- Id.Client.to_int c :: t.invoked

  (* every call invoked so far has returned; they are dropped if so *)
  let all_returned t =
    if List.for_all Sim.call_returned t.open_calls then begin
      t.open_calls <- [];
      true
    end
    else false

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
        | (c, hop) :: rest when all_returned t ->
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
        uninvoked =
          List.fold_left (fun n (_, ops) -> n + List.length ops) 0 script;
        open_calls = [];
        invoked = [];
        time_before = 0;
        step_choices =
          Array.of_list
            (List.map
               (fun c -> Model.client_step (Id.Client.to_int c))
               (Sim.clients sim));
        crash_choices = Array.init (Sim.num_servers sim) Model.crash;
        monitor = Invariants.Monitor.create ~f:scenario.params.f;
      }
    in
    auto_invoke t;
    Invariants.Monitor.observe t.monitor (Sim.trace sim);
    t

  let sim t = t.sim
  let finished t = t.uninvoked = 0 && all_returned t

  (* [f] folded over the servers that may still be crashed, in choice
     order *)
  let fold_crashable t f acc =
    let n = Sim.num_servers t.sim in
    let so_far = ref 0 in
    for s = 0 to n - 1 do
      if Sim.server_crashed t.sim (Id.Server.of_int s) then incr so_far
    done;
    let acc = ref acc in
    if !so_far < t.scenario.crashes then
      for s = 0 to n - 1 do
        if not (Sim.server_crashed t.sim (Id.Server.of_int s)) then
          acc := f s !acc
      done;
    !acc

  let crash_candidates t =
    List.rev (fold_crashable t (fun s acc -> Id.Server.of_int s :: acc) [])

  (* a respond accumulates into its client's response set and writes
     its object *)
  let respond (p : Sim.pending_info) acc =
    {
      Model.thread = Job (Id.Lop.to_int p.lid);
      comps =
        [
          (Cclient (Id.Client.to_int p.client), Accum);
          (Cobj (Id.Obj.to_int p.obj), Write);
        ];
    }
    :: acc

  (* the enabled events, then the servers that may still crash, built
     newest first and laid out in order *)
  let choices t =
    let rev =
      Sim.fold_enabled t.sim
        ~step:(fun c acc -> t.step_choices.(Id.Client.to_int c) :: acc)
        ~respond []
    in
    let rev = fold_crashable t (fun s acc -> t.crash_choices.(s) :: acc) rev in
    match rev with
    | [] -> [||]
    | last :: _ ->
        let n = List.length rev in
        let a = Array.make n last in
        List.iteri (fun i c -> a.(n - 1 - i) <- c) rev;
        a

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

  (* the trace's invoke and return entries are the history's events in
     time order, each return carrying its call's hop *)
  let history_key t =
    let tr = Sim.trace t.sim in
    let b = Buffer.create 128 in
    for i = 0 to Trace.time tr - 1 do
      match Trace.get tr i with
      | Trace.Invoke (c, hop) ->
          Model.add_event b ~ret:false (Id.Client.to_int c) hop None
      | Trace.Return (c, hop, v) ->
          Model.add_event b ~ret:true (Id.Client.to_int c) hop (Some v)
      | _ -> ()
    done;
    Buffer.contents b

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
