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
  (* the operations are the same in every run; only the clients are
     the run's own *)
  let writer_hops = List.map (List.map (fun v -> Trace.H_write v)) writer_ops in
  let reader_hops = List.init reads_each (fun _ -> Trace.H_read) in
  let make () =
    let sim = Sim.create ~n:p.n () in
    let writers = List.init p.k (fun _ -> Sim.new_client sim) in
    let instance = factory.make sim p ~writers in
    let reader_clients = List.init readers (fun _ -> Sim.new_client sim) in
    let script =
      List.combine writers writer_hops
      @ List.map (fun r -> (r, reader_hops)) reader_clients
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
  replays : int;
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
    let replays = ref 0 in
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
                  incr replays;
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
      replays = !replays;
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
    clients : Id.Client.t array;  (* the script's clients, in visiting order *)
    ops : Trace.hop list array;  (* each one's operations not invoked yet *)
    mutable seq_at : int;
        (* Sequential mode: [clients.(seq_at)] holds the next operation *)
    mutable uninvoked : int;  (* script operations not invoked yet *)
    mutable crashed : int;  (* servers crashed so far *)
    mutable open_calls : Sim.call list;
        (* every call not yet seen returned is here, newest first *)
    mutable invoked : int list;  (* by the last step, newest first *)
    mutable time_before : int;  (* trace time when the last step began *)
    mutable buf : Model.footprint array;  (* where [choices] builds *)
    monitor : Invariants.Monitor.t;  (* fed the trace when read *)
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

  (* the client in slot [i] invokes its next operation *)
  let invoke_next t i =
    match t.ops.(i) with
    | hop :: rest ->
        t.ops.(i) <- rest;
        invoke t t.clients.(i) hop
    | [] -> invalid_arg "Explore.Session: no operation left"

  let rec auto_invoke t =
    match t.scenario.mode with
    | Eager ->
        (* one pass over the clients, each free one invoking, until a
           pass invokes nothing *)
        let progressed = ref false in
        for i = 0 to Array.length t.ops - 1 do
          match t.ops.(i) with
          | _ :: _ when not (Sim.client_busy t.sim t.clients.(i)) ->
              invoke_next t i;
              progressed := true
          | _ -> ()
        done;
        if !progressed then auto_invoke t
    | Sequential ->
        while
          t.seq_at < Array.length t.ops
          && match t.ops.(t.seq_at) with [] -> true | _ :: _ -> false
        do
          t.seq_at <- t.seq_at + 1
        done;
        if t.seq_at < Array.length t.ops && all_returned t then begin
          invoke_next t t.seq_at;
          auto_invoke t
        end

  (* Sequential mode runs the script in order.  The eager pass visits
     the clients in the iteration order of a [Hashtbl] keyed by client
     id, as it always has: when several clients are free at once, the
     order decides which invokes first, and recorded histories show
     it. *)
  let visiting_order mode script =
    match mode with
    | Sequential -> Array.of_list script
    | Eager ->
        let by_id = Hashtbl.create 8 in
        List.iter
          (fun (c, ops) -> Hashtbl.replace by_id (Id.Client.to_int c) (c, ops))
          script;
        Array.of_seq (Hashtbl.to_seq_values by_id)

  let count_crashed sim =
    List.fold_left
      (fun n s -> if Sim.server_crashed sim s then n + 1 else n)
      0 (Sim.servers sim)

  let create scenario =
    let sim, invoke1, script = scenario.make () in
    let slots = visiting_order scenario.mode script in
    let t =
      {
        scenario;
        sim;
        invoke1;
        clients = Array.map fst slots;
        ops = Array.map snd slots;
        seq_at = 0;
        uninvoked =
          List.fold_left (fun n (_, ops) -> n + List.length ops) 0 script;
        crashed = count_crashed sim;
        open_calls = [];
        invoked = [];
        time_before = 0;
        buf = Array.make 8 (Model.crash 0);
        monitor = Invariants.Monitor.create ~f:scenario.params.f;
      }
    in
    auto_invoke t;
    t

  let sim t = t.sim
  let finished t = t.uninvoked = 0 && all_returned t

  (* [f] folded over the servers that may still be crashed, in choice
     order *)
  let fold_crashable t f acc =
    if t.crashed >= t.scenario.crashes then acc
    else begin
      let acc = ref acc in
      for s = 0 to Sim.num_servers t.sim - 1 do
        if not (Sim.server_crashed t.sim (Id.Server.of_int s)) then
          acc := f s !acc
      done;
      !acc
    end

  let crash_candidates t =
    List.rev (fold_crashable t (fun s acc -> Id.Server.of_int s :: acc) [])

  (* a respond accumulates into its client's response set and writes
     its object *)
  let respond (p : Sim.pending_info) =
    {
      Model.thread = Job (Id.Lop.to_int p.lid);
      comps =
        [
          (Cclient (Id.Client.to_int p.client), Accum);
          (Cobj (Id.Obj.to_int p.obj), Write);
        ];
    }

  (* footprint [fp] at index [n] of [buf]; the next index *)
  let put t n fp =
    if n = Array.length t.buf then begin
      let bigger = Array.make (2 * n) fp in
      Array.blit t.buf 0 bigger 0 n;
      t.buf <- bigger
    end;
    t.buf.(n) <- fp;
    n + 1

  (* the enabled events, then the servers that may still crash, laid
     out in [buf] and copied out *)
  let choices t =
    let n =
      Sim.fold_enabled t.sim
        ~step:(fun c n -> put t n (Model.client_step (Id.Client.to_int c)))
        ~respond:(fun p n -> put t n (respond p))
        0
    in
    let n = fold_crashable t (fun s n -> put t n (Model.crash s)) n in
    Array.sub t.buf 0 n

  (* a call returns only while its client's fiber runs, so only a client
     step can free a client for its next operation *)
  let fire t th =
    t.time_before <- Sim.now t.sim;
    t.invoked <- [];
    match th with
    | Model.Client c ->
        Sim.fire t.sim (Sim.Step (Id.Client.of_int c));
        auto_invoke t
    | Job l -> Sim.fire t.sim (Sim.Respond (Id.Lop.of_int l))
    | Crash s ->
        Model.fire_crash (crash_candidates t) (Sim.crash_server t.sim) s;
        t.crashed <- t.crashed + 1

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
    Invariants.Monitor.observe t.monitor (Sim.trace t.sim);
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
