open Regemu_objects
open Regemu_sim
open Regemu_history

(* --- threads, components, clocks ----------------------------------------- *)

type thread = TC of int | TL of int | TX of int

(* the order polymorphic [compare] gives: constructors in declaration
   order, then ids *)
let thread_compare a b =
  match (a, b) with
  | TC x, TC y | TL x, TL y | TX x, TX y -> Int.compare x y
  | TC _, _ -> -1
  | _, TC _ -> 1
  | TL _, _ -> -1
  | _, TL _ -> 1

let thread_equal a b = thread_compare a b = 0

module TMap = Map.Make (struct
  type t = thread

  let compare = thread_compare
end)

module TSet = Set.Make (struct
  type t = thread

  let compare = thread_compare
end)

type comp = Cclient of int | Cobj of int | Chist

let comp_equal a b =
  match (a, b) with
  | Cclient x, Cclient y | Cobj x, Cobj y -> x = y
  | Chist, Chist -> true
  | _ -> false

(* How a transition touches a component.  [Accum] is a commutative
   update: two accumulations on the same component commute exactly
   (delivering two responses to one client adds both to its response
   set either way, and a quorum-crossing delivery triggers the same
   follow-up operations in either order), but an accumulation races
   with a [Read]/[Write] access (the client's step observes the set's
   intermediate state). *)
type acc = Write | Accum

let acc_dep a b = match (a, b) with Accum, Accum -> false | _ -> true

(* A clock is the set of DFS depths whose events are in the causal
   past, as an immutable bitset.  Every clock is closed downward per
   thread — an event's clock contains its thread's previous clock, and
   clocks only grow by joins — so "depth [i] is in the set" says
   exactly what a vector clock's "v[thread(i)] >= i" says, and join is
   a word-wise [lor]. *)
type clock = int array

let bits = Sys.int_size
let clock_empty : clock = [||]

let clock_mem (v : clock) i =
  let w = i / bits in
  w < Array.length v && (v.(w) lsr (i mod bits)) land 1 = 1

(* words [0..i] of [b] are contained in [a]'s; needs [Array.length a > i] *)
let rec subset_from (a : clock) (b : clock) i =
  i < 0 || (b.(i) land lnot a.(i) = 0 && subset_from a b (i - 1))

let clock_join (a : clock) (b : clock) : clock =
  let a, b = if Array.length a >= Array.length b then (a, b) else (b, a) in
  if a == b || subset_from a b (Array.length b - 1) then a
  else begin
    let r = Array.copy a in
    Array.iteri (fun i x -> r.(i) <- r.(i) lor x) b;
    r
  end

let clock_add (v : clock) d : clock =
  if clock_mem v d then v
  else begin
    let w = d / bits in
    let r = Array.make (max (Array.length v) (w + 1)) 0 in
    Array.blit v 0 r 0 (Array.length v);
    r.(w) <- r.(w) lor (1 lsl (d mod bits));
    r
  end

module CMap = Map.Make (struct
  type t = comp

  let compare a b =
    match (a, b) with
    | Chist, Chist -> 0
    | Chist, _ -> -1
    | _, Chist -> 1
    | Cclient x, Cclient y | Cobj x, Cobj y -> Int.compare x y
    | Cclient _, Cobj _ -> -1
    | Cobj _, Cclient _ -> 1
end)

(* --- transition descriptors ---------------------------------------------- *)

(* The static footprint over-approximates what firing the transition
   may touch; after execution the footprint is refined with what it
   actually did (history entries recorded, clients invoked).  Crashes
   are modeled as globally dependent: [is_crash] short-circuits the
   component intersection. *)
type tdesc = { thread : thread; comps : (comp * acc) list; is_crash : bool }

(* dependence between an executed event (refined footprint [ca],
   crash flag [ca_crash]) and a transition descriptor [b] *)
let dep_exec ~ca ~ca_crash (b : tdesc) =
  ca_crash || b.is_crash
  || List.exists
       (fun (c, a) ->
         List.exists (fun (c', a') -> comp_equal c c' && acc_dep a a') b.comps)
       ca

let describe session =
  let sim = Explore.Session.sim session in
  (* enabled responds come in trigger order, a subsequence of
     [Sim.pending]'s, so one forward walk finds each *)
  let pend = ref (Sim.pending sim) in
  let rec lop_info l =
    match !pend with
    | [] -> invalid_arg "Dpor.describe: respond of a lop not pending"
    | (p : Sim.pending_info) :: rest ->
        pend := rest;
        if Id.Lop.equal p.lid l then p else lop_info l
  in
  let ev_descs =
    List.map
      (fun ev ->
        match ev with
        | Sim.Step c ->
            (* Chist: a step may record returns/invokes.  Executed
               footprints drop it when nothing was recorded. *)
            {
              thread = TC (Id.Client.to_int c);
              comps = [ (Cclient (Id.Client.to_int c), Write); (Chist, Write) ];
              is_crash = false;
            }
        | Sim.Respond l ->
            let p = lop_info l in
            {
              thread = TL (Id.Lop.to_int l);
              comps =
                [
                  (Cclient (Id.Client.to_int p.client), Accum);
                  (Cobj (Id.Obj.to_int p.obj), Write);
                ];
              is_crash = false;
            })
      (Explore.Session.enabled_events session)
  in
  let crash_descs =
    List.map
      (fun s ->
        { thread = TX (Id.Server.to_int s); comps = []; is_crash = true })
      (Explore.Session.crash_candidates session)
  in
  Array.of_list (ev_descs @ crash_descs)

(* --- search nodes --------------------------------------------------------- *)

type node = {
  descs : tdesc array;
  enabled_threads : TSet.t;
  (* entry snapshots; immutable maps and clocks make backtracking free.
     A clock is the set of depths (indices into the DFS stack) of the
     events in its causal past. *)
  cv : clock TMap.t;  (* per-thread clocks *)
  clast : (clock * clock) CMap.t;
      (* per component: (join of writing accessors, join of all
         accessors) — an accumulation's past needs only the writers,
         a write's past needs everyone *)
  gclock : clock;  (* joined into everything; crashes write it *)
  mutable backtrack : TSet.t;
  mutable done_ : TSet.t;
  mutable cur_sleep : (thread * (comp * acc) list) list;
  mutable executed : int;  (* children actually fired from here *)
  (* set while one child subtree is active *)
  mutable exec_idx : int;
  mutable exec_comps : (comp * acc) list;  (* refined post-execution footprint *)
  mutable exec_is_crash : bool;
  mutable exec_thread : thread;
}

type stats = {
  explored : int;
  replayed : int;
  pruned : int;
  sleep_skipped : int;
  terminal_runs : int;
  stuck_runs : int;
  distinct_states : int;
  max_depth : int;
  exhaustive : bool;
  ws_safe_violations : int;
  ws_regular_violations : int;
  invariant_violations : int;
  first_violation : string option;
  state_fingerprints : string list;
}

let stats_pp ppf s =
  Fmt.pf ppf
    "%d transitions explored (+%d replayed), %d pruned, %d sleep-skipped, %d \
     terminal / %d stuck runs, %d distinct states, depth %d, exhaustive=%b, \
     violations ws-safe=%d ws-regular=%d invariant=%d"
    s.explored s.replayed s.pruned s.sleep_skipped s.terminal_runs
    s.stuck_runs s.distinct_states s.max_depth s.exhaustive
    s.ws_safe_violations s.ws_regular_violations s.invariant_violations

(* --- terminal-state recording -------------------------------------------- *)

(* The fingerprint must be invariant across schedules of the same
   Mazurkiewicz trace class: high-level entries are recorded only
   during [Step] events (returns resume fibers; invokes ride on the
   step that freed the client), and any two history-recording steps
   share the [Chist] component, so the Invoke/Return subsequence —
   including every read's result — is class-invariant.  Trace times,
   lop ids (numbering shifts under commuting triggers), and raw base
   object values (a leftover respond firing between the last return
   and the end of the run changes them without affecting anything any
   client observed) are all below the abstraction line and stay
   out.  Entries go straight into one buffer: formatting each through
   [Fmt] cost more than the rest of the terminal check. *)
let fingerprint sim ~stuck verdict_s verdict_r =
  let b = Buffer.create 128 in
  let add_entry tag c hop =
    Buffer.add_char b tag;
    Buffer.add_string b (string_of_int (Id.Client.to_int c));
    Buffer.add_char b ':';
    Trace.add_hop_to_buffer b hop
  in
  Trace.iter
    (fun e ->
      match e with
      | Trace.Invoke (c, hop) ->
          add_entry 'I' c hop;
          Buffer.add_char b ';'
      | Trace.Return (c, hop, v) ->
          add_entry 'R' c hop;
          Buffer.add_char b '=';
          Value.add_to_buffer b v;
          Buffer.add_char b ';'
      | _ -> ())
    (Sim.trace sim);
  let letter = function
    | Ws_check.Holds -> 'H'
    | Ws_check.Vacuous -> 'V'
    | Ws_check.Violated _ -> 'X'
  in
  Buffer.add_char b '|';
  Buffer.add_char b (letter verdict_s);
  Buffer.add_char b (letter verdict_r);
  if stuck then Buffer.add_string b "|stuck";
  Buffer.contents b

(* --- the search ----------------------------------------------------------- *)

let run ?(dpor = true) ?(sleep = true) ?(check_invariants = true)
    (scenario : Explore.scenario) ~max_explored =
  let explored = ref 0 in
  let replayed = ref 0 in
  let pruned = ref 0 in
  let sleep_skipped = ref 0 in
  let terminal = ref 0 in
  let stuck = ref 0 in
  let max_depth = ref 0 in
  let truncated = ref false in
  let fingerprints : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let safe_bad = ref 0 in
  let regular_bad = ref 0 in
  let inv_bad = ref 0 in
  let first_violation = ref None in
  let note_violation msg =
    if !first_violation = None then first_violation := Some msg
  in
  let record session ~is_stuck =
    let sim = Explore.Session.sim session in
    let tr = Sim.trace sim in
    let h = History.of_trace tr in
    let vs = Ws_check.check_ws_safe h in
    let vr = Ws_check.check_ws_regular h in
    (match vs with
    | Ws_check.Violated v ->
        incr safe_bad;
        note_violation (Fmt.str "ws-safe: %a" Ws_check.violation_pp v)
    | _ -> ());
    (match vr with
    | Ws_check.Violated v ->
        incr regular_bad;
        note_violation (Fmt.str "ws-regular: %a" Ws_check.violation_pp v)
    | _ -> ());
    if check_invariants then begin
      (match Invariants.single_pending_write_per_writer_register tr with
      | Error v ->
          incr inv_bad;
          note_violation (Fmt.str "invariant: %a" Invariants.violation_pp v)
      | Ok () -> ());
      match
        Invariants.max_pending_writes_at_return tr ~f:scenario.Explore.params.f
      with
      | Error v ->
          incr inv_bad;
          note_violation (Fmt.str "invariant: %a" Invariants.violation_pp v)
      | Ok () -> ()
    end;
    Hashtbl.replace fingerprints (fingerprint sim ~stuck:is_stuck vs vr) ();
    if is_stuck then incr stuck else incr terminal
  in
  (* the DFS stack; nodes stay addressable for race detection *)
  let stack : node option array ref = ref (Array.make 64 None) in
  let stack_set d n =
    if d >= Array.length !stack then begin
      let bigger = Array.make (2 * (d + 1)) None in
      Array.blit !stack 0 bigger 0 (Array.length !stack);
      stack := bigger
    end;
    !stack.(d) <- Some n
  in
  let stack_get d = Option.get !stack.(d) in
  (* Flanagan–Godefroid race detection: for enabled transition [t] at
     depth [d], find the latest executed event that is dependent with
     [t] and not in its causal past, and plant a backtrack point just
     before it.  If [t]'s thread was not enabled there, fall back to
     the threads that causally feed [t] (or, failing that, everything
     enabled — the conservative patch that keeps the reduction
     sound). *)
  let race_detect d (t : tdesc) =
    let vt =
      match TMap.find_opt t.thread (stack_get d).cv with
      | Some v -> v
      | None -> clock_empty
    in
    let rec scan i =
      if i >= 0 then begin
        let ni = stack_get i in
        if
          dep_exec ~ca:ni.exec_comps ~ca_crash:ni.exec_is_crash t
          && not (clock_mem vt i)
        then begin
          if TSet.mem t.thread ni.enabled_threads then
            ni.backtrack <- TSet.add t.thread ni.backtrack
          else begin
            (* threads with events in (i, d) inside t's causal past *)
            let feeders = ref TSet.empty in
            for m = i + 1 to d - 1 do
              if clock_mem vt m then
                feeders := TSet.add (stack_get m).exec_thread !feeders
            done;
            let cands = TSet.inter !feeders ni.enabled_threads in
            ni.backtrack <-
              TSet.union ni.backtrack
                (if TSet.is_empty cands then ni.enabled_threads else cands)
          end
        end
        else scan (i - 1)
      end
    in
    scan (d - 1)
  in
  (* execute descs.(idx) on [session] positioned at depth [d]'s state,
     updating node [nd]'s exec fields; returns the child's snapshots *)
  let execute nd d session idx =
    let t = nd.descs.(idx) in
    let sim = Explore.Session.sim session in
    let time_before = Sim.now sim in
    let ncalls_before = List.length (Explore.Session.calls session) in
    Explore.Session.advance session idx;
    incr explored;
    (* the event's clock: its thread's past, the last writers of its
       components, the global clock, and itself *)
    let base =
      match TMap.find_opt t.thread nd.cv with
      | Some v -> v
      | None -> clock_empty
    in
    let v =
      List.fold_left
        (fun vacc (c, a) ->
          match CMap.find_opt c nd.clast with
          | Some (w, all) ->
              clock_join vacc (match a with Accum -> w | Write -> all)
          | None -> vacc)
        (clock_join base nd.gclock) t.comps
    in
    let v = clock_add v d in
    (* refine the footprint with what actually happened; a lop
       triggered by this event starts a thread whose past is [v] *)
    let recorded_h = ref false in
    let triggered = ref [] in
    let tr = Sim.trace sim in
    for i = time_before to Trace.time tr - 1 do
      match Trace.get tr i with
      | Trace.Invoke _ | Trace.Return _ -> recorded_h := true
      | Trace.Trigger { lid; _ } ->
          triggered := TL (Id.Lop.to_int lid) :: !triggered
      | _ -> ()
    done;
    let invoked_clients =
      (* calls are consed newest-first; the head of the list is new *)
      let cs = Explore.Session.calls session in
      List.filteri (fun i _ -> i < List.length cs - ncalls_before) cs
      |> List.map (fun c -> Id.Client.to_int (Sim.call_client c))
    in
    let exec_comps =
      List.filter
        (fun (c, _) -> !recorded_h || not (comp_equal c Chist))
        t.comps
      @ List.map (fun c -> (Cclient c, Write)) invoked_clients
    in
    nd.exec_idx <- idx;
    nd.exec_comps <- exec_comps;
    nd.exec_is_crash <- t.is_crash;
    nd.exec_thread <- t.thread;
    (* child snapshots *)
    let cv = TMap.add t.thread v nd.cv in
    let cv =
      List.fold_left
        (fun acc c ->
          let th = TC c in
          let old =
            match TMap.find_opt th acc with
            | Some w -> w
            | None -> clock_empty
          in
          TMap.add th (clock_join old v) acc)
        cv invoked_clients
    in
    let cv = List.fold_left (fun acc th -> TMap.add th v acc) cv !triggered in
    let clast =
      List.fold_left
        (fun acc (c, a) ->
          let w, all =
            match CMap.find_opt c acc with
            | Some p -> p
            | None -> (clock_empty, clock_empty)
          in
          let entry =
            match a with
            | Write -> (clock_join w v, clock_join all v)
            | Accum -> (w, clock_join all v)
          in
          CMap.add c entry acc)
        nd.clast exec_comps
    in
    let gclock = if t.is_crash then v else nd.gclock in
    let sleep' =
      List.filter
        (fun (q, qc) ->
          let q_crash = match q with TX _ -> true | _ -> false in
          not
            (dep_exec ~ca:exec_comps ~ca_crash:t.is_crash
               { thread = q; comps = qc; is_crash = q_crash }))
        nd.cur_sleep
    in
    nd.executed <- nd.executed + 1;
    (cv, clast, gclock, sleep')
  in
  let prefix_of d =
    let rec go i acc =
      if i < 0 then acc else go (i - 1) ((stack_get i).exec_idx :: acc)
    in
    go (d - 1) []
  in
  let rec explore session d ~cv ~clast ~gclock ~sleep_in =
    if !truncated then ()
    else begin
      if d > !max_depth then max_depth := d;
      if Explore.Session.finished session then record session ~is_stuck:false
      else begin
        let descs = describe session in
        if Array.length descs = 0 then record session ~is_stuck:true
        else begin
          let enabled_threads =
            Array.fold_left
              (fun acc t -> TSet.add t.thread acc)
              TSet.empty descs
          in
          let nd =
            {
              descs;
              enabled_threads;
              cv;
              gclock;
              clast;
              backtrack = TSet.empty;
              done_ = TSet.empty;
              cur_sleep = (if sleep then sleep_in else []);
              executed = 0;
              exec_idx = -1;
              exec_comps = [];
              exec_is_crash = false;
              exec_thread = TC (-1);
            }
          in
          stack_set d nd;
          if dpor then Array.iter (fun t -> race_detect d t) descs;
          let sleeping th =
            List.exists (fun (q, _) -> thread_equal q th) nd.cur_sleep
          in
          (* seed the backtrack set: everything under plain brute
             force, one non-sleeping transition under DPOR *)
          if dpor then begin
            match
              Array.fold_left
                (fun acc t ->
                  match acc with
                  | Some _ -> acc
                  | None -> if sleeping t.thread then None else Some t.thread)
                None descs
            with
            | Some th -> nd.backtrack <- TSet.add th nd.backtrack
            | None -> ()
          end
          else nd.backtrack <- enabled_threads;
          let fresh = ref true in
          let rec loop () =
            if !truncated then ()
            else
              match TSet.choose_opt (TSet.diff nd.backtrack nd.done_) with
              | None -> ()
              | Some th ->
                  nd.done_ <- TSet.add th nd.done_;
                  if sleeping th then begin
                    incr sleep_skipped;
                    loop ()
                  end
                  else if !explored >= max_explored then truncated := true
                  else begin
                    let idx = ref (-1) in
                    Array.iteri
                      (fun i t ->
                        if !idx < 0 && thread_equal t.thread th then idx := i)
                      nd.descs;
                    let s =
                      if !fresh then session
                      else begin
                        let prefix = prefix_of d in
                        replayed := !replayed + List.length prefix;
                        Explore.Session.replay scenario prefix
                      end
                    in
                    fresh := false;
                    let cv', clast', gclock', sleep' =
                      execute nd d s !idx
                    in
                    explore s (d + 1) ~cv:cv' ~clast:clast' ~gclock:gclock'
                      ~sleep_in:sleep';
                    nd.cur_sleep <-
                      (nd.descs.(!idx).thread, nd.descs.(!idx).comps)
                      :: nd.cur_sleep;
                    loop ()
                  end
          in
          loop ();
          pruned := !pruned + (Array.length descs - nd.executed);
          !stack.(d) <- None
        end
      end
    end
  in
  explore
    (Explore.Session.create scenario)
    0 ~cv:TMap.empty ~clast:CMap.empty ~gclock:clock_empty ~sleep_in:[];
  {
    explored = !explored;
    replayed = !replayed;
    pruned = !pruned;
    sleep_skipped = !sleep_skipped;
    terminal_runs = !terminal;
    stuck_runs = !stuck;
    distinct_states = Hashtbl.length fingerprints;
    max_depth = !max_depth;
    exhaustive = not !truncated;
    ws_safe_violations = !safe_bad;
    ws_regular_violations = !regular_bad;
    invariant_violations = !inv_bad;
    first_violation = !first_violation;
    state_fingerprints =
      List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) fingerprints []);
  }
