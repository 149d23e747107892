open Regemu_history
open Model

(* --- threads, components, clocks ----------------------------------------- *)

(* the order polymorphic [compare] gives: constructors in declaration
   order, then ids *)
let thread_compare a b =
  match (a, b) with
  | Client x, Client y | Job x, Job y | Crash x, Crash y -> Int.compare x y
  | Client _, _ -> -1
  | _, Client _ -> 1
  | Job _, _ -> -1
  | _, Job _ -> 1

let thread_equal a b = thread_compare a b = 0

module TMap = Map.Make (struct
  type t = thread

  let compare = thread_compare
end)

module TSet = Set.Make (struct
  type t = thread

  let compare = thread_compare
end)

let comp_equal a b =
  match (a, b) with
  | Cclient x, Cclient y | Cobj x, Cobj y -> x = y
  | Chist, Chist -> true
  | _ -> false

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

(* a thread's clock; a thread that has not run yet has the empty one *)
let clock_of th cv = Option.value ~default:clock_empty (TMap.find_opt th cv)

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

(* dependence between an executed event (refined footprint [ca], its
   thread [ta]) and a choice's footprint [b]; a crash on either side
   short-circuits the component intersection *)
let dep_exec ~ca ~ta (b : footprint) =
  is_crash ta || is_crash b.thread
  || List.exists
       (fun (c, a) ->
         List.exists (fun (c', a') -> comp_equal c c' && acc_dep a a') b.comps)
       ca

(* --- search nodes --------------------------------------------------------- *)

type node = {
  descs : footprint array;
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
  mutable cur_sleep : footprint list;
  mutable executed : int;  (* children actually fired from here *)
  (* set while one child subtree is active *)
  mutable exec_comps : (comp * access) list;
      (* refined post-execution footprint *)
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

(* --- the search ----------------------------------------------------------- *)

module Make (M : Model.S) = struct
  let run ?(check_invariants = true) scenario ~max_explored =
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
      let vs, vr, key = Model.judge (M.history session) ~stuck:is_stuck in
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
      if check_invariants then
        List.iter
          (fun msg ->
            incr inv_bad;
            note_violation msg)
          (M.invariants session);
      Hashtbl.replace fingerprints key ();
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
    let race_detect d (t : footprint) =
      let vt = clock_of t.thread (stack_get d).cv in
      let rec scan i =
        if i >= 0 then begin
          let ni = stack_get i in
          if
            dep_exec ~ca:ni.exec_comps ~ta:ni.exec_thread t
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
    (* execute choice [t] on [session] positioned at depth [d]'s state,
       updating node [nd]'s exec fields; returns the child's snapshots *)
    let execute nd d session (t : footprint) =
      M.fire session t.thread;
      let step = M.last_step session in
      incr explored;
      (* the event's clock: its thread's past, the last writers of its
         components, the global clock, and itself *)
      let base = clock_of t.thread nd.cv in
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
      (* refine the footprint with what actually happened; a job
         spawned by this event starts a thread whose past is [v] *)
      let exec_comps =
        List.filter
          (fun (c, _) -> step.recorded || not (comp_equal c Chist))
          t.comps
        @ List.map (fun c -> (Cclient c, Write)) step.invoked
      in
      nd.exec_comps <- exec_comps;
      nd.exec_thread <- t.thread;
      (* child snapshots *)
      let cv = TMap.add t.thread v nd.cv in
      let cv =
        List.fold_left
          (fun acc c ->
            TMap.add (Client c) (clock_join (clock_of (Client c) acc) v) acc)
          cv step.invoked
      in
      let cv =
        List.fold_left (fun acc j -> TMap.add (Job j) v acc) cv step.spawned
      in
      let clast =
        List.fold_left
          (fun acc (c, a) ->
            let w, all =
              Option.value ~default:(clock_empty, clock_empty)
                (CMap.find_opt c acc)
            in
            let entry =
              match a with
              | Write -> (clock_join w v, clock_join all v)
              | Accum -> (w, clock_join all v)
            in
            CMap.add c entry acc)
          nd.clast exec_comps
      in
      let gclock = if is_crash t.thread then v else nd.gclock in
      let sleep' =
        List.filter
          (fun q -> not (dep_exec ~ca:exec_comps ~ta:t.thread q))
          nd.cur_sleep
      in
      nd.executed <- nd.executed + 1;
      (cv, clast, gclock, sleep')
    in
    (* a fresh run re-firing the threads executed at depths [0, d) *)
    let replay d =
      let s = M.create scenario in
      for i = 0 to d - 1 do
        M.fire s (stack_get i).exec_thread
      done;
      replayed := !replayed + d;
      s
    in
    let rec explore session d ~cv ~clast ~gclock ~sleep_in =
      if !truncated then ()
      else begin
        if d > !max_depth then max_depth := d;
        if M.finished session then record session ~is_stuck:false
        else begin
          let descs = M.choices session in
          if Array.length descs = 0 then record session ~is_stuck:true
          else begin
            let enabled_threads =
              Array.fold_left
                (fun acc (t : footprint) -> TSet.add t.thread acc)
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
                cur_sleep = sleep_in;
                executed = 0;
                exec_comps = [];
                exec_thread = Client (-1);
              }
            in
            stack_set d nd;
            Array.iter (fun t -> race_detect d t) descs;
            let sleeping th =
              List.exists (fun (q : footprint) -> thread_equal q.thread th)
                nd.cur_sleep
            in
            (* seed the backtrack set with one non-sleeping transition *)
            (match
               Array.find_opt (fun (t : footprint) -> not (sleeping t.thread))
                 descs
             with
            | Some t -> nd.backtrack <- TSet.add t.thread nd.backtrack
            | None -> ());
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
                      let t =
                        Option.get
                          (Array.find_opt
                             (fun (t : footprint) -> thread_equal t.thread th)
                             nd.descs)
                      in
                      let s = if !fresh then session else replay d in
                      fresh := false;
                      let cv', clast', gclock', sleep' = execute nd d s t in
                      explore s (d + 1) ~cv:cv' ~clast:clast' ~gclock:gclock'
                        ~sleep_in:sleep';
                      nd.cur_sleep <- t :: nd.cur_sleep;
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
    explore (M.create scenario) 0 ~cv:TMap.empty ~clast:CMap.empty
      ~gclock:clock_empty ~sleep_in:[];
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
        List.sort compare
          (Hashtbl.fold (fun k () acc -> k :: acc) fingerprints []);
    }
end

include Make (Explore.Session)
