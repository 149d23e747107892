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

let comp_equal a b =
  match (a, b) with
  | Cclient x, Cclient y | Cobj x, Cobj y -> x = y
  | Chist, Chist -> true
  | _ -> false

let acc_dep a b = match (a, b) with Accum, Accum -> false | _ -> true

(* --- dependence ------------------------------------------------------------ *)

(* the access [a] to [c] conflicts with one in [comps] *)
let rec comp_dep c a = function
  | [] -> false
  | (c', a') :: rest -> (comp_equal c c' && acc_dep a a') || comp_dep c a rest

(* a write to client [c] conflicts with any access to it in [comps] *)
let rec client_dep c = function
  | [] -> false
  | (Cclient c', _) :: _ when c = c' -> true
  | _ :: rest -> client_dep c rest

(* an executed event's refined footprint — its choice's components
   minus the history one when it [recorded] nothing — against [comps] *)
let rec comps_dep ~recorded ca comps =
  match ca with
  | [] -> false
  | (Chist, _) :: rest when not recorded -> comps_dep ~recorded rest comps
  | (c, a) :: rest -> comp_dep c a comps || comps_dep ~recorded rest comps

let rec invoked_dep invoked comps =
  match invoked with
  | [] -> false
  | c :: rest -> client_dep c comps || invoked_dep rest comps

(* dependence between an executed event — choice [e], whose step [st]
   also wrote every client it invoked on — and a choice's footprint
   [b]; a crash on either side short-circuits the intersection *)
let dep_exec (e : footprint) (st : step) (b : footprint) =
  is_crash e.thread || is_crash b.thread
  || comps_dep ~recorded:st.recorded e.comps b.comps
  || invoked_dep st.invoked b.comps

(* --- clocks ----------------------------------------------------------------- *)

(* A clock is the set of DFS depths whose events are in the causal
   past, as a bitset.  Every clock is closed downward per thread — an
   event's clock contains its thread's previous clock, and clocks only
   grow by joins — so "depth [i] is in the set" says exactly what a
   vector clock's "v[thread(i)] >= i" says, and join is a word-wise
   [lor].

   The clocks of the current node live as rows of [width] words in flat
   int tables, one table per tag below; a row never written is the
   empty clock.  The search writes rows on the way down and a trail of
   the overwritten rows restores them on the way up, so neither a join
   nor a backtrack allocates. *)
module Clocks = struct
  (* thread clocks; then, per component kind, the join of its writing
     accessors and the join of all its accessors (an accumulation's
     past needs only the writers, a write's past needs everyone); then
     the global clock, which every event joins and crashes write *)
  let client = 0
  let job = 1
  let crash_tag = 2
  let writers = function Cclient _ -> 3 | Cobj _ -> 5 | Chist -> 7
  let accessors c = writers c + 1
  let global = 9
  let tags = 10
  let bits = Sys.int_size

  type t = {
    mutable width : int;  (* words per row *)
    rows : int array array;  (* by tag; row [id] at [id * width] *)
    mutable ev : int array;  (* the event clock being built *)
    mutable trail : int array;  (* entries [tag; id; old row] *)
    mutable len : int;  (* entries in [trail] *)
  }

  let create () =
    { width = 1; rows = Array.make tags [||]; ev = [| 0 |]; trail = [||]; len = 0 }

  let word t tag id k =
    let r = t.rows.(tag) and o = (id * t.width) + k in
    if o < Array.length r then r.(o) else 0

  (* depth [i] is in row [id] of [tag] *)
  let mem t tag id i =
    let k = i / bits in
    k < t.width && (word t tag id k lsr (i mod bits)) land 1 = 1

  (* every row, trail entry and the event clock one word wider, so
     depth [width * bits] fits *)
  let widen t =
    let w = t.width and w' = t.width + 1 in
    (* [n] entries of [head] ints and a row *)
    let relayout a ~head n =
      let a' = Array.make (2 * n * (head + w')) 0 in
      for e = 0 to n - 1 do
        Array.blit a (e * (head + w)) a' (e * (head + w')) (head + w)
      done;
      a'
    in
    Array.iteri
      (fun tag r -> t.rows.(tag) <- relayout r ~head:0 (Array.length r / w))
      t.rows;
    t.trail <- relayout t.trail ~head:2 t.len;
    t.ev <- Array.append t.ev [| 0 |];
    t.width <- w'

  (* the event clock: row [id] of [tag] *)
  let load t tag id =
    for k = 0 to t.width - 1 do
      t.ev.(k) <- word t tag id k
    done

  (* the event clock joins row [id] of [tag] *)
  let join t tag id =
    for k = 0 to t.width - 1 do
      t.ev.(k) <- t.ev.(k) lor word t tag id k
    done

  (* the event clock gains depth [d] *)
  let add t d =
    while d >= t.width * bits do
      widen t
    done;
    let k = d / bits in
    t.ev.(k) <- t.ev.(k) lor (1 lsl (d mod bits))

  (* row [id] of [tag], trailed and grown to exist *)
  let row t tag id =
    let w = t.width in
    let need = (id + 1) * w in
    if need > Array.length t.rows.(tag) then begin
      let r = Array.make (2 * need) 0 in
      Array.blit t.rows.(tag) 0 r 0 (Array.length t.rows.(tag));
      t.rows.(tag) <- r
    end;
    let o = t.len * (2 + w) in
    if o + 2 + w > Array.length t.trail then begin
      let tr = Array.make (max 64 (2 * (o + 2 + w))) 0 in
      Array.blit t.trail 0 tr 0 o;
      t.trail <- tr
    end;
    let r = t.rows.(tag) in
    t.trail.(o) <- tag;
    t.trail.(o + 1) <- id;
    (* rows are a word or two: loops beat [Array.blit]'s C call *)
    for k = 0 to w - 1 do
      t.trail.(o + 2 + k) <- r.((id * w) + k)
    done;
    t.len <- t.len + 1;
    r

  (* row [id] of [tag] becomes the event clock *)
  let store t tag id =
    let r = row t tag id and o = id * t.width in
    for k = 0 to t.width - 1 do
      r.(o + k) <- t.ev.(k)
    done

  (* row [id] of [tag] joins the event clock *)
  let merge t tag id =
    let r = row t tag id and o = id * t.width in
    for k = 0 to t.width - 1 do
      r.(o + k) <- r.(o + k) lor t.ev.(k)
    done

  (* restore every row written since the trail held [mark] entries *)
  let undo t mark =
    let w = t.width in
    while t.len > mark do
      t.len <- t.len - 1;
      let o = t.len * (2 + w) in
      let r = t.rows.(t.trail.(o)) and at = t.trail.(o + 1) * w in
      for k = 0 to w - 1 do
        r.(at + k) <- t.trail.(o + 2 + k)
      done
    done
end

let thread_tag = function
  | Client _ -> Clocks.client
  | Job _ -> Clocks.job
  | Crash _ -> Clocks.crash_tag

let thread_id = function Client i | Job i | Crash i -> i
let comp_id = function Cclient i | Cobj i -> i | Chist -> 0

(* --- search nodes --------------------------------------------------------- *)

(* a choice's place in its node's backtrack set *)
let idle = 0 (* not in it *)
let pending = 1 (* in it, not fired yet *)
let done_ = 2 (* in it and fired, or skipped as sleeping *)

type node = {
  descs : footprint array;
  marks : int array;  (* per choice: [idle], [pending] or [done_] *)
  mutable cur_sleep : footprint list;
  mutable executed : int;  (* children actually fired from here *)
  (* set while one child subtree is active *)
  mutable exec : footprint;
  mutable exec_step : step;  (* refines [exec]'s footprint *)
}

let no_step = { recorded = false; spawned = []; invoked = [] }

let dummy =
  {
    descs = [||];
    marks = [||];
    cur_sleep = [];
    executed = 0;
    exec = crash (-1);
    exec_step = no_step;
  }

(* the index of [th]'s choice in [descs], or -1 *)
let find_thread descs th =
  let rec go descs th k =
    if k = Array.length descs then -1
    else if thread_equal descs.(k).thread th then k
    else go descs th (k + 1)
  in
  go descs th 0

let mark nd k = if nd.marks.(k) = idle then nd.marks.(k) <- pending

(* the pending choice least by [thread_compare], or -1 *)
let next_pick nd =
  let best = ref (-1) in
  for k = 0 to Array.length nd.descs - 1 do
    if
      nd.marks.(k) = pending
      && (!best < 0
         || thread_compare nd.descs.(k).thread nd.descs.(!best).thread < 0)
    then best := k
  done;
  !best

let rec sleeping th = function
  | [] -> false
  | (q : footprint) :: rest -> thread_equal q.thread th || sleeping th rest

(* the sleepers an executed event leaves asleep, in order *)
let rec still_asleep e st = function
  | [] -> []
  | q :: rest ->
      if dep_exec e st q then still_asleep e st rest
      else q :: still_asleep e st rest

type stats = {
  explored : int;
  replayed : int;
  pruned : int;
  sleep_skipped : int;
  terminal_runs : int;
  stuck_runs : int;
  distinct_states : int;
  judged : int;
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
    let verdicts = Model.Verdicts.create () in
    let safe_bad = ref 0 in
    let regular_bad = ref 0 in
    let inv_bad = ref 0 in
    let first_violation = ref None in
    let note_violation msg =
      if !first_violation = None then first_violation := Some msg
    in
    let record session ~is_stuck =
      let vs, vr, _ =
        Model.Verdicts.judge verdicts (M.history_key session) ~stuck:is_stuck
          M.history session
      in
      (* formatted only while nothing is noted: a violating key seen
         again was noted when first judged *)
      let note_ws label count = function
        | Ws_check.Violated v ->
            incr count;
            if !first_violation = None then
              note_violation (Fmt.str "%s: %a" label Ws_check.violation_pp v)
        | Ws_check.Holds | Ws_check.Vacuous -> ()
      in
      note_ws "ws-safe" safe_bad vs;
      note_ws "ws-regular" regular_bad vr;
      if check_invariants then
        List.iter
          (fun msg ->
            incr inv_bad;
            note_violation msg)
          (M.invariants session);
      if is_stuck then incr stuck else incr terminal
    in
    let clocks = Clocks.create () in
    (* the DFS stack; nodes stay addressable for race detection *)
    let stack = ref (Array.make 64 dummy) in
    let stack_set d n =
      if d >= Array.length !stack then begin
        let bigger = Array.make (2 * (d + 1)) dummy in
        Array.blit !stack 0 bigger 0 (Array.length !stack);
        stack := bigger
      end;
      !stack.(d) <- n
    in
    (* Flanagan–Godefroid race detection: for enabled transition [t] at
       depth [d], find the latest executed event that is dependent with
       [t] and not in its causal past, and plant a backtrack point just
       before it.  If [t]'s thread was not enabled there, fall back to
       the threads that causally feed [t] (or, failing that, everything
       enabled — the conservative patch that keeps the reduction
       sound). *)
    let race_detect d (t : footprint) =
      (* [t]'s causal past is its thread's clock *)
      let tag = thread_tag t.thread and id = thread_id t.thread in
      let i = ref (d - 1) in
      while !i >= 0 do
        let ni = !stack.(!i) in
        if
          dep_exec ni.exec ni.exec_step t
          && not (Clocks.mem clocks tag id !i)
        then begin
          let k = find_thread ni.descs t.thread in
          if k >= 0 then mark ni k
          else begin
            (* threads with events in (i, d) inside t's causal past *)
            let fed = ref false in
            for m = !i + 1 to d - 1 do
              if Clocks.mem clocks tag id m then begin
                let k = find_thread ni.descs !stack.(m).exec.thread in
                if k >= 0 then begin
                  fed := true;
                  mark ni k
                end
              end
            done;
            if not !fed then
              for k = 0 to Array.length ni.descs - 1 do
                mark ni k
              done
          end;
          i := -1
        end
        else decr i
      done
    in
    (* the event clock joins the past each access inherits *)
    let rec join_pasts = function
      | [] -> ()
      | (c, a) :: rest ->
          Clocks.join clocks
            (match a with
            | Accum -> Clocks.writers c
            | Write -> Clocks.accessors c)
            (comp_id c);
          join_pasts rest
    in
    (* the components of an executed event's refined footprint join
       its clock *)
    let rec access_all ~recorded = function
      | [] -> ()
      | (Chist, _) :: rest when not recorded -> access_all ~recorded rest
      | (c, a) :: rest ->
          (match a with
          | Write -> Clocks.merge clocks (Clocks.writers c) (comp_id c)
          | Accum -> ());
          Clocks.merge clocks (Clocks.accessors c) (comp_id c);
          access_all ~recorded rest
    in
    (* a client it invoked on joins its clock, as thread and as a
       written component *)
    let rec write_clients = function
      | [] -> ()
      | c :: rest ->
          Clocks.merge clocks Clocks.client c;
          Clocks.merge clocks (Clocks.writers (Cclient c)) c;
          Clocks.merge clocks (Clocks.accessors (Cclient c)) c;
          write_clients rest
    in
    (* a job it spawned starts a thread whose past is its clock *)
    let rec start_jobs = function
      | [] -> ()
      | j :: rest ->
          Clocks.store clocks Clocks.job j;
          start_jobs rest
    in
    (* execute choice [t] on [session] positioned at depth [d]'s state,
       recording it in [nd] and writing the child's clocks; returns the
       child's sleep set *)
    let execute nd d session (t : footprint) =
      M.fire session t.thread;
      let step = M.last_step session in
      incr explored;
      (* the event's clock: its thread's past, the last writers of its
         components, the global clock, and itself *)
      Clocks.load clocks (thread_tag t.thread) (thread_id t.thread);
      Clocks.join clocks Clocks.global 0;
      join_pasts t.comps;
      Clocks.add clocks d;
      nd.exec <- t;
      nd.exec_step <- step;
      Clocks.store clocks (thread_tag t.thread) (thread_id t.thread);
      start_jobs step.spawned;
      access_all ~recorded:step.recorded t.comps;
      write_clients step.invoked;
      if is_crash t.thread then Clocks.store clocks Clocks.global 0;
      nd.executed <- nd.executed + 1;
      still_asleep t step nd.cur_sleep
    in
    (* a fresh run re-firing the threads executed at depths [0, d) *)
    let replay d =
      let s = M.create scenario in
      for i = 0 to d - 1 do
        M.fire s !stack.(i).exec.thread
      done;
      replayed := !replayed + d;
      s
    in
    let rec explore session d ~sleep_in =
      if !truncated then ()
      else begin
        if d > !max_depth then max_depth := d;
        if M.finished session then record session ~is_stuck:false
        else begin
          let descs = M.choices session in
          if Array.length descs = 0 then record session ~is_stuck:true
          else begin
            let nd =
              {
                descs;
                marks = Array.make (Array.length descs) idle;
                cur_sleep = sleep_in;
                executed = 0;
                exec = dummy.exec;
                exec_step = no_step;
              }
            in
            stack_set d nd;
            for k = 0 to Array.length descs - 1 do
              race_detect d descs.(k)
            done;
            (* seed the backtrack set with one non-sleeping transition *)
            (let rec seed k =
               if k < Array.length descs then
                 if sleeping descs.(k).thread sleep_in then seed (k + 1)
                 else mark nd k
             in
             seed 0);
            let fresh = ref true in
            let k = ref (next_pick nd) in
            while (not !truncated) && !k >= 0 do
              let t = descs.(!k) in
              nd.marks.(!k) <- done_;
              if sleeping t.thread nd.cur_sleep then incr sleep_skipped
              else if !explored >= max_explored then truncated := true
              else begin
                let s = if !fresh then session else replay d in
                fresh := false;
                let mark = clocks.len in
                let sleep' = execute nd d s t in
                explore s (d + 1) ~sleep_in:sleep';
                Clocks.undo clocks mark;
                nd.cur_sleep <- t :: nd.cur_sleep
              end;
              k := next_pick nd
            done;
            pruned := !pruned + (Array.length descs - nd.executed);
            !stack.(d) <- dummy
          end
        end
      end
    in
    explore (M.create scenario) 0 ~sleep_in:[];
    let fingerprints = Model.Verdicts.fingerprints verdicts in
    {
      explored = !explored;
      replayed = !replayed;
      pruned = !pruned;
      sleep_skipped = !sleep_skipped;
      terminal_runs = !terminal;
      stuck_runs = !stuck;
      distinct_states = List.length fingerprints;
      judged = Model.Verdicts.misses verdicts;
      max_depth = !max_depth;
      exhaustive = not !truncated;
      ws_safe_violations = !safe_bad;
      ws_regular_violations = !regular_bad;
      invariant_violations = !inv_bad;
      first_violation = !first_violation;
      state_fingerprints = fingerprints;
    }
end

include Make (Explore.Session)
