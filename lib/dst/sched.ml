open Regemu_live

exception Halt

type config = { seed : int; step_ns : int; max_steps : int }

let default_config ~seed = { seed; step_ns = 20_000; max_steps = 2_000_000 }

let validate_config cfg =
  if cfg.step_ns <= 0 then invalid_arg "Sched: step_ns must be positive";
  if cfg.max_steps <= 0 then invalid_arg "Sched: max_steps must be positive"

type astate =
  | Ready
  | Running
  | Blocked of { pred : unit -> bool; deadline : int64 option }
  | Sleeping of int64
  | Finished

(* performed at an actor's yield point: hand control back to the
   runner with the given state; the next grant resumes the
   continuation *)
type _ Effect.t += Yield : astate -> unit Effect.t

type next =
  | Start of (unit -> unit)  (* never granted: the body is still to run *)
  | Resume of (unit, unit) Effect.Deep.continuation
  | Gone  (* running or finished *)

type actor = {
  aid : int;
  name : string;
  mutable st : astate;
  mutable next : next;
}

type t = {
  cfg : config;
  rng : Regemu_sim.Rng.t;
  mutable actors : actor array;  (* spawn order; grow-only *)
  mutable nactors : int;
  mutable elig : actor array;  (* reused every step: the runnable actors *)
  mutable now : int64;  (* virtual nanoseconds *)
  mutable steps : int;
  mutable digest : int64;  (* FNV-1a over every step's chosen actor *)
  mutable choices_rev : int list;  (* recorded branch choices, newest first *)
  mutable sites_rev : int list;  (* branch-point sites (aid, width), newest first *)
  replay : int array;
  mutable replay_pos : int;
  mutable replay_clamped : int;  (* replayed values folded back in range *)
  mutable stopping : bool;
  mutable deadlock : string list option;
  mutable stalled : bool;
  mutable crashes : (string * string) list;
}

type report = {
  steps : int;
  vtime_ns : int64;
  digest : string;
  choices : int array;
  sites : int array;
  replay_clamped : int;
  replay_unused : int;
  deadlock : string list option;
  stalled : bool;
  actor_crashes : (string * string) list;
  actors : int;
}

(* --- FNV-1a, 64-bit ------------------------------------------------------ *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_mix d x =
  let d = ref d in
  for shift = 0 to 3 do
    let byte = Int64.of_int ((x lsr (8 * shift)) land 0xff) in
    d := Int64.mul (Int64.logxor !d byte) fnv_prime
  done;
  !d

let hex_of_digest d = Printf.sprintf "%016Lx" d

(* --- actor bookkeeping --------------------------------------------------- *)

let add_actor t a =
  if t.nactors = Array.length t.actors then begin
    let bigger = Array.make (max 8 (2 * t.nactors)) a in
    Array.blit t.actors 0 bigger 0 t.nactors;
    t.actors <- bigger
  end;
  t.actors.(t.nactors) <- a;
  t.nactors <- t.nactors + 1

(* park the calling actor with [st] as its new state until granted
   again *)
let yield st =
  try Effect.perform (Yield st)
  with Effect.Unhandled _ ->
    invalid_arg "Sched: blocking call from outside an actor"

let ns_of_s s = Int64.of_float (s *. 1e9)

(* --- the three hook operations ------------------------------------------ *)

let suspend t ?timeout_s ?mutex pred =
  Option.iter Mutex.unlock mutex;
  let deadline = Option.map (fun s -> Int64.add t.now (ns_of_s s)) timeout_s in
  yield (Blocked { pred; deadline });
  (* relock before raising so the caller's unlock-on-exit stays sound *)
  Option.iter Mutex.lock mutex;
  if t.stopping then raise Halt

let sleep t s =
  yield (Sleeping (Int64.add t.now (ns_of_s (Float.max 0.0 s))));
  if t.stopping then raise Halt

let spawn t ~name body =
  add_actor t { aid = t.nactors; name; st = Ready; next = Start body }

let hook t =
  {
    Sched_hook.spawn = (fun ~name body -> spawn t ~name body);
    suspend = (fun ?timeout_s ?mutex pred -> suspend t ?timeout_s ?mutex pred);
    sleep = (fun s -> sleep t s);
  }

(* --- the runner ---------------------------------------------------------- *)

(* the handler every actor body runs under: a [Yield] parks the actor
   and returns control to {!grant}; returning or raising finishes it *)
let handler t a =
  let finish () =
    a.st <- Finished;
    a.next <- Gone
  in
  let park = Some (fun k -> a.next <- Resume k) in
  {
    Effect.Deep.retc = finish;
    exnc =
      (fun exn ->
        (match exn with
        | Halt -> ()
        | exn -> t.crashes <- (a.name, Printexc.to_string exn) :: t.crashes);
        finish ());
    effc =
      (fun (type b) (eff : b Effect.t) :
           ((b, unit) Effect.Deep.continuation -> unit) option ->
        match eff with
        | Yield st ->
            a.st <- st;
            park
        | _ -> None);
  }

(* run [a] until it yields or finishes; an actor first granted after
   the run began stopping finishes without running its body *)
let grant t a =
  let next = a.next in
  a.st <- Running;
  a.next <- Gone;
  match next with
  | Start _ when t.stopping -> a.st <- Finished
  | Start body -> Effect.Deep.match_with body () (handler t a)
  | Resume k -> Effect.Deep.continue k ()
  | Gone -> invalid_arg "Sched: granted an actor that is not parked"

(* is [a] runnable right now?  [pred]s are evaluated here, on the
   runner, while every actor is parked — so they are plain reads with
   no possible race *)
let eligible t a =
  match a.st with
  | Ready -> true
  | Running | Finished -> false
  | Sleeping d -> d <= t.now
  | Blocked { pred; deadline } -> (
      (try pred () with _ -> true)
      || match deadline with Some d -> d <= t.now | None -> false)

(* gather the runnable actors, in spawn order, into [t.elig]; returns
   how many there are *)
let collect_eligible t =
  if Array.length t.elig < t.nactors then t.elig <- Array.copy t.actors;
  let n = ref 0 in
  for i = 0 to t.nactors - 1 do
    let a = t.actors.(i) in
    if eligible t a then begin
      t.elig.(!n) <- a;
      incr n
    end
  done;
  !n

let earliest_deadline t =
  let best = ref None in
  for i = 0 to t.nactors - 1 do
    let take d =
      match !best with
      | Some b when b <= d -> ()
      | _ -> best := Some d
    in
    match t.actors.(i).st with
    | Sleeping d -> take d
    | Blocked { deadline = Some d; _ } -> take d
    | _ -> ()
  done;
  !best

let parked_names t =
  let acc = ref [] in
  for i = t.nactors - 1 downto 0 do
    match t.actors.(i).st with
    | Finished -> ()
    | _ -> acc := t.actors.(i).name :: !acc
  done;
  !acc

let all_finished t =
  let rec go i = i >= t.nactors || (t.actors.(i).st = Finished && go (i + 1)) in
  go 0

(* pick the next actor: replayed choice if one is left (out-of-range
   values fold back in), the seeded rng otherwise; choices are recorded
   only at real branch points (more than one eligible actor) *)
let choose t n =
  if n = 1 then 0
  else begin
    let k =
      if t.replay_pos < Array.length t.replay then begin
        let v = t.replay.(t.replay_pos) in
        let k = ((v mod n) + n) mod n in
        if k <> v then t.replay_clamped <- t.replay_clamped + 1;
        k
      end
      else Regemu_sim.Rng.int t.rng ~bound:n
    in
    t.replay_pos <- t.replay_pos + 1;
    t.choices_rev <- k :: t.choices_rev;
    k
  end

(* a coverage site for the branch point that picked actor [a] among [n]
   eligible ones; sites feed the coverage-guided fuzzer's edge bitmap *)
let site_of aid n = ((aid land 0xffff) lsl 8) lor (n land 0xff)

let run ?(replay = [||]) cfg f =
  validate_config cfg;
  let t =
    {
      cfg;
      rng = Regemu_sim.Rng.create cfg.seed;
      actors = [||];
      nactors = 0;
      elig = [||];
      (* a nonzero epoch so no timestamp is confused with an unset 0 *)
      now = 1_000_000_000L;
      steps = 0;
      digest = fnv_offset;
      choices_rev = [];
      sites_rev = [];
      replay;
      replay_pos = 0;
      replay_clamped = 0;
      stopping = false;
      deadlock = None;
      stalled = false;
      crashes = [];
    }
  in
  Clock.set_source (fun () -> t.now);
  Fun.protect ~finally:Clock.clear_source @@ fun () ->
  let result = ref None in
  spawn t ~name:"main" (fun () -> result := Some (f t));
  while (not (all_finished t)) && not t.stopping do
    match collect_eligible t with
    | 0 -> (
        (* nothing runnable: jump virtual time to the next deadline, or
           declare the run wedged *)
        match earliest_deadline t with
        | Some d -> t.now <- Int64.max d (Int64.add t.now 1L)
        | None ->
            t.deadlock <- Some (parked_names t);
            t.stopping <- true)
    | n ->
        let a = t.elig.(choose t n) in
        if n > 1 then t.sites_rev <- site_of a.aid n :: t.sites_rev;
        t.steps <- t.steps + 1;
        t.digest <- fnv_mix (fnv_mix t.digest a.aid) n;
        t.now <- Int64.add t.now (Int64.of_int cfg.step_ns);
        if t.steps > cfg.max_steps then begin
          t.stalled <- true;
          t.stopping <- true
        end
        else grant t a
  done;
  (* teardown on deadlock/stall: grant every surviving actor once so it
     observes [stopping], raises {!Halt} out of its yield point, and
     finishes; repeat until no actor is left (a granted actor may spawn
     or briefly run before its next yield) *)
  let rec drain guard =
    if guard > 0 && not (all_finished t) then begin
      for i = 0 to t.nactors - 1 do
        let a = t.actors.(i) in
        if a.st <> Finished then grant t a
      done;
      drain (guard - 1)
    end
  in
  if t.stopping then drain (t.nactors + 16);
  ( !result,
    {
      steps = t.steps;
      vtime_ns = t.now;
      digest = hex_of_digest t.digest;
      choices = Array.of_list (List.rev t.choices_rev);
      sites = Array.of_list (List.rev t.sites_rev);
      replay_clamped = t.replay_clamped;
      replay_unused = max 0 (Array.length t.replay - t.replay_pos);
      deadlock = t.deadlock;
      stalled = t.stalled;
      actor_crashes = List.rev t.crashes;
      actors = t.nactors;
    } )
