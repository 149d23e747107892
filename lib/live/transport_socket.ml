(* The [Socket] backend: each server is a separate forked process
   speaking the length-prefixed binary {!Codec} over a Unix-domain
   socketpair (the framing is TCP-ready; only the dial here is
   process-local).  The parent keeps a per-server slot — an MPSC
   outbox, a writer thread applying the seeded request-fault stream,
   and a reader thread decoding replies and applying the reply-fault
   stream — while the child is nothing but a [Proto.store] stepped by
   frames on stdin/stdout.

   Children are re-execed images of the current executable (the
   [REGEMU_SOCKET_SERVER] environment variable short-circuits [main]
   into {!child_check}), which sidesteps fork-without-exec hazards in
   a threaded parent.

   Crash injection is real: [set_server_up false] SIGKILLs the child
   and reaps it; messages already in its kernel buffer die with it
   (genuine message loss — the retry layer's job), while messages
   still in the parent-side outbox wait for the restart, like a
   mailbox to a crashed-but-reachable server.  A restart execs a
   fresh image, so the store always comes back empty: this backend is
   inherently amnesiac, whatever the configured recovery mode.

   Parent-side register allocations reach a live child via
   [Ensure_regs] control frames, emitted by the writer whenever the
   parent's count has grown past what the child was spawned with. *)

open Transport_intf

let env_server = "REGEMU_SOCKET_SERVER"
let env_regs = "REGEMU_SOCKET_REGS"

(* The child's first bytes on the wire.  Linked libraries are free to
   print to stdout at module-init time (qcheck-alcotest announces its
   seed, for one), and those prints land on the socketpair {e before}
   [child_check] can run — so the parent discards everything up to
   this preamble, and the child re-points fd 1 at stderr before
   serving so no later print (including at_exit channel flushes) can
   corrupt a frame. *)
let magic = "\xa5\x00regemu-sock/1\x00\x5a"

(* --- the child ----------------------------------------------------------- *)

let serve ~server ~regs =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a private dup of the socket (fds 0 and 1 are the same socketpair
     end), then route fd 1 — and with it the stdlib [stdout] channel —
     to stderr: stray prints must never interleave with frames *)
  let sock = Unix.dup Unix.stdin in
  Unix.dup2 Unix.stderr Unix.stdout;
  ignore (Unix.write_substring sock magic 0 (String.length magic));
  let store = Regemu_netsim.Proto.store_create () in
  for _ = 1 to regs do
    ignore (Regemu_netsim.Proto.alloc_reg store)
  done;
  let ensure n =
    while Regemu_netsim.Proto.num_regs store < n do
      ignore (Regemu_netsim.Proto.alloc_reg store)
    done
  in
  let rec loop () =
    match Codec.read_msg sock with
    | None -> ()  (* parent closed the pipe: clean shutdown *)
    | Some (Codec.Ensure_regs n) ->
        ensure n;
        loop ()
    | Some (Codec.Env env) ->
        let replies = Regemu_netsim.Proto.step store env.payload in
        List.iter
          (fun reply ->
            Codec.write_msg sock
              (Codec.Env
                 { src = server; dest = To_client env.src; payload = reply }))
          replies;
        loop ()
  in
  (* a SIGKILLed parent, a torn frame: either way the child just exits *)
  (try loop () with Codec.Malformed _ | Unix.Unix_error _ -> ());
  exit 0

(* Call first thing in [main] of any executable that may host this
   backend: a process spawned as a socket server serves and exits
   here, never reaching the caller's own logic. *)
let child_check () =
  match Sys.getenv_opt env_server with
  | None -> ()
  | Some sid ->
      let server = int_of_string sid in
      let regs =
        match Sys.getenv_opt env_regs with
        | Some r -> int_of_string r
        | None -> 0
      in
      serve ~server ~regs

(* --- the parent ---------------------------------------------------------- *)

type child = { pid : int; fd : Unix.file_descr }

type slot = {
  server : int;
  outq : envelope Mpsc.t;
  wrng : Regemu_sim.Rng.t;  (* writer-thread private: request faults *)
  rrng : Regemu_sim.Rng.t;  (* reader-thread private: reply faults *)
  lrec : Sink.Trace.recorder option;
  child : child option Atomic.t;  (* [None] while crashed *)
  mutable child_regs : int;  (* writer-private: regs the child has *)
  mutable writer : Thread.t option;
  mutable readers : Thread.t list;  (* one live + one exiting per restart *)
  rm : Mutex.t;  (* guards [readers] and [old_fds] *)
  mutable old_fds : Unix.file_descr list;  (* closed at [stop]: never
                                              reuse an fd a thread may
                                              still be blocked on *)
}

type t = {
  ctl : control;
  server_regs : int -> int;  (* parent-side register count, per server *)
  slots : slot array;
  up : bool Atomic.t array;
}

let create ?(sink = Sink.none) cfg ~servers ~deliver ~server_regs =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let slots =
    Array.init servers (fun i ->
        {
          server = i;
          outq = Mpsc.create ();
          wrng = Regemu_sim.Rng.create (cfg.seed + ((i + 1) * 0x9e3779b9));
          rrng = Regemu_sim.Rng.create (cfg.seed + ((i + 1) * 0x85ebca6b));
          lrec = Sink.recorder sink ~name:(Fmt.str "sock-s%d" i);
          child = Atomic.make None;
          child_regs = 0;
          writer = None;
          readers = [];
          rm = Mutex.create ();
          old_fds = [];
        })
  in
  let ctl =
    control ~sink cfg ~servers ~deliver ~wake:(fun s ->
        Mpsc.wake slots.(s).outq)
  in
  let up = Array.init servers (fun _ -> Atomic.make true) in
  { ctl; server_regs; slots; up }

let spawn_child t slot =
  let parent_end, child_end =
    Unix.socketpair ~cloexec:false Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  Unix.set_close_on_exec parent_end;
  let env =
    Array.append (Unix.environment ())
      [|
        Fmt.str "%s=%d" env_server slot.server;
        Fmt.str "%s=%d" env_regs (t.server_regs slot.server);
      |]
  in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env child_end child_end Unix.stderr
  in
  Unix.close child_end;
  slot.child_regs <- t.server_regs slot.server;
  { pid; fd = parent_end }

(* --- reader -------------------------------------------------------------- *)

(* discard the child's pre-[serve] stdout noise: scan for {!magic},
   sliding a window one byte at a time (a few dozen bytes at most) *)
let await_magic fd =
  let m = Bytes.of_string magic in
  let lm = Bytes.length m in
  let win = Bytes.create lm in
  let got = ref 0 in
  let scanned = ref 0 in
  let b = Bytes.create 1 in
  let rec rd () =
    match Unix.read fd b 0 1 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> rd ()
    | n -> n
  in
  let rec go () =
    if !scanned > 65536 then
      raise (Codec.Malformed "no magic preamble from the server child");
    if rd () = 0 then
      raise (Codec.Malformed "eof before the server child's preamble");
    incr scanned;
    if !got < lm then begin
      Bytes.set win !got (Bytes.get b 0);
      incr got
    end
    else begin
      Bytes.blit win 1 win 0 (lm - 1);
      Bytes.set win (lm - 1) (Bytes.get b 0)
    end;
    if not (!got = lm && Bytes.equal win m) then go ()
  in
  go ()

let reader_loop t slot fd =
  let c = t.ctl in
  let out = hand c slot.lrec in
  let rec loop () =
    match Codec.read_msg fd with
    | None -> ()  (* EOF: the child died or we are stopping *)
    | Some (Codec.Ensure_regs _) -> loop ()  (* children never send these *)
    | Some (Codec.Env env) ->
        forward c ~rng:slot.rrng ~lrec:slot.lrec (Atomic.get c.state) env out;
        loop ()
  in
  (* a SIGKILL mid-frame surfaces as a malformed tail — expected *)
  try
    await_magic fd;
    loop ()
  with Codec.Malformed _ | Unix.Unix_error _ -> ()

let add_reader t slot fd =
  Mutex.lock slot.rm;
  slot.readers <- Thread.create (fun () -> reader_loop t slot fd) () :: slot.readers;
  Mutex.unlock slot.rm

(* --- writer -------------------------------------------------------------- *)

let slot_gated t slot =
  (not (Atomic.get t.up.(slot.server)))
  || frozen_of (Atomic.get t.ctl.state) ~server:slot.server
  || Atomic.get slot.child = None

(* one attempted frame write; a dead or dying child loses the message,
   which the retry layer treats like any other loss *)
let try_write t slot msg =
  match Atomic.get slot.child with
  | None -> ()
  | Some c -> (
      try Codec.write_msg c.fd msg
      with Unix.Unix_error _ -> Atomic.incr t.ctl.dropped)

(* hand one request copy to the child, forwarding any parent-side
   register growth first so the child can step a Reg_* request the
   parent just set up *)
let write_env t slot env =
  let want = t.server_regs slot.server in
  if want > slot.child_regs then begin
    try_write t slot (Codec.Ensure_regs want);
    slot.child_regs <- want
  end;
  try_write t slot (Codec.Env env)

let writer_loop t slot =
  let c = t.ctl in
  let out = write_env t slot in
  let ready () =
    Atomic.get c.stopped
    || ((not (Mpsc.is_empty slot.outq)) && not (slot_gated t slot))
  in
  while not (Atomic.get c.stopped) do
    if Mpsc.is_empty slot.outq || slot_gated t slot then
      Mpsc.park slot.outq ~ready
    else
      match Mpsc.try_pop slot.outq with
      | None -> ()
      | Some env ->
          forward c ~rng:slot.wrng ~lrec:slot.lrec (Atomic.get c.state) env out
  done

(* --- lifecycle ----------------------------------------------------------- *)

let start t =
  Array.iter
    (fun slot ->
      let c = spawn_child t slot in
      Atomic.set slot.child (Some c);
      add_reader t slot c.fd;
      slot.writer <- Some (Thread.create (writer_loop t) slot))
    t.slots

let send t env =
  let c = t.ctl in
  if not (Atomic.get c.stopped) then begin
    match env.dest with
    | To_server s when s >= 0 && s < c.nservers ->
        Atomic.incr c.sent;
        msg_point t.slots.(s).lrec "send" env;
        Mpsc.push t.slots.(s).outq env
    | To_server _ -> ()
    | To_client _ ->
        (* parent-local: only possible if a layer above loops a reply
           back through the transport — deliver directly *)
        Atomic.incr c.sent;
        hand c None env
  end

let kill_child slot =
  match Atomic.exchange slot.child None with
  | None -> ()
  | Some c ->
      (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ());
      (* the reader blocked on [c.fd] sees EOF and exits; the fd is
         parked until [stop] so its number cannot be reused under a
         thread still touching it *)
      Mutex.lock slot.rm;
      slot.old_fds <- c.fd :: slot.old_fds;
      Mutex.unlock slot.rm

let set_server_up t ~server v =
  check_server t.ctl "set_server_up" server;
  let slot = t.slots.(server) in
  if not v then begin
    Atomic.set t.up.(server) false;
    kill_child slot
  end
  else begin
    if Atomic.get slot.child = None && not (Atomic.get t.ctl.stopped)
    then begin
      let c = spawn_child t slot in
      Atomic.set slot.child (Some c);
      add_reader t slot c.fd
    end;
    Atomic.set t.up.(server) true;
    Mpsc.wake slot.outq
  end

let stop t =
  Atomic.set t.ctl.stopped true;
  Array.iter (fun slot -> Mpsc.wake slot.outq) t.slots;
  Array.iter
    (fun slot ->
      Option.iter Thread.join slot.writer;
      slot.writer <- None)
    t.slots;
  (* kill the children so every reader unblocks on EOF *)
  Array.iter kill_child t.slots;
  Array.iter
    (fun slot ->
      Mutex.lock slot.rm;
      let readers = slot.readers and fds = slot.old_fds in
      slot.readers <- [];
      slot.old_fds <- [];
      Mutex.unlock slot.rm;
      List.iter Thread.join readers;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        fds)
    t.slots

let lanes t = t.ctl.nservers
