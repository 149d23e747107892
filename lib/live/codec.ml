(* The length-prefixed binary wire codec of the [Socket] backend.

   Frame: [len : u32 BE][body], where the body is one {!msg}.  All
   integers are 8-byte big-endian two's complement (OCaml ints fit);
   strings are u32-length-prefixed bytes; values and payloads are
   tagged unions in declaration order.  The encoding is canonical —
   one byte string per message — so decode-then-encode is the
   identity on well-formed frames, which the round-trip tests pin
   down.  Framing is transport-neutral: the same bytes work over a
   Unix-domain socketpair today and a TCP stream tomorrow. *)

open Regemu_objects
open Regemu_netsim

exception Malformed of string

type msg =
  | Env of Transport_intf.envelope
  | Ensure_regs of int
      (* control: grow the server's register file to [n] cells, so
         parent-side [alloc_reg] calls reach an already-running child *)

let bad fmt = Fmt.kstr (fun s -> raise (Malformed s)) fmt

(* refuse absurd frames before allocating for them *)
let max_frame = 16 * 1024 * 1024

(* --- primitive writers -------------------------------------------------- *)

let add_int b n =
  let tmp = Bytes.create 8 in
  Bytes.set_int64_be tmp 0 (Int64.of_int n);
  Buffer.add_bytes b tmp

let add_u32 b n =
  let tmp = Bytes.create 4 in
  Bytes.set_int32_be tmp 0 (Int32.of_int n);
  Buffer.add_bytes b tmp

let add_byte b n = Buffer.add_char b (Char.chr (n land 0xff))

let add_str b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

(* --- primitive readers -------------------------------------------------- *)

type rd = { s : string; mutable pos : int }

let need r n what =
  if r.pos + n > String.length r.s then bad "truncated %s" what

let get_byte r what =
  need r 1 what;
  let v = Char.code r.s.[r.pos] in
  r.pos <- r.pos + 1;
  v

let get_int r what =
  need r 8 what;
  let v = Int64.to_int (String.get_int64_be r.s r.pos) in
  r.pos <- r.pos + 8;
  v

let get_u32 r what =
  need r 4 what;
  let v = Int32.to_int (String.get_int32_be r.s r.pos) in
  r.pos <- r.pos + 4;
  if v < 0 then bad "negative length in %s" what;
  v

let get_str r what =
  let n = get_u32 r what in
  need r n what;
  let v = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  v

(* --- values -------------------------------------------------------------- *)

let rec add_value b = function
  | Value.Unit -> add_byte b 0
  | Value.Bool v ->
      add_byte b 1;
      add_byte b (if v then 1 else 0)
  | Value.Int n ->
      add_byte b 2;
      add_int b n
  | Value.Str s ->
      add_byte b 3;
      add_str b s
  | Value.Pair (l, r) ->
      add_byte b 4;
      add_value b l;
      add_value b r

let rec get_value r =
  match get_byte r "value tag" with
  | 0 -> Value.Unit
  | 1 -> (
      match get_byte r "bool" with
      | 0 -> Value.Bool false
      | 1 -> Value.Bool true
      | n -> bad "bool byte %d" n)
  | 2 -> Value.Int (get_int r "int")
  | 3 -> Value.Str (get_str r "str")
  | 4 ->
      let l = get_value r in
      let rv = get_value r in
      Value.Pair (l, rv)
  | n -> bad "value tag %d" n

(* --- payloads ------------------------------------------------------------ *)

let add_payload b = function
  | Proto.Query { rid; key } ->
      add_byte b 0;
      add_int b rid;
      add_int b key
  | Proto.Query_reply { rid; stored } ->
      add_byte b 1;
      add_int b rid;
      add_value b stored
  | Proto.Update { rid; key; proposed } ->
      add_byte b 2;
      add_int b rid;
      add_int b key;
      add_value b proposed
  | Proto.Update_reply { rid } ->
      add_byte b 3;
      add_int b rid
  | Proto.Reg_read { rid; reg } ->
      add_byte b 4;
      add_int b rid;
      add_int b reg
  | Proto.Reg_read_reply { rid; stored } ->
      add_byte b 5;
      add_int b rid;
      add_value b stored
  | Proto.Reg_write { rid; reg; proposed } ->
      add_byte b 6;
      add_int b rid;
      add_int b reg;
      add_value b proposed
  | Proto.Reg_write_reply { rid } ->
      add_byte b 7;
      add_int b rid
  | Proto.Cquery { rid } ->
      add_byte b 8;
      add_int b rid
  | Proto.Cquery_reply { rid; slots } ->
      add_byte b 9;
      add_int b rid;
      add_u32 b (List.length slots);
      List.iter
        (fun (slot, v) ->
          add_int b slot;
          add_value b v)
        slots
  | Proto.Cwrite { rid; slot; proposed } ->
      add_byte b 10;
      add_int b rid;
      add_int b slot;
      add_value b proposed
  | Proto.Cwrite_reply { rid; slot } ->
      add_byte b 11;
      add_int b rid;
      add_int b slot

let get_payload r =
  match get_byte r "payload tag" with
  | 0 ->
      let rid = get_int r "rid" in
      Proto.Query { rid; key = get_int r "key" }
  | 1 ->
      let rid = get_int r "rid" in
      Proto.Query_reply { rid; stored = get_value r }
  | 2 ->
      let rid = get_int r "rid" in
      let key = get_int r "key" in
      Proto.Update { rid; key; proposed = get_value r }
  | 3 -> Proto.Update_reply { rid = get_int r "rid" }
  | 4 ->
      let rid = get_int r "rid" in
      Proto.Reg_read { rid; reg = get_int r "reg" }
  | 5 ->
      let rid = get_int r "rid" in
      Proto.Reg_read_reply { rid; stored = get_value r }
  | 6 ->
      let rid = get_int r "rid" in
      let reg = get_int r "reg" in
      Proto.Reg_write { rid; reg; proposed = get_value r }
  | 7 -> Proto.Reg_write_reply { rid = get_int r "rid" }
  | 8 -> Proto.Cquery { rid = get_int r "rid" }
  | 9 ->
      let rid = get_int r "rid" in
      let count = get_u32 r "slot count" in
      let slots = ref [] in
      for _ = 1 to count do
        let slot = get_int r "slot" in
        let v = get_value r in
        slots := (slot, v) :: !slots
      done;
      Proto.Cquery_reply { rid; slots = List.rev !slots }
  | 10 ->
      let rid = get_int r "rid" in
      let slot = get_int r "slot" in
      Proto.Cwrite { rid; slot; proposed = get_value r }
  | 11 ->
      let rid = get_int r "rid" in
      Proto.Cwrite_reply { rid; slot = get_int r "slot" }
  | n -> bad "payload tag %d" n

(* --- messages ------------------------------------------------------------ *)

let add_dest b = function
  | Transport_intf.To_server s ->
      add_byte b 0;
      add_int b s
  | Transport_intf.To_client c ->
      add_byte b 1;
      add_int b c

let get_dest r =
  match get_byte r "dest tag" with
  | 0 -> Transport_intf.To_server (get_int r "server")
  | 1 -> Transport_intf.To_client (get_int r "client")
  | n -> bad "dest tag %d" n

let encode msg =
  let b = Buffer.create 64 in
  (match msg with
  | Env env ->
      add_byte b 0xE0;
      add_int b env.Transport_intf.src;
      add_dest b env.dest;
      add_payload b env.payload
  | Ensure_regs n ->
      add_byte b 0xC0;
      add_int b n);
  Buffer.contents b

let decode s =
  let r = { s; pos = 0 } in
  let msg =
    match get_byte r "msg tag" with
    | 0xE0 ->
        let src = get_int r "src" in
        let dest = get_dest r in
        let payload = get_payload r in
        Env { Transport_intf.src; dest; payload }
    | 0xC0 -> Ensure_regs (get_int r "regs")
    | n -> bad "msg tag %d" n
  in
  if r.pos <> String.length s then
    bad "%d trailing bytes" (String.length s - r.pos);
  msg

(* --- framing ------------------------------------------------------------- *)

let rec write_all fd buf pos len =
  if len > 0 then begin
    let n =
      try Unix.write fd buf pos len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd buf (pos + n) (len - n)
  end

let write_msg fd msg =
  let body = encode msg in
  let n = String.length body in
  let frame = Bytes.create (4 + n) in
  Bytes.set_int32_be frame 0 (Int32.of_int n);
  Bytes.blit_string body 0 frame 4 n;
  write_all fd frame 0 (4 + n)

(* read exactly [len] bytes; [`Eof] only at offset 0 (a clean
   inter-frame boundary), otherwise a mid-frame EOF is malformed *)
let read_exactly fd len what =
  let buf = Bytes.create len in
  let rec go pos =
    if pos >= len then `Ok buf
    else
      match Unix.read fd buf pos (len - pos) with
      | 0 -> if pos = 0 then `Eof else bad "eof inside %s" what
      | n -> go (pos + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
  in
  go 0

let read_msg fd =
  match read_exactly fd 4 "frame header" with
  | `Eof -> None
  | `Ok hdr ->
      let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
      if len <= 0 || len > max_frame then bad "frame length %d" len;
      (match read_exactly fd len "frame body" with
      | `Eof -> bad "eof inside frame body"
      | `Ok body -> Some (decode (Bytes.to_string body)))
