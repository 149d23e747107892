open Regemu_objects

type hop = H_write of Value.t | H_read

let add_hop_to_buffer buf = function
  | H_write v ->
      Buffer.add_string buf "write(";
      Value.add_to_buffer buf v;
      Buffer.add_char buf ')'
  | H_read -> Buffer.add_string buf "read()"

let hop_pp ppf h =
  let buf = Buffer.create 16 in
  add_hop_to_buffer buf h;
  Fmt.string ppf (Buffer.contents buf)

let hop_is_write = function H_write _ -> true | H_read -> false

type entry =
  | Invoke of Id.Client.t * hop
  | Return of Id.Client.t * hop * Value.t
  | Trigger of {
      lid : Id.Lop.t;
      client : Id.Client.t;
      obj : Id.Obj.t;
      op : Base_object.op;
    }
  | Respond of {
      lid : Id.Lop.t;
      client : Id.Client.t;
      obj : Id.Obj.t;
      op : Base_object.op;
      result : Value.t;
    }
  | Server_crash of Id.Server.t
  | Client_crash of Id.Client.t

let entry_pp ppf = function
  | Invoke (c, h) -> Fmt.pf ppf "%a invokes %a" Id.Client.pp c hop_pp h
  | Return (c, h, v) ->
      Fmt.pf ppf "%a returns %a from %a" Id.Client.pp c Value.pp v hop_pp h
  | Trigger { lid; client; obj; op } ->
      Fmt.pf ppf "%a triggers %a as %a on %a" Id.Client.pp client
        Base_object.op_pp op Id.Lop.pp lid Id.Obj.pp obj
  | Respond { lid; client; obj; op; result } ->
      Fmt.pf ppf "%a on %a responds %a to %a (%a)" Id.Lop.pp lid Id.Obj.pp obj
        Value.pp result Id.Client.pp client Base_object.op_pp op
  | Server_crash s -> Fmt.pf ppf "server %a crashes" Id.Server.pp s
  | Client_crash c -> Fmt.pf ppf "client %a crashes" Id.Client.pp c

type t = { mutable entries : entry array; mutable len : int }

let create () = { entries = Array.make 64 (Client_crash (Id.Client.of_int 0)); len = 0 }
let time t = t.len

let record t e =
  if t.len = Array.length t.entries then begin
    let bigger = Array.make (2 * t.len) e in
    Array.blit t.entries 0 bigger 0 t.len;
    t.entries <- bigger
  end;
  t.entries.(t.len) <- e;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Trace.get: out of bounds";
  t.entries.(i)

let to_list t = Array.to_list (Array.sub t.entries 0 t.len)

let iter f t =
  for i = 0 to t.len - 1 do
    f t.entries.(i)
  done

let since t from =
  let from = Stdlib.max 0 from in
  if from >= t.len then []
  else Array.to_list (Array.sub t.entries from (t.len - from))

let pp ppf t =
  let i = ref 0 in
  iter
    (fun e ->
      incr i;
      Fmt.pf ppf "%4d. %a@." !i entry_pp e)
    t
