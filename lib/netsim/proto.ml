open Regemu_objects

type payload =
  | Query of { rid : int; key : int }
  | Query_reply of { rid : int; stored : Value.t }
  | Update of { rid : int; key : int; proposed : Value.t }
  | Update_reply of { rid : int }
  | Reg_read of { rid : int; reg : int }
  | Reg_read_reply of { rid : int; stored : Value.t }
  | Reg_write of { rid : int; reg : int; proposed : Value.t }
  | Reg_write_reply of { rid : int }
  | Cquery of { rid : int }
  | Cquery_reply of { rid : int; slots : (int * Value.t) list }
  | Cwrite of { rid : int; slot : int; proposed : Value.t }
  | Cwrite_reply of { rid : int; slot : int }

let payload_pp ppf = function
  | Query { rid; key } -> Fmt.pf ppf "query#%d[k%d]" rid key
  | Query_reply { rid; stored } ->
      Fmt.pf ppf "query-reply#%d(%a)" rid Value.pp stored
  | Update { rid; key; proposed } ->
      Fmt.pf ppf "update#%d[k%d](%a)" rid key Value.pp proposed
  | Update_reply { rid } -> Fmt.pf ppf "update-reply#%d" rid
  | Reg_read { rid; reg } -> Fmt.pf ppf "reg-read#%d[r%d]" rid reg
  | Reg_read_reply { rid; stored } ->
      Fmt.pf ppf "reg-read-reply#%d(%a)" rid Value.pp stored
  | Reg_write { rid; reg; proposed } ->
      Fmt.pf ppf "reg-write#%d[r%d](%a)" rid reg Value.pp proposed
  | Reg_write_reply { rid } -> Fmt.pf ppf "reg-write-reply#%d" rid
  | Cquery { rid } -> Fmt.pf ppf "cquery#%d" rid
  | Cquery_reply { rid; slots } ->
      Fmt.pf ppf "cquery-reply#%d(%a)" rid
        Fmt.(
          list ~sep:(any ",") (fun ppf (s, v) ->
              Fmt.pf ppf "s%d=%a" s Value.pp v))
        slots
  | Cwrite { rid; slot; proposed } ->
      Fmt.pf ppf "cwrite#%d[s%d](%a)" rid slot Value.pp proposed
  | Cwrite_reply { rid; slot } -> Fmt.pf ppf "cwrite-reply#%d[s%d]" rid slot

let rid_of = function
  | Query { rid; _ }
  | Query_reply { rid; _ }
  | Update { rid; _ }
  | Update_reply { rid }
  | Reg_read { rid; _ }
  | Reg_read_reply { rid; _ }
  | Reg_write { rid; _ }
  | Reg_write_reply { rid }
  | Cquery { rid }
  | Cquery_reply { rid; _ }
  | Cwrite { rid; _ }
  | Cwrite_reply { rid; _ } ->
      rid

let is_reply = function
  | Query_reply _ | Update_reply _ | Reg_read_reply _ | Reg_write_reply _
  | Cquery_reply _ | Cwrite_reply _ ->
      true
  | Query _ | Update _ | Reg_read _ | Reg_write _ | Cquery _ | Cwrite _ ->
      false

type store = {
  mutable regs : Value.t array;
  maxcells : (int, Value.t) Hashtbl.t;  (* key -> max-register; v0 absent *)
  cslots : (int, Value.t) Hashtbl.t;
}

let store_create () =
  { regs = [||]; maxcells = Hashtbl.create 64; cslots = Hashtbl.create 8 }

let alloc_reg st =
  let ix = Array.length st.regs in
  st.regs <- Array.append st.regs [| Value.v0 |];
  ix

let num_regs st = Array.length st.regs
let peek_reg st reg = st.regs.(reg)
let num_keys st = Hashtbl.length st.maxcells

(* an absent key or slot holds v0 *)
let find_v0 tbl i =
  match Hashtbl.find_opt tbl i with Some v -> v | None -> Value.v0

let num_slots st = Hashtbl.length st.cslots
let peek_slot st slot = find_v0 st.cslots slot

(* size of [v]'s canonical wire encoding (mirrors the live codec's
   [add_value]): 1 tag byte, plus 1 for bools, 8 for ints, 4+len for
   strings, both branches for pairs.  The resident-bytes metric is the
   sum of this over every resident cell — a backend-independent measure
   of what the server actually holds. *)
let rec value_bytes = function
  | Value.Unit -> 1
  | Value.Bool _ -> 2
  | Value.Int _ -> 9
  | Value.Str s -> 5 + String.length s
  | Value.Pair (l, r) -> 1 + value_bytes l + value_bytes r

(* a key's max-register counts as resident once it holds a value other
   than v0 (the table holds no other); plain cells count from
   allocation (that is Algorithm 2's space commitment), per-writer
   cells from first touch *)
let resident_cells st =
  Array.length st.regs + Hashtbl.length st.maxcells + Hashtbl.length st.cslots

let resident_bytes st =
  Array.fold_left (fun a v -> a + value_bytes v) 0 st.regs
  + Hashtbl.fold (fun _ v a -> a + value_bytes v) st.maxcells 0
  + Hashtbl.fold (fun _ v a -> a + value_bytes v) st.cslots 0

let reset st =
  Array.iteri (fun i _ -> st.regs.(i) <- Value.v0) st.regs;
  Hashtbl.reset st.maxcells;
  Hashtbl.reset st.cslots

let step st = function
  | Query { rid; key } ->
      [ Query_reply { rid; stored = find_v0 st.maxcells key } ]
  | Update { rid; key; proposed } ->
      (* write-max into the key's max-register, allocated when it first
         holds a value other than v0, so an idle key costs nothing *)
      let v = Value.max (find_v0 st.maxcells key) proposed in
      if not (Value.equal v Value.v0) then Hashtbl.replace st.maxcells key v;
      [ Update_reply { rid } ]
  | Reg_read { rid; reg } -> [ Reg_read_reply { rid; stored = st.regs.(reg) } ]
  | Reg_write { rid; reg; proposed } ->
      (* plain register: last delivered write wins, whenever it lands *)
      st.regs.(reg) <- proposed;
      [ Reg_write_reply { rid } ]
  | Cquery { rid } ->
      (* collect every resident per-writer slot; sorted so the reply is
         canonical whatever the hash order *)
      let slots =
        List.sort compare
          (Hashtbl.fold (fun s v acc -> (s, v) :: acc) st.cslots [])
      in
      [ Cquery_reply { rid; slots } ]
  | Cwrite { rid; slot; proposed } ->
      (* per-writer write-max: slot [slot] is one base register of the
         CDS layered max-register, allocated on first touch *)
      Hashtbl.replace st.cslots slot (Value.max (peek_slot st slot) proposed);
      [ Cwrite_reply { rid; slot } ]
  | Query_reply _ | Update_reply _ | Reg_read_reply _ | Reg_write_reply _
  | Cquery_reply _ | Cwrite_reply _ ->
      []
