type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Pair of t * t

let v0 = Unit

let rank = function
  | Unit -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Str _ -> 3
  | Pair _ -> 4

let rec compare a b =
  match (a, b) with
  | Unit, Unit -> 0
  | Bool x, Bool y -> Stdlib.compare x y
  | Int x, Int y -> Stdlib.compare x y
  | Str x, Str y -> Stdlib.compare x y
  | Pair (x1, x2), Pair (y1, y2) ->
      let c = compare x1 y1 in
      if c <> 0 then c else compare x2 y2
  | _ -> Stdlib.compare (rank a) (rank b)

let equal a b = compare a b = 0
let max a b = if compare a b >= 0 then a else b

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(* [string_of_int]'s text without its format parsing or string *)
let add_int buf i =
  if i = min_int then Buffer.add_string buf (string_of_int i)
  else begin
    if i < 0 then Buffer.add_char buf '-';
    add_digits buf (abs i)
  end

let rec add_to_buffer buf = function
  | Unit -> Buffer.add_string buf "v0"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> add_int buf i
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (String.escaped s);
      Buffer.add_char buf '"'
  | Pair (a, b) ->
      Buffer.add_char buf '<';
      add_to_buffer buf a;
      Buffer.add_char buf ',';
      add_to_buffer buf b;
      Buffer.add_char buf '>'

let to_string v =
  let buf = Buffer.create 16 in
  add_to_buffer buf v;
  Buffer.contents buf

let pp ppf v = Fmt.string ppf (to_string v)
let with_ts ts v = Pair (Int ts, v)
let ts = function Pair (Int ts, _) -> ts | _ -> 0
let payload = function Pair (Int _, v) -> v | v -> v
