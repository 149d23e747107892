type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let float_str f =
  if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let rec emit b indent v =
  let pad n = String.make (2 * n) ' ' in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_str f)
  | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
  | List [] -> Buffer.add_string b "[]"
  | List xs ->
      Buffer.add_string b "[\n";
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b (pad (indent + 1));
          emit b (indent + 1) x)
        xs;
      Buffer.add_char b '\n';
      Buffer.add_string b (pad indent);
      Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj kvs ->
      Buffer.add_string b "{\n";
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b (pad (indent + 1));
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b "\": ";
          emit b (indent + 1) x)
        kvs;
      Buffer.add_char b '\n';
      Buffer.add_string b (pad indent);
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  emit b 0 v;
  Buffer.contents b

let to_file path v =
  let oc = open_out path in
  output_string oc (to_string v);
  output_char oc '\n';
  close_out oc

(* --- parsing ------------------------------------------------------------ *)

exception Parse_error of string

type cursor = { s : string; mutable pos : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "at byte %d: %s" cur.pos msg))

let peek cur = if cur.pos < String.length cur.s then Some cur.s.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let rec go () =
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance cur;
        go ()
    | _ -> ()
  in
  go ()

let expect cur c =
  match peek cur with
  | Some x when x = c -> advance cur
  | Some x -> fail cur (Printf.sprintf "expected %c, found %c" c x)
  | None -> fail cur (Printf.sprintf "expected %c, found end of input" c)

let literal cur word v =
  let n = String.length word in
  if
    cur.pos + n <= String.length cur.s
    && String.sub cur.s cur.pos n = word
  then begin
    cur.pos <- cur.pos + n;
    v
  end
  else fail cur (Printf.sprintf "expected %s" word)

let parse_string_body cur =
  let b = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' -> (
        advance cur;
        match peek cur with
        | None -> fail cur "unterminated escape"
        | Some c ->
            advance cur;
            (match c with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                if cur.pos + 4 > String.length cur.s then
                  fail cur "truncated \\u escape";
                let hex = String.sub cur.s cur.pos 4 in
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail cur "bad \\u escape"
                in
                cur.pos <- cur.pos + 4;
                (* we only emit \u00xx for control chars; decode the
                   BMP code point as UTF-8 for completeness *)
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char b
                    (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
            | c -> fail cur (Printf.sprintf "bad escape \\%c" c));
            go ())
    | Some c ->
        advance cur;
        Buffer.add_char b c;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number cur =
  let start = cur.pos in
  let is_float = ref false in
  let rec go () =
    match peek cur with
    | Some ('0' .. '9' | '-' | '+') ->
        advance cur;
        go ()
    | Some ('.' | 'e' | 'E') ->
        is_float := true;
        advance cur;
        go ()
    | _ -> ()
  in
  go ();
  let tok = String.sub cur.s start (cur.pos - start) in
  if !is_float then
    match float_of_string_opt tok with
    | Some f -> Float f
    | None -> fail cur (Printf.sprintf "bad number %s" tok)
  else
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        (* an integer too large for [int] still parses as a float *)
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail cur (Printf.sprintf "bad number %s" tok))

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some 'n' -> literal cur "null" Null
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some '"' ->
      advance cur;
      Str (parse_string_body cur)
  | Some '[' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some ']' then begin
        advance cur;
        List []
      end
      else
        let rec items acc =
          let v = parse_value cur in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              items (v :: acc)
          | Some ']' ->
              advance cur;
              List.rev (v :: acc)
          | _ -> fail cur "expected , or ] in array"
        in
        List (items [])
  | Some '{' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some '}' then begin
        advance cur;
        Obj []
      end
      else
        let rec members acc =
          skip_ws cur;
          expect cur '"';
          let k = parse_string_body cur in
          skip_ws cur;
          expect cur ':';
          let v = parse_value cur in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              members ((k, v) :: acc)
          | Some '}' ->
              advance cur;
              List.rev ((k, v) :: acc)
          | _ -> fail cur "expected , or } in object"
        in
        Obj (members [])
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected character %c" c)

let of_string s =
  let cur = { s; pos = 0 } in
  match parse_value cur with
  | v ->
      skip_ws cur;
      if cur.pos < String.length s then
        Error (Printf.sprintf "trailing garbage at byte %d" cur.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

let of_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  of_string s

(* --- accessors ---------------------------------------------------------- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_int_opt = function Int i -> Some i | _ -> None
let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None
let to_str_opt = function Str s -> Some s | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
let to_list_opt = function List xs -> Some xs | _ -> None

let to_enum_opt names = function
  | Str s when List.mem s names -> Some s
  | _ -> None

(* --- validation --------------------------------------------------------- *)

let get k conv j =
  match Option.bind (member k j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "field %S is missing or invalid" k)

let check_schema id doc =
  Result.bind (get "schema" to_str_opt doc) (fun s ->
      if s = id then Ok ()
      else Error (Printf.sprintf "schema %S, expected %S" s id))

let rec each f = function
  | [] -> Ok ()
  | x :: xs -> Result.bind (f x) (fun () -> each f xs)

(* Validate what is about to be written and, once written, what
   actually landed on disk: a non-finite float, for one, is emitted as
   [null] and only the read-back sees it. *)
let write_checked ~validate path doc =
  let check what d =
    Result.map_error
      (Printf.sprintf "%s fails its schema check: %s" what)
      (validate d)
  in
  Result.bind (check "emitted document" doc) (fun () ->
      match path with
      | None -> Ok ()
      | Some path -> (
          match
            to_file path doc;
            of_file path
          with
          | exception Sys_error m -> Error m
          | Error m -> Error (Printf.sprintf "read-back of %s: %s" path m)
          | Ok disk -> check ("read-back of " ^ path) disk))
