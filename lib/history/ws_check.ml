open Regemu_objects

type violation = {
  read : History.op;
  got : Value.t;
  allowed : Value.t list;
  reason : string;
}

let violation_pp ppf v =
  Fmt.pf ppf "read %a returned %a but only {%a} allowed: %s" History.op_pp
    v.read Value.pp v.got
    Fmt.(list ~sep:comma Value.pp)
    v.allowed v.reason

type verdict = Holds | Vacuous | Violated of violation

let verdict_pp ppf = function
  | Holds -> Fmt.string ppf "holds"
  | Vacuous -> Fmt.string ppf "vacuous (not write-sequential)"
  | Violated v -> Fmt.pf ppf "VIOLATED: %a" violation_pp v

let verdict_equal a b =
  match (a, b) with
  | Holds, Holds | Vacuous, Vacuous -> true
  | Violated x, Violated y -> x.read.index = y.read.index
  | (Holds | Vacuous | Violated _), _ -> false

(* Number of writes (a prefix of the write order) that precede [rd]. *)
let preceding_writes ws rd =
  List.length (List.filter (fun w -> History.precedes w rd) ws)

let value_written w =
  match History.written_value w with
  | Some v -> v
  | None -> assert false

(* Values a linearization of writes ∪ {rd} may let [rd] return, given
   the total write order [ws]: position j ∈ [p, |ws|] is admissible when
   the j-th write (1-based) was invoked before rd returned. *)
let admissible_values ws rd ~only_position =
  let p = preceding_writes ws rd in
  let n = List.length ws in
  let positions =
    match only_position with
    | Some j -> if j >= p && j <= n then [ j ] else []
    | None -> List.init (n - p + 1) (fun i -> p + i)
  in
  List.filter_map
    (fun j ->
      if j = 0 then Some Value.v0
      else
        let w = List.nth ws (j - 1) in
        (* rd must not precede w in real time *)
        if History.precedes rd w then None else Some (value_written w))
    positions

let check_read ws rd ~only_position ~reason =
  match rd.History.result with
  | None -> None (* incomplete reads are unconstrained *)
  | Some got ->
      let allowed = admissible_values ws rd ~only_position in
      if List.exists (Value.equal got) allowed then None
      else Some (Violated { read = rd; got; allowed; reason })

let regular_reason =
  "WS-Regular: no linearization of the writes and this read exists"

let check ~safe_only h =
  if not (History.write_sequential h) then Vacuous
  else
    let ws = History.writes_in_order h in
    let reads = History.complete (History.reads h) in
    let considered =
      if safe_only then
        List.filter
          (fun rd -> List.for_all (fun w -> not (History.concurrent rd w)) ws)
          reads
      else reads
    in
    let rec go = function
      | [] -> Holds
      | rd :: rest -> (
          let only_position, reason =
            if safe_only then
              ( Some (preceding_writes ws rd),
                "WS-Safe: read with no concurrent write must return the \
                 last preceding write" )
            else (None, regular_reason)
          in
          match check_read ws rd ~only_position ~reason with
          | None -> go rest
          | Some v -> v)
    in
    go considered

let check_ws_regular h = check ~safe_only:false h
let check_ws_safe h = check ~safe_only:true h

let not_violated = function Holds | Vacuous -> true | Violated _ -> false
let is_ws_regular h = not_violated (check_ws_regular h)
let is_ws_safe h = not_violated (check_ws_safe h)
