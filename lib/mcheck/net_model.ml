open Regemu_bounds
open Regemu_objects
open Regemu_netsim

type scenario = {
  params : Params.t;
  protocol : Net_scenario.protocol;
  ops : [ `Write of Value.t | `Read ] list;
  crashes : int;
}

type t = {
  scenario : scenario;
  net : Net.t;
  writers : Id.Client.t list;
  reader : Id.Client.t;
  write : Id.Client.t -> Value.t -> Net.call;
  read : Id.Client.t -> Net.call;
  mutable remaining : [ `Write of Value.t | `Read ] list;
  mutable next_writer : int;
  mutable calls : Net.call list;
  mutable invoked : int list;  (* by the last step, newest first *)
  mutable sent_before : int;  (* messages sent when the last step began *)
  mutable returned_before : int;  (* calls returned then *)
}

let rec auto_invoke t =
  match t.remaining with
  | op :: rest when List.for_all Net.call_returned t.calls ->
      t.remaining <- rest;
      let c, call =
        match op with
        | `Write v ->
            let k = t.scenario.params.k in
            let w = List.nth t.writers (t.next_writer mod k) in
            t.next_writer <- t.next_writer + 1;
            (w, t.write w v)
        | `Read -> (t.reader, t.read t.reader)
      in
      t.calls <- call :: t.calls;
      t.invoked <- Id.Client.to_int c :: t.invoked;
      auto_invoke t
  | _ -> ()

let create scenario =
  let p = scenario.params in
  let net = Net.create ~n:p.n () in
  let writers = List.init p.k (fun _ -> Net.new_client net) in
  let write, read = scenario.protocol.make net p ~writers in
  let reader = Net.new_client net in
  let t =
    {
      scenario;
      net;
      writers;
      reader;
      write;
      read;
      remaining = scenario.ops;
      next_writer = 0;
      calls = [];
      invoked = [];
      sent_before = 0;
      returned_before = 0;
    }
  in
  auto_invoke t;
  t

let finished t = t.remaining = [] && List.for_all Net.call_returned t.calls

(* servers that may still be crashed, in choice order *)
let crash_candidates t =
  let correct =
    List.filter (fun s -> not (Net.server_crashed t.net s)) (Net.servers t.net)
  in
  if Net.num_servers t.net - List.length correct < t.scenario.crashes then
    correct
  else []

let choices t =
  (* enabled deliveries come in flight order, a subsequence of
     [Net.flight]'s, so one forward walk finds each destination *)
  let flight = ref (Net.flight t.net) in
  let rec dest mid =
    match !flight with
    | [] -> invalid_arg "Net_model.choices: delivery of a message not in flight"
    | (m, d, _) :: rest ->
        flight := rest;
        if m = mid then d else dest mid
  in
  let events =
    List.map
      (function
        | Net.Step c -> Model.client_step (Id.Client.to_int c)
        | Net.Deliver mid ->
            let comp =
              match dest mid with
              | Net.To_server s -> Model.Cobj (Id.Server.to_int s)
              | Net.To_client c -> Model.Cclient (Id.Client.to_int c)
            in
            { Model.thread = Job mid; comps = [ (comp, Write) ] })
      (Net.enabled t.net)
  in
  let crashes =
    List.map (fun s -> Model.crash (Id.Server.to_int s)) (crash_candidates t)
  in
  Array.of_list (events @ crashes)

let returned t =
  List.fold_left (fun n c -> if Net.call_returned c then n + 1 else n) 0 t.calls

let fire t th =
  t.sent_before <- Net.sent t.net;
  t.returned_before <- returned t;
  t.invoked <- [];
  (match th with
  | Model.Client c -> Net.fire t.net (Net.Step (Id.Client.of_int c))
  | Job mid -> Net.fire t.net (Net.Deliver mid)
  | Crash s -> Model.fire_crash (crash_candidates t) (Net.crash_server t.net) s);
  auto_invoke t

let last_step t =
  {
    Model.recorded = t.invoked <> [] || returned t <> t.returned_before;
    spawned =
      List.init (Net.sent t.net - t.sent_before) (fun i -> t.sent_before + i);
    invoked = t.invoked;
  }

let history t = Net.history t.net
let history_key t = Model.history_key_of (history t)
let invariants _ = []
