open Regemu_bounds
open Regemu_objects
open Regemu_history
open Regemu_sim

type protocol = {
  name : string;
  make :
    Net.t ->
    Params.t ->
    writers:Id.Client.t list ->
    (Id.Client.t -> Value.t -> Net.call) * (Id.Client.t -> Net.call);
}

let abd ~write_back =
  {
    name = (if write_back then "abd-net-atomic" else "abd-net");
    make =
      (fun net (p : Params.t) ~writers:_ ->
        let t = Abd_net.create net ~f:p.f ~write_back_reads:write_back () in
        (Abd_net.write t, Abd_net.read t));
  }

let alg2 =
  {
    name = "alg2-net";
    make =
      (fun net p ~writers ->
        let t = Alg2_net.create net p ~writers () in
        (Alg2_net.write t, Alg2_net.read t));
  }

let cds =
  {
    name = "cds-net";
    make =
      (fun net (p : Params.t) ~writers ->
        let t = Cds_net.create net ~f:p.f ~writers () in
        (Cds_net.write t, Cds_net.read t));
  }

type result = { net : Net.t; history : History.t; messages_delivered : int }
type error = { stage : string }

let error_pp ppf e = Fmt.pf ppf "net scenario stalled at %s" e.stage

let value_for ~slot ~round = Value.Str (Fmt.str "w%d.r%d" slot round)

type driver = {
  net : Net.t;
  rng : Rng.t;
  crashes : int;
  duplication : bool;
  mutable crashed : int;
}

let inject d =
  (* crash a random correct server occasionally, within the budget *)
  if d.crashed < d.crashes && Rng.int d.rng ~bound:40 = 0 then begin
    let candidates =
      List.filter
        (fun s -> not (Net.server_crashed d.net s))
        (Net.servers d.net)
    in
    if candidates <> [] then begin
      Net.crash_server d.net (Rng.pick d.rng candidates);
      d.crashed <- d.crashed + 1
    end
  end;
  if d.duplication && Net.in_flight d.net > 0 && Rng.int d.rng ~bound:20 = 0
  then
    match Net.enabled d.net with
    | Net.Deliver m :: _ -> Net.duplicate d.net m
    | _ -> ()

let step d =
  inject d;
  match Net.enabled d.net with
  | [] -> false
  | evs ->
      Net.fire d.net (Rng.pick d.rng evs);
      true

let drive d ~stage ~goal =
  let rec go budget =
    if goal () then Ok ()
    else if budget = 0 then Error { stage }
    else if step d then go (budget - 1)
    else if goal () then Ok ()
    else Error { stage }
  in
  go 100_000

let ( let* ) = Result.bind

let finish d ~stage call =
  drive d ~stage ~goal:(fun () -> Net.call_returned call)

let mk_result net =
  {
    net;
    history = Net.history net;
    messages_delivered = Net.delivered net;
  }

let setup ~(p : Params.t) ~protocol ~seed ~crashes ~duplication =
  let net = Net.create ~n:p.n () in
  let writers = List.init p.k (fun _ -> Net.new_client net) in
  let write, read = protocol.make net p ~writers in
  let rng = Rng.create seed in
  let d = { net; rng; crashes; duplication; crashed = 0 } in
  (net, write, read, writers, d)

let write_sequential ?(protocol = abd ~write_back:false) ~p ~rounds ~crashes
    ~duplication ~seed () =
  if crashes > p.Params.f then
    invalid_arg "Net_scenario.write_sequential: crashes > f";
  let net, write, read, writers, d =
    setup ~p ~protocol ~seed ~crashes ~duplication
  in
  let reader = Net.new_client net in
  let rec rounds_loop round =
    if round > rounds then Ok (mk_result net)
    else
      let rec writers_loop slot = function
        | [] -> rounds_loop (round + 1)
        | w :: rest ->
            let* () =
              finish d
                ~stage:(Fmt.str "write slot=%d round=%d" slot round)
                (write w (value_for ~slot ~round))
            in
            let* () =
              finish d
                ~stage:(Fmt.str "read after slot=%d round=%d" slot round)
                (read reader)
            in
            writers_loop (slot + 1) rest
      in
      writers_loop 0 writers
  in
  rounds_loop 1

let concurrent_reads ?(protocol = abd ~write_back:false) ~p ~rounds ~readers
    ~crashes ~duplication ~seed () =
  if crashes > p.Params.f then
    invalid_arg "Net_scenario.concurrent_reads: crashes > f";
  let net, write, read, writers, d =
    setup ~p ~protocol ~seed ~crashes ~duplication
  in
  let reader_clients = List.init readers (fun _ -> Net.new_client net) in
  let reads = ref [] in
  let maybe_read () =
    if Rng.int d.rng ~bound:10 = 0 then
      match
        List.filter
          (fun c ->
            not
              (List.exists
                 (fun (c', call) ->
                   Id.Client.equal c c' && not (Net.call_returned call))
                 !reads))
          reader_clients
      with
      | [] -> ()
      | idle ->
          let c = Rng.pick d.rng idle in
          reads := (c, read c) :: !reads
  in
  let drive_write ~stage call =
    let rec go budget =
      if Net.call_returned call then Ok ()
      else if budget = 0 then Error { stage }
      else begin
        maybe_read ();
        if step d then go (budget - 1) else Error { stage }
      end
    in
    go 100_000
  in
  let rec rounds_loop round =
    if round > rounds then Ok ()
    else
      let rec writers_loop slot = function
        | [] -> rounds_loop (round + 1)
        | w :: rest ->
            let* () =
              drive_write
                ~stage:(Fmt.str "write slot=%d round=%d" slot round)
                (write w (value_for ~slot ~round))
            in
            writers_loop (slot + 1) rest
      in
      writers_loop 0 writers
  in
  let* () = rounds_loop 1 in
  let* () =
    drive d ~stage:"drain reads" ~goal:(fun () ->
        List.for_all (fun (_, call) -> Net.call_returned call) !reads)
  in
  Ok (mk_result net)
