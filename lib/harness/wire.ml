open Regemu_bounds
open Regemu_objects
open Regemu_netsim

let finish net rng call ~what =
  let rec go budget =
    if Net.call_returned call then ()
    else if budget = 0 then failwith (Fmt.str "Wire.%s stalled" what)
    else begin
      (match Net.enabled net with
      | [] -> ()
      | evs -> Net.fire net (Regemu_sim.Rng.pick rng evs));
      go (budget - 1)
    end
  in
  go 200_000

let abd_messages ~fs ~ops ~seed =
  let measure f =
    let net = Net.create ~n:((2 * f) + 1) () in
    let abd = Abd_net.create net ~f () in
    let w = Net.new_client net in
    let r = Net.new_client net in
    let rng = Regemu_sim.Rng.create seed in
    for i = 1 to ops / 2 do
      finish net rng (Abd_net.write abd w (Value.Int i)) ~what:"abd write";
      finish net rng (Abd_net.read abd r) ~what:"abd read"
    done;
    (ops, Net.delivered net)
  in
  let rows =
    List.map
      (fun f ->
        let ops, delivered = measure f in
        [
          Report.cell_int f;
          Report.cell_int ((2 * f) + 1);
          Report.cell_int ops;
          Report.cell_int delivered;
          Report.cellf "%.1f" (float_of_int delivered /. float_of_int ops);
        ])
      fs
  in
  {
    Report.title =
      "ABD over message passing: messages delivered per high-level \
       operation (two quorum rounds of 2f+1 requests each)";
    headers = [ "f"; "servers"; "ops"; "messages"; "messages/op" ];
    rows;
  }

let alg2_messages ~configs ~seed =
  let measure (k, f, n) =
    let p = Params.make_exn ~k ~f ~n in
    let net = Net.create ~n () in
    let writers = List.init k (fun _ -> Net.new_client net) in
    let t = Alg2_net.create net p ~writers () in
    let reader = Net.new_client net in
    let rng = Regemu_sim.Rng.create seed in
    let ops = ref 0 in
    List.iteri
      (fun i w ->
        finish net rng (Alg2_net.write t w (Value.Int i)) ~what:"alg2 write";
        finish net rng (Alg2_net.read t reader) ~what:"alg2 read";
        ops := !ops + 2)
      writers;
    (Alg2_net.cells t, !ops, Net.delivered net)
  in
  let rows =
    List.map
      (fun ((k, f, n) as cfg) ->
        let cells, ops, delivered = measure cfg in
        [
          Report.cell_int k; Report.cell_int f; Report.cell_int n;
          Report.cell_int cells; Report.cell_int ops;
          Report.cellf "%.1f" (float_of_int delivered /. float_of_int ops);
        ])
      configs
  in
  {
    Report.title =
      "Algorithm 2 over the wire: with register cells both space AND \
       messages grow (collects read every cell of the layout)";
    headers = [ "k"; "f"; "n"; "cells"; "ops"; "messages/op" ];
    rows;
  }

let staircase ~k ~f ~n ~seed =
  match Net_lowerbound.execute (Params.make_exn ~k ~f ~n) ~seed () with
  | Error e -> Error e
  | Ok run ->
      Ok
        {
          Report.title =
            Fmt.str
              "The lower bound on the wire: cells holding undelivered write \
               requests after each write (k=%d, f=%d, n=%d; bound i*f, none \
               on F)"
              k f n;
          headers = [ "write #"; "covered cells"; "i*f"; "on F"; "|Q_i|" ];
          rows =
            List.map
              (fun (s : Net_lowerbound.epoch_stats) ->
                [
                  Report.cell_int s.epoch;
                  Report.cell_int s.covered_total;
                  Report.cell_int (s.epoch * f);
                  Report.cell_int s.covered_on_f;
                  Report.cell_int s.q_size;
                ])
              run.epochs;
        }

let abd_survives_crash ~seed =
  let net = Net.create ~n:3 () in
  let abd = Abd_net.create net ~f:1 () in
  let w = Net.new_client net in
  let r = Net.new_client net in
  let rng = Regemu_sim.Rng.create seed in
  Net.crash_server net (Id.Server.of_int 1);
  finish net rng (Abd_net.write abd w (Value.Str "x")) ~what:"abd write";
  finish net rng (Abd_net.read abd r) ~what:"abd read";
  Regemu_history.Ws_check.is_ws_regular (Net.history net)
