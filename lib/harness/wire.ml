open Regemu_bounds
open Regemu_objects
open Regemu_netsim
open Regemu_adversary

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

(* Net as a model of the Lemma 1 construction: the adversary is a
   router.  A covering write is a [Reg_write] request in flight: it
   triggers when it enters the network, with its message id as id, and
   responds when it is delivered, overwriting its cell whenever that
   is.  Every delivery is reported as a [Respond]; Epoch_state ignores
   the ids that name no pending write.  Cell [reg] of server [s] is
   register [reg * n + s]. *)
module On_net = struct
  type t = {
    net : Net.t;
    mutable seen : int;  (* messages sent before the last look *)
    mutable delivered : Epoch_state.action list;
    used : (int * int, unit) Hashtbl.t;  (* cells addressed so far *)
  }

  type event = Net.event

  let enabled t = Net.enabled t.net

  let fire t ev =
    (match ev with
    | Net.Deliver mid -> t.delivered <- [ Epoch_state.Respond mid ]
    | Net.Step _ -> ());
    Net.fire t.net ev

  let completes = function Net.Step _ -> None | Net.Deliver mid -> Some mid

  let actions t =
    let fresh =
      List.filter (fun (mid, _, _) -> mid >= t.seen) (Net.flight t.net)
    in
    let responded = t.delivered in
    t.seen <- Net.sent t.net;
    t.delivered <- [];
    responded
    @ List.filter_map
        (fun (mid, dest, payload) ->
          match (dest, payload) with
          | Net.To_server s, (Net.Reg_read { reg; _ } | Net.Reg_write { reg; _ })
            -> (
              Hashtbl.replace t.used (Id.Server.to_int s, reg) ();
              match (payload, Net.src_of t.net mid) with
              | Net.Reg_write _, Some client ->
                  let obj =
                    Id.Obj.of_int
                      ((reg * Net.num_servers t.net) + Id.Server.to_int s)
                  in
                  Some
                    (Epoch_state.Trigger { id = mid; client; obj; server = s })
              | _ -> None)
          | _ -> None)
        fresh

  let objects_used t = Hashtbl.length t.used
end

module Net_run = Lowerbound.Make (On_net)

let staircase (p : Params.t) ~seed =
  let net = Net.create ~n:p.n () in
  let writers = List.init p.k (fun _ -> Net.new_client net) in
  let alg2 = Alg2_net.create net p ~writers () in
  let write c v =
    let call = Alg2_net.write alg2 c v in
    fun () -> Net.call_returned call
  in
  Net_run.execute
    { On_net.net; seen = Net.sent net; delivered = []; used = Hashtbl.create 64 }
    p ~writers ~write ~f_set:(Lowerbound.default_f_set p) ~seed ()

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
