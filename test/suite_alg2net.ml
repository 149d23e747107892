(* Tests for Algorithm 2 over network-attached register cells, and the
   wire-level replay of the Figure 2 violation: a slow datagram is a
   covering write. *)

open Regemu_bounds
open Regemu_objects
open Regemu_history
open Regemu_netsim

let test name f = Alcotest.test_case name `Quick f

let drive net rng ~budget ~goal =
  let rec go budget =
    if goal () then true
    else if budget = 0 then false
    else
      match Net.enabled net with
      | [] -> goal ()
      | evs ->
          Net.fire net (Regemu_sim.Rng.pick rng evs);
          go (budget - 1)
  in
  go budget

let finish net rng call =
  if
    not
      (drive net rng ~budget:100_000 ~goal:(fun () -> Net.call_returned call))
  then Alcotest.fail "operation did not return";
  Option.get (Net.call_result call)

let setup ?naive ~k ~f ~n () =
  let p = Params.make_exn ~k ~f ~n in
  let net = Net.create ~n () in
  let writers = List.init k (fun _ -> Net.new_client net) in
  let t = Alg2_net.create net p ?naive ~writers () in
  (p, net, t, writers)

let basic_tests =
  [
    test "allocates exactly the upper-bound number of cells" (fun () ->
        List.iter
          (fun (k, f, n) ->
            let p, _, t, _ = setup ~k ~f ~n () in
            Alcotest.(check int)
              (Fmt.str "%a" Params.pp p)
              (Formulas.register_upper_bound p)
              (Alg2_net.cells t))
          [ (1, 1, 3); (3, 1, 3); (5, 2, 6); (4, 2, 12) ]);
    test "naive mode allocates 2f+1 cells" (fun () ->
        let _, _, t, _ = setup ~naive:true ~k:2 ~f:2 ~n:5 () in
        Alcotest.(check int) "cells" 5 (Alg2_net.cells t));
    test "sequential write then read over the wire" (fun () ->
        let _, net, t, writers = setup ~k:2 ~f:1 ~n:4 () in
        let reader = Net.new_client net in
        let rng = Regemu_sim.Rng.create 9 in
        ignore (finish net rng (Alg2_net.write t (List.nth writers 0) (Value.Str "a")));
        ignore (finish net rng (Alg2_net.write t (List.nth writers 1) (Value.Str "b")));
        let v = finish net rng (Alg2_net.read t reader) in
        Alcotest.(check bool) "b" true (Value.equal v (Value.Str "b")));
    test "tolerates f crashed servers" (fun () ->
        let _, net, t, writers = setup ~k:1 ~f:2 ~n:6 () in
        let reader = Net.new_client net in
        let rng = Regemu_sim.Rng.create 4 in
        Net.crash_server net (Id.Server.of_int 1);
        Net.crash_server net (Id.Server.of_int 4);
        ignore (finish net rng (Alg2_net.write t (List.hd writers) (Value.Str "x")));
        let v = finish net rng (Alg2_net.read t reader) in
        Alcotest.(check bool) "x" true (Value.equal v (Value.Str "x")));
    test "unregistered writer rejected" (fun () ->
        let _, net, t, _ = setup ~k:1 ~f:1 ~n:3 () in
        let stranger = Net.new_client net in
        Alcotest.(check bool)
          "raises" true
          (try
             ignore (Alg2_net.write t stranger (Value.Int 1));
             false
           with Invalid_argument _ -> true));
  ]

(* --- randomized safety ----------------------------------------------------- *)

let random_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"wire-level algorithm2 is WS-Safe over random deliveries"
         ~count:50
         (QCheck.make QCheck.Gen.(int_range 0 1_000_000) ~print:string_of_int)
         (fun seed ->
           let _, net, t, writers = setup ~k:2 ~f:1 ~n:4 () in
           let reader = Net.new_client net in
           let rng = Regemu_sim.Rng.create seed in
           List.iteri
             (fun i w ->
               ignore (finish net rng (Alg2_net.write t w (Value.Int i)));
               ignore (finish net rng (Alg2_net.read t reader)))
             (writers @ writers);
           Ws_check.is_ws_safe (Net.history net)));
  ]

(* --- the Figure 2 violation on the wire ------------------------------------- *)

(* scripted delivery helpers *)
let deliver_where net ~what pred =
  match
    List.find_opt (fun (_, dest, payload) -> pred dest payload) (Net.flight net)
  with
  | Some (mid, _, _) -> Net.fire net (Net.Deliver mid)
  | None -> Alcotest.failf "%s: no matching in-flight message" what

let rec deliver_all_where net pred =
  match
    List.find_opt (fun (_, dest, payload) -> pred dest payload) (Net.flight net)
  with
  | Some (mid, _, _) ->
      Net.fire net (Net.Deliver mid);
      deliver_all_where net pred
  | None -> ()

let is_read_traffic _dest = function
  | Net.Reg_read _ | Net.Reg_read_reply _ -> true
  | _ -> false

let is_write_ack _dest = function Net.Reg_write_reply _ -> true | _ -> false

let to_server s dest =
  match dest with Net.To_server s' -> Id.Server.equal s' s | _ -> false

let step_client net c =
  match
    List.find_opt
      (function Net.Step c' -> Id.Client.equal c c' | _ -> false)
      (Net.enabled net)
  with
  | Some ev -> Net.fire net ev
  | None -> Alcotest.fail "client not steppable"

let rec settle_reads net =
  (* deliver all register reads and their replies *)
  if
    List.exists
      (fun (_, d, p) -> is_read_traffic d p)
      (Net.flight net)
  then begin
    deliver_all_where net (fun d p -> is_read_traffic d p);
    settle_reads net
  end

let violation_tests =
  [
    test "a slow datagram reproduces the Figure 2 violation (naive mode)"
      (fun () ->
        let s i = Id.Server.of_int i in
        let write_of payload_str d p =
          match p with
          | Net.Reg_write { proposed; _ } ->
              Value.equal (Value.payload proposed) (Value.Str payload_str)
              && (match d with Net.To_server _ -> true | _ -> false)
          | _ -> false
        in

        let _, net, t, writers = setup ~naive:true ~k:2 ~f:1 ~n:3 () in
        let c1 = List.nth writers 0 and c2 = List.nth writers 1 in
        let reader = Net.new_client net in

        (* W1: collect, then write requests to all three cells; deliver
           the requests and acks for servers 0 and 1 only — the request
           to server 2 stays in the network *)
        let w1 = Alg2_net.write t c1 (Value.Str "v1") in
        settle_reads net;
        step_client net c1;
        List.iter
          (fun srv ->
            deliver_where net ~what:"W1 write req"
              (fun d p -> to_server (s srv) d && write_of "v1" d p))
          [ 0; 1 ];
        deliver_all_where net (fun d p -> is_write_ack d p);
        step_client net c1;
        Alcotest.(check bool) "W1 returned" true (Net.call_returned w1);

        (* W2: collect (server 2 still holds the old value), then write;
           deliver requests+acks on servers 2 and 0; hold server 1 *)
        let w2 = Alg2_net.write t c2 (Value.Str "v2") in
        settle_reads net;
        step_client net c2;
        List.iter
          (fun srv ->
            deliver_where net ~what:"W2 write req"
              (fun d p -> to_server (s srv) d && write_of "v2" d p))
          [ 2; 0 ];
        deliver_all_where net (fun d p -> is_write_ack d p);
        step_client net c2;
        Alcotest.(check bool) "W2 returned" true (Net.call_returned w2);

        (* the slow datagram lands: W1's request to server 2 finally
           arrives and overwrites v2 there *)
        deliver_where net ~what:"stale W1 request"
          (fun d p -> to_server (s 2) d && write_of "v1" d p);

        (* a reader served by servers 1 and 2 misses v2 entirely *)
        let rd = Alg2_net.read t reader in
        List.iter
          (fun srv ->
            deliver_where net ~what:"reader request"
              (fun d p ->
                to_server (s srv) d
                && match p with Net.Reg_read _ -> true | _ -> false))
          [ 1; 2 ];
        deliver_all_where net (fun d p ->
            match p with Net.Reg_read_reply _ -> is_read_traffic d p | _ -> false);
        step_client net reader;
        Alcotest.(check bool) "read returned" true (Net.call_returned rd);
        Alcotest.(check bool)
          "stale value" true
          (Net.call_result rd = Some (Value.Str "v1"));
        match Ws_check.check_ws_safe (Net.history net) with
        | Ws_check.Violated _ -> ()
        | v -> Alcotest.failf "expected violation, got %a" Ws_check.verdict_pp v);
    test "naive mode counts only the current write's acknowledgements"
      (fun () ->
        let s i = Id.Server.of_int i in
        let write_of str d p =
          match (d, p) with
          | Net.To_server _, Net.Reg_write { proposed; _ } ->
              Value.equal (Value.payload proposed) (Value.Str str)
          | _ -> false
        in
        let _, net, t, writers = setup ~naive:true ~k:1 ~f:1 ~n:3 () in
        let c = List.hd writers in
        (* W1 returns on servers 0 and 1; its request to server 2 stays
           in the network *)
        let w1 = Alg2_net.write t c (Value.Str "v1") in
        settle_reads net;
        step_client net c;
        List.iter
          (fun srv ->
            deliver_where net ~what:"W1 write req"
              (fun d p -> to_server (s srv) d && write_of "v1" d p))
          [ 0; 1 ];
        deliver_all_where net is_write_ack;
        step_client net c;
        Alcotest.(check bool) "W1 returned" true (Net.call_returned w1);
        (* W2 sends to every cell; then W1's old request to server 2 and
           W2's request to server 0 are acknowledged *)
        let w2 = Alg2_net.write t c (Value.Str "v2") in
        settle_reads net;
        step_client net c;
        deliver_where net ~what:"stale W1 request"
          (fun d p -> to_server (s 2) d && write_of "v1" d p);
        deliver_where net ~what:"W2 write req to s0"
          (fun d p -> to_server (s 0) d && write_of "v2" d p);
        deliver_all_where net is_write_ack;
        (* one cell holds v2: the stale reply must not make it a quorum *)
        Alcotest.(check bool)
          "W2 still waiting" false
          (List.mem (Net.Step c) (Net.enabled net));
        deliver_where net ~what:"W2 write req to s1"
          (fun d p -> to_server (s 1) d && write_of "v2" d p);
        deliver_all_where net is_write_ack;
        step_client net c;
        Alcotest.(check bool) "W2 returned" true (Net.call_returned w2));
    test "the covering discipline survives the same schedule idea" (fun () ->
        (* full algorithm2 layout: the same writer-interleaving with a
           random finish stays WS-Safe because nobody reuses a cell with
           an outstanding request *)
        let _, net, t, writers = setup ~k:2 ~f:1 ~n:3 () in
        let reader = Net.new_client net in
        let rng = Regemu_sim.Rng.create 2 in
        ignore (finish net rng (Alg2_net.write t (List.nth writers 0) (Value.Str "v1")));
        ignore (finish net rng (Alg2_net.write t (List.nth writers 1) (Value.Str "v2")));
        let v = finish net rng (Alg2_net.read t reader) in
        Alcotest.(check bool) "v2" true (Value.equal v (Value.Str "v2"));
        Alcotest.(check bool)
          "ws-safe" true
          (Ws_check.is_ws_safe (Net.history net)));
  ]

(* suites assembled at the end of the file *)

let suites =
  [
    ("alg2net:basics", basic_tests);
    ("alg2net:random", random_tests);
    ("alg2net:violation", violation_tests);
  ]
