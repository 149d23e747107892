(* Tests for the experiment harness: the reproduction tables must have
   the paper's shape, not just render. *)

open Regemu_bounds
open Regemu_harness

let test name f = Alcotest.test_case name `Quick f

(* --- Report rendering -------------------------------------------------- *)

let report_tests =
  [
    test "columns align and all rows render" (fun () ->
        let r =
          {
            Report.title = "t";
            headers = [ "a"; "long-header" ];
            rows = [ [ "1"; "2" ]; [ "wide-cell"; "x" ] ];
          }
        in
        let s = Fmt.str "%a" Report.pp r in
        Alcotest.(check bool) "title" true (Astring_contains.contains s "== t ==");
        Alcotest.(check bool) "row" true (Astring_contains.contains s "wide-cell"));
    test "cell helpers" (fun () ->
        Alcotest.(check string) "int" "42" (Report.cell_int 42);
        Alcotest.(check string) "bool" "yes" (Report.cell_bool true);
        Alcotest.(check string) "fmt" "1.50" (Report.cellf "%.2f" 1.5));
    test "markdown rendering" (fun () ->
        let r =
          {
            Report.title = "T";
            headers = [ "a"; "b" ];
            rows = [ [ "1"; "2" ] ];
          }
        in
        Alcotest.(check string)
          "md" "## T\n\n| a | b |\n| --- | --- |\n| 1 | 2 |\n"
          (Report.to_markdown r));
  ]

(* --- Table 1 ------------------------------------------------------------ *)

let table1_rows =
  lazy
    (Table1.compute
       ~grid:
         [
           Params.make_exn ~k:1 ~f:1 ~n:3;
           Params.make_exn ~k:3 ~f:1 ~n:3;
           Params.make_exn ~k:3 ~f:1 ~n:8;
         ]
       ~seed:5 ())

let table1_tests =
  [
    test "three rows per parameter triple" (fun () ->
        Alcotest.(check int) "rows" 9 (List.length (Lazy.force table1_rows)));
    test "every run was safe" (fun () ->
        List.iter
          (fun (r : Table1.row) ->
            Alcotest.(check bool) r.base true r.safety_ok)
          (Lazy.force table1_rows));
    test "usage within bounds everywhere" (fun () ->
        List.iter
          (fun (r : Table1.row) ->
            if r.used_fair > r.bound_upper then
              Alcotest.failf "%s at %a: %d > %d" r.base Params.pp r.params
                r.used_fair r.bound_upper;
            match r.used_adversarial with
            | Some u when u < r.bound_lower ->
                Alcotest.failf "%s at %a: adversarial %d < lower %d" r.base
                  Params.pp r.params u r.bound_lower
            | _ -> ())
          (Lazy.force table1_rows));
    test "max-register/CAS rows independent of k" (fun () ->
        let rows = Lazy.force table1_rows in
        let usage base k =
          List.find_map
            (fun (r : Table1.row) ->
              if r.base = base && r.params.Params.k = k && r.params.Params.n = 3
              then Some r.used_fair
              else None)
            rows
        in
        Alcotest.(check (option int))
          "maxreg" (usage "max-register" 1) (usage "max-register" 3);
        Alcotest.(check (option int)) "cas" (usage "CAS" 1) (usage "CAS" 3));
    test "register row grows with k and shrinks with n" (fun () ->
        let rows = Lazy.force table1_rows in
        let reg k n =
          List.find_map
            (fun (r : Table1.row) ->
              if
                r.base = "register" && r.params.Params.k = k
                && r.params.Params.n = n
              then Some r.used_fair
              else None)
            rows
        in
        let get = function Some x -> x | None -> Alcotest.fail "missing row" in
        Alcotest.(check bool) "grows in k" true (get (reg 3 3) > get (reg 1 3));
        Alcotest.(check bool)
          "shrinks in n" true
          (get (reg 3 8) < get (reg 3 3)));
    test "report renders one line per row plus 3" (fun () ->
        let rows = Lazy.force table1_rows in
        let rendered = Fmt.str "%a" Report.pp (Table1.report rows) in
        let lines =
          List.filter (fun l -> l <> "") (String.split_on_char '\n' rendered)
        in
        Alcotest.(check int) "lines" (List.length rows + 3) (List.length lines));
  ]

(* --- Figures ------------------------------------------------------------ *)

let figures_tests =
  [
    test "figure 1 renders the paper's parameters" (fun () ->
        let s = Figures.figure1 () in
        Alcotest.(check bool) "mentions all servers" true
          (Astring_contains.contains s "s5:");
        Alcotest.(check bool) "25 registers" true
          (Astring_contains.contains s "25 registers"));
    test "figure 2 ends in a violation" (fun () ->
        match Regemu_adversary.Violation.against_naive ~f:1 with
        | Error e -> Alcotest.failf "failed: %s" e
        | Ok o ->
            Alcotest.(check bool) "violated" true
              (Astring_contains.contains (Figures.figure2 ~f:1 o) "VIOLATED"));
  ]

(* --- Theorem reports ------------------------------------------------------ *)

let theorem_tests =
  [
    test "lemma1 report has k rows, all lemma2-clean" (fun () ->
        match
          Regemu_adversary.Lowerbound.execute Regemu_core.Algorithm2.factory
            (Params.make_exn ~k:3 ~f:1 ~n:4) ~seed:1 ()
        with
        | Error e -> Alcotest.failf "failed: %s" e
        | Ok run ->
            let r = Theorems.lemma1 ~algo:run.algo run.params run.epochs in
            Alcotest.(check int) "rows" 3 (List.length r.rows);
            List.iter
              (fun row ->
                Alcotest.(check string) "lemma2 ok" "ok"
                  (List.nth row (List.length row - 1)))
              r.rows);
    test "theorem1 sweep: gap column is never negative and closes" (fun () ->
        let r = Theorems.theorem1_sweep ~k:5 ~f:2 () in
        let gaps =
          List.map (fun row -> int_of_string (List.nth row 4)) r.rows
        in
        List.iter
          (fun g -> if g < 0 then Alcotest.fail "negative gap")
          gaps;
        (* first and last rows have zero gap (coincidence points) *)
        Alcotest.(check int) "first" 0 (List.hd gaps);
        Alcotest.(check int) "last" 0 (List.nth gaps (List.length gaps - 1)));
    test "theorem2 rows are all tight" (fun () ->
        let r, tight = Theorems.theorem2 ~ks:[ 1; 3; 9 ] in
        Alcotest.(check bool) "tight everywhere" true tight;
        List.iter
          (fun row -> Alcotest.(check string) "tight" "yes" (List.nth row 3))
          r.rows);
    test "theorem6 all servers meet the bound" (fun () ->
        let r, meets = Theorems.theorem6 ~k:3 ~f:1 in
        Alcotest.(check bool) "every server meets it" true meets;
        Alcotest.(check int) "2f+1 rows" 3 (List.length r.rows);
        List.iter
          (fun row -> Alcotest.(check string) "meets" "yes" (List.nth row 3))
          r.rows);
    test "theorem7 feasibility is consistent with the bound" (fun () ->
        let r, consistent =
          Theorems.theorem7 ~k:4 ~f:1 ~capacities:[ 1; 2; 4 ] in
        Alcotest.(check bool) "consistent everywhere" true consistent;
        List.iter
          (fun row ->
            Alcotest.(check string) "consistent" "yes" (List.nth row 3))
          r.rows);
    test "theorem8: usage column non-decreasing, contention constant 1"
      (fun () ->
        match
          Theorems.theorem8 ~params:(Params.make_exn ~k:4 ~f:1 ~n:10) ~seed:3 ()
        with
        | Error e -> Alcotest.failf "failed: %s" e
        | Ok (r, holds) ->
            Alcotest.(check bool) "holds" true holds;
            let covered =
              List.map (fun row -> int_of_string (List.nth row 2)) r.rows
            in
            let rec non_decreasing = function
              | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
              | _ -> true
            in
            Alcotest.(check bool) "monotone" true (non_decreasing covered);
            List.iter
              (fun row -> Alcotest.(check string) "pc" "1" (List.nth row 1))
              r.rows);
    test "algorithm1 time: CAS per op at least 2 when values increase"
      (fun () ->
        let r =
          Theorems.algorithm1_time ~writers_list:[ 1 ] ~ops_per_writer:5
            ~seed:1
        in
        match r.rows with
        | [ row ] ->
            let per_op = float_of_string (List.nth row 3) in
            Alcotest.(check bool) "at least 2" true (per_op >= 2.0)
        | _ -> Alcotest.fail "expected one row");
  ]

(* --- Timeline ------------------------------------------------------------ *)

let timeline_tests =
  [
    test "coverage curve follows pending register writes" (fun () ->
        let open Regemu_objects in
        let open Regemu_sim in
        let sim = Sim.create ~n:2 () in
        let a = Sim.alloc sim ~server:(Id.Server.of_int 0) Base_object.Register in
        let b = Sim.alloc sim ~server:(Id.Server.of_int 1) Base_object.Register in
        let c = Sim.new_client sim in
        let l1 =
          Sim.trigger sim ~client:c a (Base_object.Write (Value.Int 1))
            ~on_response:ignore
        in
        ignore
          (Sim.trigger sim ~client:c b (Base_object.Write (Value.Int 2))
             ~on_response:ignore);
        Sim.fire sim (Sim.Respond l1);
        Alcotest.(check (list int))
          "curve" [ 1; 2; 1 ]
          (Timeline.coverage_curve (Sim.trace sim)));
    test "reads do not count as coverage" (fun () ->
        let open Regemu_objects in
        let open Regemu_sim in
        let sim = Sim.create ~n:1 () in
        let a = Sim.alloc sim ~server:(Id.Server.of_int 0) Base_object.Register in
        let c = Sim.new_client sim in
        ignore (Sim.trigger sim ~client:c a Base_object.Read ~on_response:ignore);
        Alcotest.(check (list int))
          "curve" [ 0 ]
          (Timeline.coverage_curve (Sim.trace sim)));
    test "adversarial timeline renders a non-decreasing staircase" (fun () ->
        let p = Params.make_exn ~k:3 ~f:1 ~n:4 in
        match
          Regemu_adversary.Lowerbound.execute Regemu_core.Algorithm2.factory p
            ~seed:4 ()
        with
        | Error e -> Alcotest.failf "run failed: %s" e
        | Ok run ->
            let curve = Timeline.coverage_curve run.trace in
            (* the final value is exactly kf *)
            let final = List.nth curve (List.length curve - 1) in
            Alcotest.(check int) "final kf" (p.Params.k * p.Params.f) final;
            let rendered = Timeline.render run.trace in
            Alcotest.(check bool) "has chart" true
              (Astring_contains.contains rendered "|Cov(t)|"));
    test "empty trace renders gracefully" (fun () ->
        let tr = Regemu_sim.Trace.create () in
        Alcotest.(check string) "empty" "(empty trace)" (Timeline.render tr));
  ]

(* --- Sweep ----------------------------------------------------------------- *)

let sweep_tests =
  [
    test "sweep produces three algorithms per grid point" (fun () ->
        let grid = [ Params.make_exn ~k:2 ~f:1 ~n:4 ] in
        let points = Sweep.run ~grid ~seeds:2 () in
        Alcotest.(check int) "points" 3 (List.length points);
        List.iter
          (fun (pt : Sweep.point) ->
            Alcotest.(check bool) "safe" true pt.all_safe;
            Alcotest.(check int) "seeds" 2 pt.seeds;
            Alcotest.(check bool)
              "used within bounds" true
              (pt.objects_used_mean <= float_of_int pt.upper_bound +. 0.01))
          points);
    test "adversarial coverage recorded only for the register algorithm"
      (fun () ->
        let grid = [ Params.make_exn ~k:2 ~f:1 ~n:4 ] in
        let points = Sweep.run ~grid ~seeds:1 () in
        List.iter
          (fun (pt : Sweep.point) ->
            if pt.algo = "algorithm2" then
              Alcotest.(check bool)
                "cov >= kf" true
                (pt.adversarial_cov_mean >= 2.0)
            else
              Alcotest.(check bool)
                "nan" true
                (Float.is_nan pt.adversarial_cov_mean))
          points);
    test "CSV has a header and one line per point" (fun () ->
        let grid = [ Params.make_exn ~k:1 ~f:1 ~n:3 ] in
        let points = Sweep.run ~grid ~seeds:1 () in
        let csv = Sweep.to_csv points in
        let lines =
          List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)
        in
        Alcotest.(check int) "lines" (List.length points + 1) (List.length lines);
        Alcotest.(check bool) "header" true
          (Astring_contains.contains (List.hd lines) "objects_used_mean"));
  ]

(* --- Verify ----------------------------------------------------------------- *)

let extra_experiment_tests =
  [
    test "reader_space grows per reader for registers, constant for maxregs"
      (fun () ->
        let r = Theorems.reader_space ~k:2 ~f:1 ~n:4 ~readers_list:[ 0; 2; 5 ] in
        let col i row = int_of_string (List.nth row i) in
        let regs = List.map (col 1) r.rows in
        let maxes = List.map (col 2) r.rows in
        (match regs with
        | [ a; b; c ] ->
            Alcotest.(check bool) "strictly increasing" true (a < b && b < c)
        | _ -> Alcotest.fail "expected three rows");
        Alcotest.(check (list int)) "constant 3" [ 3; 3; 3 ] maxes);
    test "classification rows cover the three base object types" (fun () ->
        let r = Theorems.classification ~k:4 ~f:1 ~n:5 in
        Alcotest.(check (list string))
          "types"
          [ "read/write register"; "max-register"; "CAS" ]
          (List.map List.hd r.rows);
        (* max-register and CAS cost the same despite the consensus gap *)
        let cost row = List.nth row 2 in
        Alcotest.(check string)
          "same cost"
          (cost (List.nth r.rows 1))
          (cost (List.nth r.rows 2)));
    test "maxreg_comparison: tree pays log-steps, CAS pays per-op" (fun () ->
        let r = Theorems.maxreg_comparison ~k:3 ~capacity:32 ~ops:4 ~seed:1 in
        Alcotest.(check int) "three rows" 3 (List.length r.rows);
        let objects row = int_of_string (List.nth row 1) in
        Alcotest.(check int) "flat k" 3 (objects (List.nth r.rows 0));
        Alcotest.(check int) "cas 1" 1 (objects (List.nth r.rows 1));
        Alcotest.(check int) "tree cap-1" 31 (objects (List.nth r.rows 2)));
  ]

(* the registry's runner at [seed] over every claim, as `regemu verify`
   runs it: its exit status and what it printed *)
let verify seed claims =
  let b = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer b in
  let status =
    Claim.run ~verdicts_only:true ppf
      (List.map (fun c -> (c, Claim.with_seed seed c)) claims)
  in
  Format.pp_print_flush ppf ();
  (status, Buffer.contents b)

let verify_tests =
  [
    test "all self-checks pass" (fun () ->
        let status, out = verify 42 Claim.all in
        if status <> 0 then Alcotest.failf "failures:@.%s" out);
    test "summary counts are consistent" (fun () ->
        let status, out = verify 7 Claim.all in
        let lines = String.split_on_char '\n' out in
        let count tag =
          List.length (List.filter (String.starts_with ~prefix:tag) lines)
        in
        let passed = count "[PASS]" and failed = count "[FAIL]" in
        let unchecked = count "[----]" in
        Alcotest.(check int)
          "total" (List.length Claim.all)
          (passed + failed + unchecked);
        Alcotest.(check bool)
          "summary line" true
          (List.mem
             (Fmt.str "%d passed, %d failed, %d not checked" passed failed
                unchecked)
             lines);
        Alcotest.(check int) "status" (if failed = 0 then 0 else 1) status);
  ]

(* --- The claim registry ------------------------------------------------- *)

let row ~k ~f ~n base used : Table1.row =
  {
    params = Params.make_exn ~k ~f ~n;
    base;
    bound_lower = used;
    bound_upper = used;
    allocated = used;
    used_fair = used;
    used_adversarial = None;
    safety_ok = true;
  }

(* a Table 1 that has the paper's shape: 2f+1 flat rows, a register row
   growing with k and at kf+f+1 once n >= kf+f+1 *)
let table1_shaped ~maxreg =
  [
    row ~k:1 ~f:1 ~n:3 "max-register" 3;
    row ~k:1 ~f:1 ~n:3 "register" 3;
    row ~k:3 ~f:1 ~n:3 "max-register" maxreg;
    row ~k:3 ~f:1 ~n:3 "CAS" 3;
    row ~k:3 ~f:1 ~n:3 "register" 9;
  ]

let fails = function Claim.Fails _ -> true | _ -> false

(* the documented claim ids of doc/paper-map.md's Results table, each with
   its row's paper element *)
let paper_map_claims () =
  let lines =
    In_channel.with_open_text "../doc/paper-map.md" In_channel.input_all
    |> String.split_on_char '\n'
  in
  let rec results = function
    | "## Results" :: rest -> rest
    | _ :: rest -> results rest
    | [] -> []
  in
  let rec table = function
    | l :: _ when String.starts_with ~prefix:"## " l -> []
    | l :: rest when String.starts_with ~prefix:"| " l -> l :: table rest
    | _ :: rest -> table rest
    | [] -> []
  in
  match table (results lines) with
  | _header :: _separator :: rows ->
      List.filter_map
        (fun l ->
          let cells = List.map String.trim (String.split_on_char '|' l) in
          let claim = List.nth cells (List.length cells - 2) in
          if claim = "—" then None
          else
            let unquote s = String.concat "" (String.split_on_char '`' s) in
            Some (unquote claim, List.nth cells 1))
        rows
  | _ -> Alcotest.fail "no Results table in doc/paper-map.md"

let claim_tests =
  let defaults = (List.hd Claim.all).defaults in
  let synthetic id run =
    { Claim.id; paper = id; doc = ""; reads = []; defaults; run }
  in
  [
    test "table1 verdict holds on the paper's shape" (fun () ->
        match Claim.table1_verdict (table1_shaped ~maxreg:3) with
        | Claim.Holds _ -> ()
        | _ -> Alcotest.fail "expected the shape to hold");
    test "table1 verdict fails on a max-register row at 2f+2" (fun () ->
        Alcotest.(check bool)
          "fails" true
          (fails (Claim.table1_verdict (table1_shaped ~maxreg:4))));
    test "the runner fails a failing claim and a raising one" (fun () ->
        let status, out =
          verify 42
            [
              synthetic "broken" (fun _ -> ([], Claim.Fails "broken on purpose"));
              synthetic "raises" (fun _ -> failwith "raised on purpose");
            ]
        in
        Alcotest.(check int) "exit status" 1 status;
        Alcotest.(check bool)
          "both FAIL" true
          (Astring_contains.contains out "[FAIL] broken"
          && Astring_contains.contains out "[FAIL] raises — raises: raised on purpose"
          && Astring_contains.contains out "0 passed, 2 failed, 0 not checked"));
    test "claim ids are unique" (fun () ->
        let ids = List.map (fun (c : Claim.t) -> c.id) Claim.all in
        Alcotest.(check int)
          "unique" (List.length ids)
          (List.length (List.sort_uniq compare ids)));
    test "doc/paper-map.md's claim column names exactly the registry"
      (fun () ->
        let documented = paper_map_claims () in
        Alcotest.(check (list string))
          "ids"
          (List.sort_uniq compare (List.map (fun (c : Claim.t) -> c.id) Claim.all))
          (List.sort_uniq compare (List.map fst documented));
        List.iter
          (fun (c : Claim.t) ->
            if not (List.mem (c.id, c.paper) documented) then
              Alcotest.failf "%s: no Results row reads %S" c.id c.paper)
          Claim.all);
  ]

let load_balance_tests =
  [
    test "load is spread within 2x of the even share" (fun () ->
        let r =
          Theorems.load_balance ~k:4 ~f:1 ~n:6 ~rounds:2 ~seed:3
        in
        Alcotest.(check int) "one row per server" 6 (List.length r.rows);
        List.iter
          (fun row ->
            let ratio = float_of_string (List.nth row 2) in
            if ratio > 2.0 then
              Alcotest.failf "server %s overloaded: %.2fx" (List.hd row) ratio)
          r.rows);
  ]


let wire_tests =
  [
    test "abd message cost grows linearly with f" (fun () ->
        let r = Wire.abd_messages ~fs:[ 1; 2; 3 ] ~ops:6 ~seed:1 in
        let per_op row = float_of_string (List.nth row 4) in
        (match r.rows with
        | [ a; b; c ] ->
            Alcotest.(check bool) "monotone" true
              (per_op a < per_op b && per_op b < per_op c)
        | _ -> Alcotest.fail "expected three rows"));
    test "wire alg2 cell counts equal the upper bound" (fun () ->
        let r = Wire.alg2_messages ~configs:[ (2, 1, 4); (3, 2, 7) ] ~seed:1 in
        List.iter
          (fun row ->
            let k = int_of_string (List.nth row 0) in
            let f = int_of_string (List.nth row 1) in
            let n = int_of_string (List.nth row 2) in
            let cells = int_of_string (List.nth row 3) in
            Alcotest.(check int) "cells"
              (Regemu_bounds.Formulas.register_upper_bound
                 (Params.make_exn ~k ~f ~n))
              cells)
          r.rows);
    test "wire staircase rows show i*f coverage and clean F" (fun () ->
        let p = Params.make_exn ~k:3 ~f:1 ~n:4 in
        match Wire.staircase p ~seed:9 with
        | Error e -> Alcotest.failf "failed: %s" e
        | Ok epochs ->
            let r = Theorems.lemma1 ~algo:"algorithm2 on the wire" p epochs in
            List.iteri
              (fun i row ->
                Alcotest.(check string)
                  "covered = i*f"
                  (string_of_int (i + 1))
                  (List.nth row 1);
                Alcotest.(check string) "on F" "0" (List.nth row 3))
              r.rows);
  ]

let suites =
  [
    ("harness:report", report_tests);
    ("harness:table1", table1_tests);
    ("harness:figures", figures_tests);
    ("harness:theorems", theorem_tests);
    ("harness:timeline", timeline_tests);
    ("harness:sweep", sweep_tests);
    ("harness:extra-experiments", extra_experiment_tests);
    ("harness:load-balance", load_balance_tests);
    ("harness:wire", wire_tests);
    ("harness:verify", verify_tests);
    ("harness:claim", claim_tests);
  ]
