(* Hand-picked inputs for the sort-based overlap join that the random
   generator of [Test_sqlenc.prop_interval_join] rarely hits: intervals that
   only meet, duplicate rows, an empty side, one long row against short ones,
   overlap starts on a regular grid and activity packed into a narrow
   window.  Each case runs the same check as that property: overlap_join
   equals hash join + overlap residual.

   The suite keeps the label of the parallel engine these cases were written
   for (a time-chunked join whose chunk cuts they straddled); the join now
   has one serial path, and the cases pin it on the same inputs. *)

module Table = Tkr_engine.Table
module Schema = Tkr_relation.Schema
module Value = Tkr_relation.Value
module Tuple = Tkr_relation.Tuple

let agrees = Test_sqlenc.interval_join_agrees
let overlap_join = Test_sqlenc.overlap_join

(* on the schema of [Test_sqlenc.table_gen] *)
let mk rows =
  Table.make
    (Schema.make
       [
         Schema.attr "x" Value.TStr;
         Schema.attr "__b" Value.TInt;
         Schema.attr "__e" Value.TInt;
       ])
    (List.map
       (fun (k, b, e) -> Tuple.make [ Value.Str k; Value.Int b; Value.Int e ])
       rows)

let check_agrees name l r = Alcotest.(check bool) name true (agrees l r)

let test_grid_starts () =
  (* overlap starts land on 0/4/8/12/16, the cuts of a [0, 16) span split
     four ways *)
  check_agrees "overlap starts on a grid"
    (mk [ ("a", 0, 8); ("a", 4, 12); ("a", 8, 16) ])
    (mk [ ("a", 0, 16); ("a", 8, 10); ("a", 12, 16) ]);
  (* meeting intervals ([0,8) vs [8,10)) must not match at all *)
  let l = mk [ ("a", 0, 8) ] and r = mk [ ("a", 8, 10) ] in
  check_agrees "adjacent intervals" l r;
  Alcotest.(check int)
    "adjacent intervals do not overlap" 0
    (Table.cardinality (overlap_join l r))

let test_narrow_window () =
  (* all activity in [0, 2), two keys *)
  check_agrees "activity in a narrow window"
    (mk [ ("a", 0, 2); ("a", 1, 2); ("b", 0, 1) ])
    (mk [ ("a", 0, 1); ("a", 1, 2); ("b", 0, 2) ])

let test_single_tuple () =
  let long = mk [ ("a", 0, 100) ] in
  check_agrees "single row each side" long (mk [ ("a", 50, 60) ]);
  check_agrees "one long row vs four short" long
    (mk [ ("a", 0, 10); ("a", 20, 30); ("a", 40, 50); ("a", 90, 100) ]);
  check_agrees "empty right side" long (Table.empty (Table.schema long))

let test_duplicates () =
  (* duplicate rows are real multiset members: every copy pairs *)
  let l = mk [ ("a", 0, 10); ("a", 0, 10); ("a", 5, 15) ] in
  let r = mk [ ("a", 5, 20); ("a", 5, 20) ] in
  check_agrees "duplicate rows" l r;
  Alcotest.(check int)
    "3 x 2 duplicate rows give 6 pairs" 6
    (Table.cardinality (overlap_join l r))

let suite =
  ( "parallel engine (Tkr_par)",
    [
      Alcotest.test_case "interval join: chunk-boundary dedup" `Quick
        test_grid_starts;
      Alcotest.test_case "interval join: empty chunks" `Quick
        test_narrow_window;
      Alcotest.test_case "interval join: single-tuple inputs" `Quick
        test_single_tuple;
      Alcotest.test_case "interval join: duplicate rows" `Quick
        test_duplicates;
    ] )
