(* Tests of the benchmark's own arithmetic: nearest-rank percentiles and
   their tail rule, the geometric mean, self time over span trees, and
   seeded Zipf streams. *)

open Perfbench_lib
module Trace = Tkr_obs.Trace
module Json = Tkr_obs.Json
module Prng = Tkr_workload.Prng

let floats n = Stats.sorted (List.init n (fun i -> float_of_int (i + 1)))

let refused f =
  match f () with
  | _ -> false
  | exception Stats.Too_few_samples _ -> true

let test_nearest_rank () =
  let a = floats 100 in
  Alcotest.(check (float 0.)) "p50 of 1..100" 50. (Stats.percentile ~pct:50 a);
  Alcotest.(check (float 0.)) "p90 of 1..100" 90. (Stats.percentile ~pct:90 a);
  Alcotest.(check (float 0.)) "p1 of 1..100" 1. (Stats.percentile ~pct:1 a);
  (* ranks of arrays too small for the tail rule *)
  Alcotest.(check int) "p100 is the maximum" 99 (Stats.rank_index ~n:100 ~pct:100);
  (* nearest rank never interpolates: the value was observed *)
  Alcotest.(check int) "p50 of 4 samples is rank 2" 1 (Stats.rank_index ~n:4 ~pct:50);
  Alcotest.(check int) "p99 of 1 sample" 0 (Stats.rank_index ~n:1 ~pct:99);
  Alcotest.(check (float 0.)) "p99 of 1..1000 is rank 990" 990.
    (Stats.percentile ~pct:99 (floats 1000));
  Alcotest.(check (float 0.)) "median of repeats" 2. (Stats.median [ 3.; 1.; 2. ])

let test_tail_rule () =
  Alcotest.(check int) "1000 samples: 10 beyond p99" 10 (Stats.samples_beyond ~n:1000 ~pct:99);
  Alcotest.(check int) "999 samples: 9 beyond p99" 9 (Stats.samples_beyond ~n:999 ~pct:99);
  Alcotest.(check bool) "p99 of 999 refused" true
    (refused (fun () -> Stats.percentile ~pct:99 (floats 999)));
  Alcotest.(check bool) "p99 of 100 refused" true
    (refused (fun () -> Stats.percentile ~pct:99 (floats 100)));
  Alcotest.(check bool) "p50 of 19 refused" true
    (refused (fun () -> Stats.percentile ~pct:50 (floats 19)));
  Alcotest.(check bool) "p50 of 20 kept" false
    (refused (fun () -> Stats.percentile ~pct:50 (floats 20)));
  Alcotest.(check bool) "empty refused" true
    (refused (fun () -> Stats.percentile ~pct:50 [||]))

let test_geomean () =
  Alcotest.(check (float 1e-9)) "1, 4, 16" 4. (Stats.geomean [ 1.; 4.; 16. ]);
  (* every value weighs the same: one slow query does not dominate *)
  Alcotest.(check (float 1e-9)) "1 and 100" 10. (Stats.geomean [ 1.; 100. ]);
  Alcotest.(check (float 1e-9)) "single" 7. (Stats.geomean [ 7. ]);
  Alcotest.check_raises "zero" (Invalid_argument "Stats.geomean: value <= 0")
    (fun () -> ignore (Stats.geomean [ 1.; 0. ]));
  Alcotest.check_raises "empty" (Invalid_argument "Stats.geomean: no values")
    (fun () -> ignore (Stats.geomean []))

(* a span dump: name, elapsed ns, minor words, children *)
type node = N of string * int * float * node list

let rec span_json (N (name, ns, words, children)) =
  Json.Obj
    [ ("op", Json.Str name); ("elapsed_ns", Json.Int ns);
      ("attrs", Json.Obj [ (Trace.gc_minor_words, Json.Float words) ]);
      ("children", Json.List (List.map span_json children)) ]

let tree =
  Trace.of_json_value
    (span_json
       (N
          ( "coalesce", 100, 1000.,
            [ N ("join", 60, 700., [ N ("scan(a)", 10, 0., []); N ("scan(b)", 15, 0., []) ]);
              N ("select", 30, 200., [ N ("scan(a)", 5, 0., []) ]) ] )))

let test_self_time () =
  Alcotest.(check int64) "root self" 10L (Spans.self_ns tree);
  Alcotest.(check (float 0.)) "root self words" 100. (Spans.self_minor_words tree);
  Alcotest.(check bool) "self times add up to the root" true (Spans.self_sum_matches tree);
  let t = Spans.create () in
  Spans.add t tree;
  Spans.add t tree;
  let self op = (Hashtbl.find t op).Spans.a_self_ns in
  Alcotest.(check int64) "join self" 70L (self "join");
  Alcotest.(check int64) "select self" 50L (self "select");
  Alcotest.(check int64) "scans grouped by operator" 60L (self "scan");
  Alcotest.(check int) "scan spans" 6 (Hashtbl.find t "scan").Spans.a_spans;
  Alcotest.(check (float 0.)) "join self words" 1400. (Hashtbl.find t "join").Spans.a_minor_words;
  (* children that outlast their parent cannot come from one thread *)
  let bad = Trace.of_json_value (span_json (N ("join", 10, 0., [ N ("scan(a)", 20, 0., []) ]))) in
  Alcotest.(check int64) "self clamps at zero" 0L (Spans.self_ns bad);
  Alcotest.(check bool) "overlap detected" false (Spans.self_sum_matches bad)

let draws seed n =
  let z = Zipf.create ~n:50 ~s:1.3 and g = Prng.create seed in
  List.init n (fun _ -> Zipf.draw z g)

let test_zipf () =
  Alcotest.(check (list int)) "same seed, same stream" (draws 7 500) (draws 7 500);
  Alcotest.(check bool) "another seed, another stream" true (draws 7 500 <> draws 8 500);
  let d = draws 3 20_000 in
  Alcotest.(check bool) "ranks in range" true (List.for_all (fun r -> r >= 0 && r < 50) d);
  let count r = List.length (List.filter (( = ) r) d) in
  Alcotest.(check bool) "skewed towards rank 0" true
    (count 0 > count 1 && count 1 > count 10 && count 10 > 0);
  let perm seed = Zipf.permutation (Prng.create seed) 100 in
  Alcotest.(check (array int)) "permutation is seeded" (perm 5) (perm 5);
  Alcotest.(check (list int)) "permutation of 0..99" (List.init 100 Fun.id)
    (List.sort compare (Array.to_list (perm 5)))

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "nearest-rank percentiles" `Quick test_nearest_rank;
          Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "geometric mean" `Quick test_geomean ] );
      ("spans", [ Alcotest.test_case "self time" `Quick test_self_time ]);
      ("zipf", [ Alcotest.test_case "seeded determinism" `Quick test_zipf ]) ]
