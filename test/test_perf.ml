(* The perf layer: canonical bench schema round-trip, regression
   detection (a 2x slowdown fails, sub-threshold noise doesn't),
   OpenMetrics golden output, folded-stack export against a hand-built
   trace tree, GC counter monotonicity across a traced query, and
   histogram quantile interpolation. *)

module Json = Tkr_obs.Json
module Trace = Tkr_obs.Trace
module Metrics = Tkr_obs.Metrics
module Openmetrics = Tkr_obs.Openmetrics
module Env = Tkr_perf.Env
module Bench_result = Tkr_perf.Bench_result
module Compare = Tkr_perf.Compare
module Export = Tkr_perf.Export
module Runner = Tkr_perf.Runner
module M = Tkr_middleware.Middleware

(* --- JSON parser (the reader side of the schema) --- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.Str "a \"quoted\"\nline\twith\\escapes");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Obj []; Json.List [] ]);
      ]
  in
  Alcotest.(check bool)
    "roundtrip" true
    (Json.of_string (Json.to_string doc) = doc);
  Alcotest.(check bool)
    "ints stay ints" true
    (Json.of_string "7" = Json.Int 7);
  Alcotest.(check bool)
    "floats parse" true
    (Json.of_string "7.25" = Json.Float 7.25);
  Alcotest.(check bool)
    "whitespace tolerated" true
    (Json.of_string "  { \"a\" : [ 1 , 2 ] }  "
    = Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Int 2 ]) ]);
  let fails s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "truncated fails" true (fails "{\"a\":");
  Alcotest.(check bool) "garbage tail fails" true (fails "1 x")

(* --- canonical schema round-trip --- *)

let sample_env =
  {
    Env.ocaml_version = "5.1.1";
    git_sha = "abc123";
    dirty = false;
    hostname = "ci";
    word_size = 64;
    os_type = "Unix";
  }

let sample_report ?(extra = []) specs =
  Bench_result.make ~env:sample_env ~extra ~source:"test"
    (List.map
       (fun (suite, name, ns) ->
         Bench_result.result ~suite ~name ~runs:3
           ~counters:[ ("rows_out", 10.); ("gc_minor_words", 123.5) ]
           ns)
       specs)

let test_schema_roundtrip () =
  let rep =
    sample_report
      ~extra:[ ("note", Json.Str "hello") ]
      [ ("employee", "join-1", 1234.5); ("coalesce", "coalesce-1000", 9.9) ]
  in
  let rep' = Bench_result.of_json (Json.of_string (Json.to_string (Bench_result.to_json rep))) in
  Alcotest.(check string) "source" rep.source rep'.source;
  Alcotest.(check bool) "env" true (rep.env = rep'.env);
  Alcotest.(check bool) "results" true (rep.results = rep'.results);
  Alcotest.(check bool)
    "extra passthrough" true
    (List.assoc_opt "note" rep'.extra = Some (Json.Str "hello"));
  (* file round-trip *)
  let path = Filename.temp_file "tkr_bench" ".json" in
  Bench_result.write path rep;
  let rep'' = Bench_result.read path in
  Sys.remove path;
  Alcotest.(check bool) "file roundtrip" true (rep.results = rep''.results);
  (* version guard *)
  (match
     Bench_result.of_json
       (Json.Obj
          [
            ("schema_version", Json.Int 999);
            ("env", Env.to_json sample_env);
            ("results", Json.List []);
          ])
   with
  | exception Bench_result.Invalid _ -> ()
  | _ -> Alcotest.fail "schema_version 999 accepted")

let test_trajectory_names () =
  Alcotest.(check (option int))
    "parse" (Some 12)
    (Bench_result.pr_of_filename "BENCH_PR12.json");
  Alcotest.(check (option int))
    "reject scratch" None
    (Bench_result.pr_of_filename "BENCH_PR12.tmp.json");
  Alcotest.(check (option int))
    "reject other" None
    (Bench_result.pr_of_filename "results.json");
  Alcotest.(check string) "render" "BENCH_PR4.json" (Bench_result.filename_of_pr 4);
  (* next name comes after the highest file present *)
  let dir = Filename.temp_file "tkr_traj" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let touch f = close_out (open_out (Filename.concat dir f)) in
  Alcotest.(check string)
    "empty dir" "BENCH_PR0.json"
    (Bench_result.default_filename ~dir ());
  touch "BENCH_PR1.json";
  touch "BENCH_PR3.json";
  touch "unrelated.json";
  Alcotest.(check string)
    "next after highest" "BENCH_PR4.json"
    (Bench_result.default_filename ~dir ());
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* --- regression detection --- *)

let test_compare () =
  let base =
    sample_report
      [ ("s", "fast", 100.); ("s", "noisy", 100.); ("s", "gone", 50.) ]
  in
  let fresh =
    sample_report
      [
        ("s", "fast", 200.);  (* injected 2x slowdown *)
        ("s", "noisy", 130.);  (* 1.3x: below the 1.5x threshold *)
        ("s", "new-test", 10.);
      ]
  in
  let o = Compare.compare_reports ~threshold:1.5 base fresh in
  Alcotest.(check bool) "has regression" true (Compare.has_regression o);
  Alcotest.(check (list string))
    "exactly the 2x test" [ "s/fast" ]
    (List.map (fun d -> d.Compare.test) (Compare.regressions o));
  Alcotest.(check (list string)) "disappeared" [ "s/gone" ] o.Compare.only_base;
  Alcotest.(check (list string)) "appeared" [ "s/new-test" ] o.Compare.only_new;
  (* noise is neither regression nor improvement *)
  let noisy = List.find (fun d -> d.Compare.test = "s/noisy") o.Compare.deltas in
  Alcotest.(check bool)
    "noise unchanged" true
    (noisy.Compare.verdict = Compare.Unchanged);
  (* self-compare is clean *)
  let self = Compare.compare_reports ~threshold:1.5 base base in
  Alcotest.(check bool) "self-compare clean" false (Compare.has_regression self);
  (* a symmetric speedup reports an improvement, not a regression *)
  let o' = Compare.compare_reports ~threshold:1.5 fresh base in
  Alcotest.(check bool) "inverse not regression" true
    (List.map (fun d -> d.Compare.test) (Compare.improvements o') = [ "s/fast" ]);
  (match Compare.compare_reports ~threshold:0.9 base base with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "threshold <= 1 accepted")

(* --- OpenMetrics golden --- *)

let test_openmetrics_golden () =
  let r = Metrics.create () in
  Metrics.add (Metrics.counter r "rows scanned") 42;
  Metrics.record_ns (Metrics.timer r "exec") 1500L;
  Metrics.record_ns (Metrics.timer r "exec") 500L;
  let h = Metrics.histogram ~bounds:[| 10; 100 |] r "latency_us" in
  List.iter (Metrics.observe h) [ 5; 50; 5000 ];
  let expected =
    "# TYPE rows_scanned_total counter\n\
     rows_scanned_total 42\n\
     # TYPE exec_ns_total counter\n\
     exec_ns_total 2000\n\
     # TYPE exec_samples_total counter\n\
     exec_samples_total 2\n\
     # TYPE latency_us histogram\n\
     latency_us_bucket{le=\"10\"} 1\n\
     latency_us_bucket{le=\"100\"} 2\n\
     latency_us_bucket{le=\"+Inf\"} 3\n\
     latency_us_sum 5055\n\
     latency_us_count 3\n\
     # EOF\n"
  in
  Alcotest.(check string) "golden" expected (Openmetrics.of_metrics r)

let test_openmetrics_bench_export () =
  let rep = sample_report [ ("employee", "join-1", 1234.5) ] in
  let out = Export.to_openmetrics rep in
  let contains needle =
    let n = String.length out and m = String.length needle in
    let rec go i = i + m <= n && (String.sub out i m = needle || go (i + 1)) in
    Alcotest.(check bool) needle true (go 0)
  in
  contains "tkr_bench_wall_ns_per_run{suite=\"employee\",test=\"join-1\"} 1234.5";
  contains "tkr_bench_runs{suite=\"employee\",test=\"join-1\"} 3";
  contains "tkr_bench_counter{suite=\"employee\",test=\"join-1\",counter=\"rows_out\"} 10";
  contains "git_sha=\"abc123\"";
  contains "# EOF\n"

(* exposition-grammar edges: name sanitization, label escaping, and the
   gauge-family renderer the exporters are built on *)
let test_openmetrics_escaping () =
  Alcotest.(check string)
    "spaces and dashes" "rows_scanned_per_sec"
    (Openmetrics.sanitize "rows scanned-per.sec");
  Alcotest.(check string)
    "leading digit prefixed" "_9lives" (Openmetrics.sanitize "9lives");
  Alcotest.(check string)
    "colon kept" "ns:sub_total" (Openmetrics.sanitize "ns:sub total");
  Alcotest.(check string)
    "label escapes" "a\\\\b\\\"c\\nd"
    (Openmetrics.escape_label "a\\b\"c\nd");
  Alcotest.(check string)
    "gauge family golden"
    "# TYPE g gauge\n\
     # HELP g demo\n\
     g{k=\"v\\\"w\"} 1.5\n\
     g 2\n"
    (Openmetrics.gauge ~help:"demo" "g" [ ([ ("k", "v\"w") ], 1.5); ([], 2.0) ]);
  (* a registry gauge exposes as a bare gauge sample *)
  let r = Metrics.create () in
  Metrics.set (Metrics.gauge r "queue depth") 3;
  Alcotest.(check string)
    "registry gauge golden"
    "# TYPE queue_depth gauge\nqueue_depth 3\n# EOF\n"
    (Openmetrics.of_metrics r)

(* --- folded stacks --- *)

(* a hand-built trace tree, via the JSON codec so elapsed times are
   explicit: root 100ns with children 60ns (with a 10ns grandchild) and
   25ns -> root self-time 15, child self 50 *)
let test_folded () =
  let node op ns children =
    Json.Obj
      [
        ("op", Json.Str op);
        ("elapsed_ns", Json.Int ns);
        ("attrs", Json.Obj []);
        ("children", Json.List children);
      ]
  in
  let tree =
    node "root" 100 [ node "child a" 60 [ node "leaf" 10 [] ]; node "b;c" 25 [] ]
  in
  let sp = Trace.of_json_value tree in
  let expected =
    "root 15\nroot;child_a 50\nroot;child_a;leaf 10\nroot;b,c 25\n"
  in
  Alcotest.(check string) "folded" expected (Trace.to_folded sp);
  (* report-level export prefixes the query name *)
  let rep =
    Bench_result.make ~env:sample_env ~source:"test"
      ~extra:
        [
          ( "operator_traces",
            Json.List
              [
                Json.Obj
                  [ ("query", Json.Str "q1"); ("trace", Json.List [ tree ]) ];
              ] );
        ]
      []
  in
  Alcotest.(check string)
    "export prefixes query"
    "q1;root 15\nq1;root;child_a 50\nq1;root;child_a;leaf 10\nq1;root;b,c 25\n"
    (Export.to_folded rep);
  (* children whose summed time exceeds the parent clamp at zero *)
  let weird = Trace.of_json_value (node "p" 5 [ node "c" 9 [] ]) in
  Alcotest.(check string) "clamped" "p 0\np;c 9\n" (Trace.to_folded weird)

(* --- GC profiling across a traced query --- *)

let gc_float sp key =
  match Trace.find_attr sp key with
  | Some (Trace.Float f) -> f
  | Some (Trace.Int i) -> float_of_int i
  | _ -> Alcotest.fail (Printf.sprintf "span %s: missing %s" (Trace.name sp) key)

let test_gc_monotone () =
  let m = M.create () in
  Tkr_engine.Database.set_time_bounds (M.database m) ~tmin:0 ~tmax:24;
  ignore
    (M.execute_script m
       {|
       CREATE TABLE works (name text, skill text, b int, e int) PERIOD (b, e);
       INSERT INTO works VALUES
         ('Ann', 'SP', 3, 10), ('Joe', 'NS', 8, 16),
         ('Sam', 'SP', 8, 16), ('Ann', 'SP', 18, 20);
     |});
  let p = M.prepare m "SEQ VT (SELECT count(*) AS cnt FROM works)" in
  let obs = Trace.create ~gc:true () in
  ignore (M.run_prepared ~obs m p);
  let roots = Trace.roots obs in
  Alcotest.(check bool) "has roots" true (roots <> []);
  (* every span reports the GC attrs, allocations are non-negative, and a
     parent's delta covers the sum of its children's (the counters are
     monotone snapshots of one global allocation counter) *)
  List.iter
    (fun root ->
      Trace.iter
        (fun sp ->
          let minor = gc_float sp Trace.gc_minor_words in
          Alcotest.(check bool) "minor_words >= 0" true (minor >= 0.);
          Alcotest.(check bool)
            "major_collections >= 0" true
            (gc_float sp Trace.gc_major_collections >= 0.);
          let child_sum =
            List.fold_left
              (fun acc c -> acc +. gc_float c Trace.gc_minor_words)
              0. (Trace.children sp)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s covers children (%g >= %g)" (Trace.name sp)
               minor child_sum)
            true (minor >= child_sum))
        root)
    roots;
  (* the root of a real query allocates *something* *)
  Alcotest.(check bool)
    "root allocates" true
    (List.exists (fun r -> gc_float r Trace.gc_minor_words > 0.) roots)

let test_runner () =
  let s = Runner.measure ~runs:3 (fun () -> List.init 1000 string_of_int) in
  Alcotest.(check bool) "wall time positive" true (s.Runner.wall_ns > 0.);
  Alcotest.(check bool) "allocates" true (s.Runner.minor_words > 0.);
  Alcotest.(check bool)
    "gc counters schema" true
    (List.map fst (Runner.gc_counters s)
    = [
        "gc_minor_words"; "gc_major_words"; "gc_minor_collections";
        "gc_major_collections";
      ]);
  match Runner.measure ~runs:0 (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "runs=0 accepted"

(* --- histogram quantiles --- *)

let test_histogram_quantile () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~bounds:[| 10; 100; 1000 |] r "h" in
  Alcotest.(check int) "empty" 0 (Metrics.histogram_quantile h 0.5);
  (* 100 observations uniform in the (10,100] bucket: the median
     interpolates to the bucket midpoint *)
  for _ = 1 to 100 do
    Metrics.observe h 50
  done;
  Alcotest.(check int) "p50 midpoint" 55 (Metrics.histogram_quantile h 0.5);
  Alcotest.(check int) "p100 top" 100 (Metrics.histogram_quantile h 1.0);
  (* overflow ranks report the largest finite bound *)
  let r2 = Metrics.create () in
  let h2 = Metrics.histogram ~bounds:[| 10; 100 |] r2 "h2" in
  List.iter (Metrics.observe h2) [ 5; 5000; 6000; 7000 ];
  Alcotest.(check int) "overflow clamps" 100 (Metrics.histogram_quantile h2 0.9);
  (* rank 0.4 of the single observation in (0,10] interpolates to 4 *)
  Alcotest.(check int) "low rank in first bucket" 4
    (Metrics.histogram_quantile h2 0.1)

(* --- env metadata --- *)

let test_env () =
  let e = Env.capture () in
  Alcotest.(check string) "ocaml version" Sys.ocaml_version e.Env.ocaml_version;
  Alcotest.(check int) "word size" Sys.word_size e.Env.word_size;
  Alcotest.(check bool) "hostname nonempty" true (e.Env.hostname <> "");
  let e' = Env.of_json (Env.to_json e) in
  Alcotest.(check bool) "env roundtrip" true (e = e');
  (* the dirty-tree flag round-trips ... *)
  let d = { e with Env.dirty = true } in
  Alcotest.(check bool) "dirty roundtrip" true (Env.of_json (Env.to_json d)).Env.dirty;
  (* ... defaults to clean when reading pre-flag reports ... *)
  let legacy =
    match Env.to_json e with
    | Json.Obj fields ->
        Json.Obj (List.filter (fun (k, _) -> k <> "git_dirty") fields)
    | j -> j
  in
  Alcotest.(check bool) "missing flag reads clean" false (Env.of_json legacy).Env.dirty;
  (* ... and is rendered as a +dirty suffix on the SHA *)
  let shown = Format.asprintf "%a" Env.pp d in
  let has_needle needle s =
    let n = String.length needle in
    let rec go i = i + n <= String.length s && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "pp marks dirty" true (has_needle "+dirty" shown);
  Alcotest.(check bool) "pp omits marker when clean" false
    (has_needle "+dirty"
       (Format.asprintf "%a" Env.pp { e with Env.dirty = false }))

let suite =
  ( "perf",
    [
      Alcotest.test_case "json parser roundtrip" `Quick test_json_roundtrip;
      Alcotest.test_case "bench schema roundtrip" `Quick test_schema_roundtrip;
      Alcotest.test_case "trajectory filenames" `Quick test_trajectory_names;
      Alcotest.test_case "regression detection" `Quick test_compare;
      Alcotest.test_case "openmetrics golden" `Quick test_openmetrics_golden;
      Alcotest.test_case "openmetrics bench export" `Quick
        test_openmetrics_bench_export;
      Alcotest.test_case "openmetrics escaping and gauges" `Quick
        test_openmetrics_escaping;
      Alcotest.test_case "folded stacks" `Quick test_folded;
      Alcotest.test_case "gc counters monotone" `Quick test_gc_monotone;
      Alcotest.test_case "runner" `Quick test_runner;
      Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantile;
      Alcotest.test_case "env metadata" `Quick test_env;
    ] )
