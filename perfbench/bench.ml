(* The repository benchmark: three seeded workloads, every response
   checked against an oracle, end-to-end metrics from an untraced run and
   per-layer metrics from a separate traced run.

     bench --workload analytics|point-lookup|dml-mixed --seed N
           --seconds S --trace 0|1

   The last line of standard output is one JSON object
   [{"correct", "attempted", "failed", "metrics"}]; everything else goes
   to standard error.  Layers are measured from outside, through their
   public functions and existing observation hooks: Trace spans passed to
   [Middleware.run_prepared ~obs], [Middleware.prepared_stats] and
   [totals], [Tkr_idx.Stats.snapshot], [Server.cache_stats] and a
   flight-recorder [Fn] sink passed to [Server.start ~recorder].

   Load comes from this one process: one client thread for [analytics],
   two connections (one thread each) for the serve workloads, all in a
   closed loop with no think time. *)

module M = Tkr_middleware.Middleware
module W = Tkr_workload.Employees
module T = Tkr_workload.Tpcbih
module Q = Tkr_workload.Queries
module Prng = Tkr_workload.Prng
module Trace = Tkr_obs.Trace
module Json = Tkr_obs.Json
module Clock = Tkr_obs.Clock
module Table = Tkr_engine.Table
module Ops = Tkr_engine.Ops
module B = Tkr_baseline.Baseline
module Server = Tkr_serve.Server
module Wire = Tkr_serve.Wire
module Cache = Tkr_serve.Cache
module Record = Tkr_rec.Record
module Idx = Tkr_idx.Stats
open Perfbench_lib

(* ---- fixed workload shape (provenance.json documents each) ---- *)

let setups = 5  (* set-up repetitions per run; setup_s is their median *)
let analytics_employees = 200
let tpc_scale = 0.5
let serve_employees = 1000
let hot_keys = 100  (* hot employees, split between dml-mixed connections *)
let hot_times = 8  (* hot AS OF time points, one per eighth of the history *)
let zipf_s = 0.8
let cold_share = 0.03  (* lookups at a fresh (employee, time) pair *)
let clients = 2
let write_share = 0.10

let log fmt = Printf.eprintf (fmt ^^ "\n%!")
let now_ns () = Int64.to_int (Clock.now_ns ())
let ms_of_ns ns = float_of_int ns /. 1e6
let us_of_ns ns = float_of_int ns /. 1e3

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* A timed phase lasts [seconds] and at least [min_requests] requests, so
   a slower program or host lengthens the run instead of leaving it short
   of the samples its percentiles need.  peak_heap_mb is read when request
   [min_requests] starts, so it covers the same work on every run: the
   result cache keeps every statement it has seen, and a heap read at the
   end of a fixed-time run would grow with throughput.  Call [next ()]
   before each timed request, from any client thread; it is false once
   the phase is over.  [heap ()] gives the reading. *)
let timed_phase ~seconds ~min_requests =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let started = Atomic.make 0 and at = Atomic.make 0.0 in
  let next () =
    if Atomic.get started > min_requests && now_ns () >= deadline then false
    else begin
      if Atomic.fetch_and_add started 1 = min_requests then
        Atomic.set at (peak_heap_mb ());
      true
    end
  in
  (next, fun () -> Atomic.get at)

(* digest of the exact payload bytes a server sends for a result *)
let digest_of_result r =
  Digest.string
    (Wire.body_to_payload
       (match r with M.Rows t -> Wire.Rows t | M.Done msg -> Wire.Message msg))

(* the oracle's digest for a statement; an oracle error matches no
   response, so the operation counts as failed *)
let oracle_digest text f =
  try digest_of_result (f ())
  with e ->
    log "oracle failed on %s: %s" text (Printexc.to_string e);
    "oracle error"

let log_catalog label db =
  let module D = Tkr_engine.Database in
  log "catalog %s: %s" label
    (String.concat " "
       (List.map
          (fun n -> Printf.sprintf "%s=%d" n (Table.cardinality (D.find db n)))
          (List.sort compare (D.names db))))

(* ---- report ---- *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "metric is not a finite number"

(* the result line: (name, unit, value) metrics *)
let print_result ~correct ~attempted ~failed metrics =
  let metrics =
    String.concat ", "
      (List.map
         (fun (name, unit_, value) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number value) unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed metrics

(* The end-to-end metrics of an untraced run.  Latencies are read
   requests' client latencies; their percentiles must have ten samples
   beyond them, or the run fails.  [medians] are the per-template median
   latencies. *)
let print_end_to_end ~name ~correct ~attempted ~failed ~setup_s ~throughput
    ~(read_ms : float list) ~medians ~heap_mb =
  let read_ms = Stats.sorted read_ms in
  log "%s read latency (ms) p10..p90: %s" name
    (String.concat " "
       (List.map
          (fun pct -> Printf.sprintf "%.3f" (Stats.percentile ~pct read_ms))
          [ 10; 20; 30; 40; 50; 60; 70; 80; 90 ]));
  print_result ~correct ~attempted ~failed
    [ ("setup_s", "s", setup_s);
      ("throughput_rps", "1/s", throughput);
      ("latency_p50_ms", "ms", Stats.percentile ~pct:50 read_ms);
      ("latency_p99_ms", "ms", Stats.percentile ~pct:99 read_ms);
      ("query_geomean_ms", "ms", Stats.geomean medians);
      ("peak_heap_mb", "MB", heap_mb) ]

let self_ops =
  [ "scan"; "select"; "project"; "join"; "aggregate"; "except_all"; "union";
    "distinct"; "coalesce"; "split"; "split_agg" ]

let words_ops = [ "join"; "split_agg"; "coalesce"; "except_all" ]

(* every per-layer metric with its unit, in report order *)
let per_layer_catalog =
  [ ("sql.parse_us", "us"); ("sql.analyze_us", "us"); ("check.check_us", "us");
    ("engine.optimize_us", "us"); ("sqlenc.rewrite_us", "us");
    ("middleware.prepare_us", "us"); ("middleware.run_us", "us");
    ("middleware.run_minor_words", "words") ]
  @ List.map (fun op -> ("engine.self_ms." ^ op, "ms")) self_ops
  @ List.map (fun op -> ("engine.minor_words." ^ op, "words")) words_ops
  @ [ ("engine.coalesce_ns_per_row", "ns");
      ("engine.fig5_coalesce_ns_per_row.1k", "ns");
      ("engine.fig5_coalesce_ns_per_row.100k", "ns");
      ("baseline.seq_vs_nat_x", "x");
      ("idx.probes_per_request", "count"); ("idx.candidates_per_probe", "count");
      ("idx.candidates_per_row_out", "count"); ("idx.builds", "count");
      ("idx.rebuilds_per_write", "count");
      ("serve.cache_hit_rate", "ratio"); ("serve.exec_us.hit.p50", "us");
      ("serve.wire_us.p50", "us"); ("serve.queue_us.p50", "us");
      ("serve.queue_us.p99", "us"); ("serve.minor_words.hit", "words");
      ("serve.exec_us.miss.p50", "us"); ("serve.exec_us.miss.p99", "us");
      ("serve.minor_words.miss", "words");
      ("serve.cache_invalidations_per_write", "count");
      ("serve.cache_evictions", "count"); ("serve.write_exec_us.p50", "us");
      ("client.write_p50_ms", "ms"); ("client.write_p99_ms", "ms");
      ("obs.trace_overhead_x", "x") ]

(* The per-layer metrics of a traced run from the (name, value) pairs the
   workload measured.  Every catalogued metric is printed; those of
   layers the workload does not exercise read 0. *)
let print_per_layer ~correct ~attempted ~failed (measured : (string * float) list) =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer_catalog) then
        failwith ("uncatalogued per-layer metric " ^ name))
    measured;
  print_result ~correct ~attempted ~failed
    (List.map
       (fun (name, unit_) ->
         (name, unit_, Option.value ~default:0.0 (List.assoc_opt name measured)))
       per_layer_catalog)

(* a per-layer percentile: one with too few samples beyond it reads 0,
   like a layer the workload does not exercise *)
let layer_pct ~name ~pct (xs : float list) =
  let v =
    try Stats.percentile ~pct (Stats.sorted xs)
    with Stats.Too_few_samples _ as e ->
      if xs <> [] then log "per-layer %s: %s, reported as 0" name (Printexc.to_string e);
      0.0
  in
  (name, v)

(* run [setup] [setups] times from scratch, tearing each instance down
   before the next; return the median time and the last instance *)
let repeat_setup ~setup ~teardown =
  let rec go i times last =
    if i = setups then (Stats.median times, Option.get last)
    else begin
      Option.iter teardown last;
      Gc.full_major ();
      let t0 = now_ns () in
      let inst = setup () in
      let dt = float_of_int (now_ns () - t0) /. 1e9 in
      go (i + 1) (dt :: times) (Some inst)
    end
  in
  go 0 [] None

(* ---- per-layer metrics shared by all workloads ---- *)

type phases = {
  parse_ns : float;
  analyze_ns : float;
  check_ns : float;
  rewrite_ns : float;
  optimize_ns : float;
  execute_ns : float;
}

let phases_zero =
  { parse_ns = 0.; analyze_ns = 0.; check_ns = 0.; rewrite_ns = 0.;
    optimize_ns = 0.; execute_ns = 0. }

let phases_add a (s : M.phase_stats) =
  let f = Int64.to_float in
  { parse_ns = a.parse_ns +. f s.M.parse_ns;
    analyze_ns = a.analyze_ns +. f s.M.analyze_ns;
    check_ns = a.check_ns +. f s.M.check_ns;
    rewrite_ns = a.rewrite_ns +. f s.M.rewrite_ns;
    optimize_ns = a.optimize_ns +. f s.M.optimize_ns;
    execute_ns = a.execute_ns +. f s.M.execute_ns }

let phases_sub a b =
  { parse_ns = a.parse_ns -. b.parse_ns;
    analyze_ns = a.analyze_ns -. b.analyze_ns;
    check_ns = a.check_ns -. b.check_ns;
    rewrite_ns = a.rewrite_ns -. b.rewrite_ns;
    optimize_ns = a.optimize_ns -. b.optimize_ns;
    execute_ns = a.execute_ns -. b.execute_ns }

(* mean microseconds per request of each planning phase and of execute *)
let phase_metrics (p : phases) ~requests =
  let us x = Stats.ratio x (1e3 *. float_of_int requests) in
  let prepare =
    p.parse_ns +. p.analyze_ns +. p.check_ns +. p.rewrite_ns +. p.optimize_ns
  in
  [ ("sql.parse_us", us p.parse_ns);
    ("sql.analyze_us", us p.analyze_ns);
    ("check.check_us", us p.check_ns);
    ("engine.optimize_us", us p.optimize_ns);
    ("sqlenc.rewrite_us", us p.rewrite_ns);
    ("middleware.prepare_us", us prepare);
    ("middleware.run_us", us p.execute_ns) ]

(* engine operator metrics from accumulated spans, per request *)
let engine_metrics (ops : Spans.table) ~requests =
  let get op = Hashtbl.find_opt ops op in
  let per_req x = Stats.ratio x (float_of_int requests) in
  List.map
    (fun op ->
      let ns = match get op with Some a -> Int64.to_float a.Spans.a_self_ns | None -> 0. in
      ("engine.self_ms." ^ op, per_req ns /. 1e6))
    self_ops
  @ List.map
      (fun op ->
        let w = match get op with Some a -> a.Spans.a_minor_words | None -> 0. in
        ("engine.minor_words." ^ op, per_req w))
      words_ops
  @ [ (let ns, rows =
         match get "coalesce" with
         | Some a -> (Int64.to_float a.Spans.a_self_ns, float_of_int a.Spans.a_rows_in)
         | None -> (0., 0.)
       in
       ("engine.coalesce_ns_per_row", Stats.ratio ns rows)) ]

let idx_metrics (a : Idx.snapshot) (b : Idx.snapshot) ~requests ~rows_out
    ~writes =
  let d f = float_of_int (f b - f a) in
  let probes = d (fun s -> s.Idx.s_probes) in
  let cands = d (fun s -> s.Idx.s_candidates) in
  [ ("idx.probes_per_request", Stats.ratio probes (float_of_int requests));
    ("idx.candidates_per_probe", Stats.ratio cands probes);
    ("idx.candidates_per_row_out", Stats.ratio cands (float_of_int rows_out));
    ("idx.builds", d (fun s -> s.Idx.s_built));
    ("idx.rebuilds_per_write", Stats.ratio (d (fun s -> s.Idx.s_rebuilds)) (float_of_int writes)) ]

(* Figure 5: per-row cost of multiset coalescing on the paper's
   selection-shaped input, median of repeated runs *)
let fig5_ns_per_row ~n ~reps ~seed =
  let t = W.coalesce_input ~n ~seed ~tmax:4000 in
  ignore (Ops.coalesce t);
  let times =
    List.init reps (fun _ ->
        let t0 = now_ns () in
        ignore (Ops.coalesce t);
        float_of_int (now_ns () - t0))
  in
  Stats.median times /. float_of_int n

(* ---- analytics ---- *)

type aquery = { a_name : string; a_sql : string; a_emp : bool }

let analytics_queries : aquery array =
  Array.of_list
    (List.map (fun (a_name, a_sql) -> { a_name; a_sql; a_emp = true }) Q.employee
    @ List.map
        (fun a_name -> { a_name; a_sql = Q.lookup a_name Q.tpch; a_emp = false })
        Q.tpch_perf_names)

let analytics_catalogs seed =
  ( W.generate { (W.scaled analytics_employees) with W.seed },
    T.generate { T.default with T.scale = tpc_scale; seed } )

type amw = { emp : M.t; tpc : M.t }

let mw_of amw q = if q.a_emp then amw.emp else amw.tpc

let analytics_setup seed () =
  let edb, tdb = analytics_catalogs seed in
  let amw = { emp = M.create ~db:edb (); tpc = M.create ~db:tdb () } in
  (* warm-up: first prepares, lazy index builds *)
  Array.iter
    (fun q ->
      let mw = mw_of amw q in
      ignore (M.run_prepared mw (M.prepare mw q.a_sql)))
    analytics_queries;
  amw

(* what one closed-loop pass over the analytics statements observed *)
type aresult = {
  lat_ns : int list array;  (* per query *)
  digests : (int * string) list;  (* (query, payload digest) per response *)
  errors : int;
  busy_ns : int;
  phases : phases;
  run_minor_words : float;
  rows_out : int;
  ops : Spans.table;
  roots : int;
  roots_mismatched : int;
}

let requests_of r = List.length r.digests + r.errors

(* One client, closed loop: each request is one ad-hoc statement
   (prepare, then run), statements in a seeded shuffled order per pass,
   while [next ()] holds.  With [traced], every run gets a fresh
   GC-profiling trace collector. *)
let analytics_loop ~next ~traced amw seed : aresult =
  let nq = Array.length analytics_queries in
  let g = Prng.create ((seed * 7919) + 1) in
  let order = Array.init nq Fun.id in
  let lat = Array.make nq [] in
  let digests = ref [] and errors = ref 0 and busy = ref 0 in
  let phases = ref phases_zero and minor = ref 0. and rows_out = ref 0 in
  let ops = Spans.create () and roots = ref 0 and mismatched = ref 0 in
  let continue = ref true in
  while !continue do
    for i = nq - 1 downto 1 do
      let j = Prng.int g (i + 1) in
      let x = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- x
    done;
    Array.iter
      (fun qi ->
        if !continue && not (next ()) then continue := false;
        if !continue then begin
          let q = analytics_queries.(qi) in
          let mw = mw_of amw q in
          let obs = if traced then Trace.create ~gc:true () else Trace.disabled in
          let t0 = now_ns () in
          (match
             let p = M.prepare mw q.a_sql in
             let w0 = Gc.minor_words () in
             let tbl = M.run_prepared ~obs mw p in
             let w1 = Gc.minor_words () in
             (p, tbl, w1 -. w0)
           with
          | p, tbl, words ->
              let t1 = now_ns () in
              busy := !busy + (t1 - t0);
              lat.(qi) <- (t1 - t0) :: lat.(qi);
              phases := phases_add !phases (M.prepared_stats p);
              minor := !minor +. words;
              rows_out := !rows_out + Table.cardinality tbl;
              digests := (qi, digest_of_result (M.Rows tbl)) :: !digests
          | exception e ->
              busy := !busy + (now_ns () - t0);
              incr errors;
              log "analytics %s: %s" q.a_name (Printexc.to_string e));
          List.iter
            (fun root ->
              incr roots;
              if not (Spans.self_sum_matches root) then incr mismatched;
              Spans.add ops root)
            (Trace.roots obs)
        end)
      order
  done;
  { lat_ns = lat; digests = !digests; errors = !errors; busy_ns = !busy;
    phases = !phases; run_minor_words = !minor; rows_out = !rows_out; ops;
    roots = !roots; roots_mismatched = !mismatched }

(* the oracle: row engine, index off, prune off, no server, no cache,
   over a catalog generated from the same seed *)
let analytics_oracle seed : string array =
  let edb, tdb = analytics_catalogs seed in
  log_catalog "employee" edb;
  log_catalog "tpc-bih" tdb;
  let o =
    { emp = M.create ~db:edb ~index:false ~prune:false ~engine:M.Row ();
      tpc = M.create ~db:tdb ~index:false ~prune:false ~engine:M.Row () }
  in
  Array.map
    (fun q ->
      let mw = mw_of o q in
      oracle_digest q.a_sql (fun () -> M.Rows (M.run_prepared mw (M.prepare mw q.a_sql))))
    analytics_queries

let analytics_failures oracle (r : aresult) =
  r.errors
  + List.length (List.filter (fun (qi, d) -> d <> oracle.(qi)) r.digests)

let throughput_of r = float_of_int (requests_of r) /. (float_of_int r.busy_ns /. 1e9)

(* Table 3: geometric mean over the paper's queries of native (temporal
   alignment + coalescing) time over middleware (Seq) time *)
let seq_vs_nat amw =
  let med f = Stats.median (List.init 3 (fun _ ->
      let t0 = now_ns () in
      ignore (f ());
      float_of_int (now_ns () - t0)))
  in
  Stats.geomean
    (Array.to_list
       (Array.map
          (fun q ->
            let mw = mw_of amw q in
            let p = M.prepare mw q.a_sql in
            let seq = med (fun () -> M.run_prepared mw p) in
            let algebra, _ = M.snapshot_algebra mw q.a_sql in
            let db = M.database mw in
            let nat = med (fun () -> B.eval_coalesced B.Alignment db algebra) in
            nat /. seq)
          analytics_queries))

let paper_metrics ~seed amw =
  [ ("engine.fig5_coalesce_ns_per_row.1k", fig5_ns_per_row ~n:1_000 ~reps:201 ~seed);
    ("engine.fig5_coalesce_ns_per_row.100k", fig5_ns_per_row ~n:100_000 ~reps:5 ~seed);
    ("baseline.seq_vs_nat_x", seq_vs_nat amw) ]

let analytics ~seed ~seconds ~traced =
  let setup_s, amw = repeat_setup ~setup:(analytics_setup seed) ~teardown:ignore in
  Gc.full_major ();
  let i0 = Idx.snapshot () in
  (* 1,000 requests: the least that gives p99 ten samples beyond it *)
  let next, heap = timed_phase ~seconds ~min_requests:1_000 in
  let r = analytics_loop ~next ~traced:false amw seed in
  let i1 = Idx.snapshot () in
  let heap = heap () in
  let oracle = analytics_oracle seed in
  let failed = analytics_failures oracle r in
  let n = requests_of r in
  log "analytics: %d requests, %d failed, setup %.3fs" n failed setup_s;
  if not traced then begin
    let medians =
      Array.to_list
        (Array.mapi
           (fun qi l ->
             if l = [] then
               failwith ("no samples for " ^ analytics_queries.(qi).a_name);
             Stats.median (List.map ms_of_ns l))
           r.lat_ns)
    in
    log "analytics query medians (ms): %s"
      (String.concat " "
         (List.mapi
            (fun qi med -> Printf.sprintf "%s=%.3f" analytics_queries.(qi).a_name med)
            medians));
    print_end_to_end ~name:"analytics" ~correct:(failed = 0) ~attempted:n ~failed
      ~setup_s ~throughput:(throughput_of r)
      ~read_ms:(List.concat_map (List.map ms_of_ns) (Array.to_list r.lat_ns))
      ~medians ~heap_mb:heap
  end
  else begin
    (* the traced phase: same statements from a fresh set-up *)
    let amw_t = analytics_setup seed () in
    Gc.full_major ();
    let next, _ = timed_phase ~seconds ~min_requests:0 in
    let rt = analytics_loop ~next ~traced:true amw_t seed in
    let failed_t = analytics_failures oracle rt in
    let nt = requests_of rt in
    if rt.roots_mismatched > 0 then
      log "analytics: %d of %d traces: self times do not add up to the root"
        rt.roots_mismatched rt.roots;
    let correct = failed = 0 && failed_t = 0 && rt.roots_mismatched = 0 in
    print_per_layer ~correct ~attempted:(n + nt) ~failed:(failed + failed_t)
      (phase_metrics r.phases ~requests:n
      @ [ ("middleware.run_minor_words", Stats.ratio r.run_minor_words (float_of_int n)) ]
      @ engine_metrics rt.ops ~requests:nt
      @ paper_metrics ~seed amw_t
      @ idx_metrics i0 i1 ~requests:n ~rows_out:r.rows_out ~writes:0
      @ [ ("obs.trace_overhead_x", throughput_of r /. throughput_of rt) ])
  end

(* ---- serve workloads ---- *)

type kind = Salary | Title | Agg | Diff | Insert | Update | Delete

let kind_name = function
  | Salary -> "salary" | Title -> "title" | Agg -> "agg-1" | Diff -> "diff-1"
  | Insert -> "insert" | Update -> "update" | Delete -> "delete"

let is_write = function Insert | Update | Delete -> true | _ -> false

type req = { kind : kind; text : string; emp : int }

let serve_config seed = { (W.scaled serve_employees) with W.seed }

type stream = {
  dml : bool;
  g : Prng.t;
  hot : int array;  (* hot employees, in Zipf rank order *)
  kz : Zipf.t;
  tps : int array;  (* hot time points *)
  lo : int;  (* cold lookups draw employees from [lo, lo + span) *)
  span : int;
  tmax : int;
  mutable warm : req list;  (* warm-up requests not sent yet *)
  warm_n : int;
}

let lookup kind k t =
  let col, table = if kind = Salary then ("salary", "salaries") else ("title", "titles") in
  { kind; emp = k;
    text =
      Printf.sprintf "SEQ VT AS OF %d (SELECT emp_no, %s FROM %s WHERE emp_no = %d)"
        t col table k }

let dept_query kind t =
  { kind; emp = 0;
    text =
      (match kind with
      | Agg ->
          Printf.sprintf
            "SEQ VT AS OF %d (SELECT d.dept_no, avg(s.salary) AS avg_salary FROM dept_emp d, salaries s WHERE d.emp_no = s.emp_no GROUP BY d.dept_no)"
            t
      | _ ->
          Printf.sprintf
            "SEQ VT AS OF %d (SELECT emp_no FROM employees EXCEPT ALL SELECT emp_no FROM dept_manager)"
            t) }

(* One connection's request stream.  Lookups go to a hot set of
   employees drawn Zipf-skewed and time points drawn uniformly, one
   seeded point per eighth of the history (so every seed sees early and
   late snapshots alike), or with [cold_share] to a fresh (employee,
   time) pair.  The warm-up sends every hot statement once, so in the
   timed phase hot lookups hit the cache and cold ones miss, at rates
   that do not drift with the length of the run.  [dml-mixed]
   connections each own a disjoint half of the employees, write 10% of
   the time and read mostly the table they write. *)
let make_stream ~dml ~seed ~conn : stream =
  let cfg = serve_config seed in
  let gs = Prng.create ((seed * 104729) + 3) in
  let stride = cfg.W.tmax / hot_times in
  let tps = Array.init hot_times (fun i -> (i * stride) + Prng.int gs stride) in
  let span = if dml then cfg.W.employees / clients else cfg.W.employees in
  let lo = if dml then (conn * span) + 1 else 1 in
  let n_hot = if dml then hot_keys / clients else hot_keys in
  let hot = Array.map (fun i -> lo + i) (Array.sub (Zipf.permutation gs span) 0 n_hot) in
  let hot_lookups =
    List.concat_map
      (fun k -> List.concat_map (fun t -> [ lookup Salary k t; lookup Title k t ]) (Array.to_list tps))
      (Array.to_list hot)
  in
  let warm =
    if dml then hot_lookups
    else
      (* shared hot set: the connections split its warm-up *)
      List.filteri
        (fun i _ -> i mod clients = conn)
        (hot_lookups
        @ List.concat_map (fun t -> [ dept_query Agg t; dept_query Diff t ]) (Array.to_list tps))
  in
  { dml; g = Prng.create ((seed * 1000003) + 17 + conn); hot;
    kz = Zipf.create ~n:n_hot ~s:zipf_s; tps; lo; span; tmax = cfg.W.tmax; warm;
    warm_n = List.length warm }

let next_req (s : stream) : req =
  match s.warm with
  | r :: rest ->
      s.warm <- rest;
      r
  | [] ->
      let key () = s.hot.(Zipf.draw s.kz s.g) in
      let at () = s.tps.(Prng.int s.g hot_times) in
      let read kind =
        if Prng.float s.g < cold_share then
          lookup kind (s.lo + Prng.int s.g s.span) (Prng.int s.g s.tmax)
        else
          let k = key () in
          lookup kind k (at ())
      in
      let u = Prng.float s.g in
      if s.dml then
        if u < write_share then begin
          let k = key () in
          let a = Prng.int s.g (s.tmax - 400) in
          let b = a + 1 + Prng.int s.g 300 in
          let v = 40000 + Prng.int s.g 50000 in
          match Prng.int s.g 3 with
          | 0 ->
              { kind = Insert; emp = k;
                text = Printf.sprintf "INSERT INTO salaries VALUES (%d, %d, %d, %d)" k v a b }
          | 1 ->
              { kind = Update; emp = k;
                text =
                  Printf.sprintf
                    "UPDATE salaries FOR PORTION OF PERIOD FROM %d TO %d SET salary = %d WHERE emp_no = %d"
                    a b v k }
          | _ ->
              { kind = Delete; emp = k;
                text =
                  Printf.sprintf
                    "DELETE FROM salaries FOR PORTION OF PERIOD FROM %d TO %d WHERE emp_no = %d"
                    a b k }
        end
        else if u < 0.95 then read Salary
        else read Title
      else if u < 0.02 then dept_query Agg (at ())
      else if u < 0.04 then dept_query Diff (at ())
      else if u < 0.66 then read Salary
      else read Title

(* a raw wire connection: the client sends a request frame and digests
   the exact payload bytes of the answer, without decoding rows *)
type conn = { fd : Unix.file_descr; sid : int; mutable next_id : int }

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  match Option.map Wire.greeting_of_string (Wire.read_frame fd) with
  | Some (Ok sid) -> { fd; sid; next_id = 1 }
  | _ -> failwith "server refused the connection"

(* One connection's responses in program order: client latency and
   payload digest (16 zero bytes for an error response).  Kept off the
   OCaml heap, so peak_heap_mb measures the program and not how many
   samples the client holds; the requests themselves are regenerated
   from the seed when the log is read back. *)
module Log = struct
  open Bigarray

  type t = {
    mutable lat : (int, int_elt, c_layout) Array1.t;
    mutable dig : (char, int8_unsigned_elt, c_layout) Array1.t;
    mutable len : int;
  }

  let create cap =
    { lat = Array1.create int c_layout cap;
      dig = Array1.create char c_layout (16 * cap); len = 0 }

  let grow t =
    let cap = 2 * Array1.dim t.lat in
    let lat = Array1.create int c_layout cap in
    let dig = Array1.create char c_layout (16 * cap) in
    Array1.blit t.lat (Array1.sub lat 0 (Array1.dim t.lat));
    Array1.blit t.dig (Array1.sub dig 0 (Array1.dim t.dig));
    t.lat <- lat;
    t.dig <- dig

  let add t ~lat_ns ~digest =
    if t.len = Array1.dim t.lat then grow t;
    t.lat.{t.len} <- lat_ns;
    for j = 0 to 15 do
      t.dig.{(16 * t.len) + j} <- (if digest = "" then '\000' else digest.[j])
    done;
    t.len <- t.len + 1

  let lat t i = t.lat.{i}

  let digest t i =
    let d = String.init 16 (fun j -> t.dig.{(16 * i) + j}) in
    if d = String.make 16 '\000' then "" else d
end

let call c log (r : req) =
  let id = c.next_id in
  c.next_id <- id + 1;
  let frame = Json.to_string (Wire.request_to_json (Wire.request ~id r.text)) in
  let t0 = now_ns () in
  Wire.write_frame c.fd frame;
  let rsp = Wire.read_frame c.fd in
  let t1 = now_ns () in
  let digest =
    match Option.bind rsp Wire.ok_frame_payload with
    | Some payload -> Digest.string payload
    | None -> ""
  in
  Log.add log ~lat_ns:(t1 - t0) ~digest

(* every connection on its own thread, closed loop, until [stop i n]
   holds for connection [i] after [n] requests; returns the wall time.  A
   connection that breaks logs one failed response and stops. *)
let run_clients conns streams logs ~stop =
  let ends = Array.make (Array.length conns) 0 in
  let t0 = now_ns () in
  let worker i () =
    let n = ref 0 in
    (try
       while not (stop i !n) do
         call conns.(i) logs.(i) (next_req streams.(i));
         incr n
       done
     with e ->
       Log.add logs.(i) ~lat_ns:0 ~digest:"";
       log "connection %d: %s" i (Printexc.to_string e));
    ends.(i) <- now_ns ()
  in
  let threads = Array.mapi (fun i _ -> Thread.create (worker i) ()) conns in
  Array.iter Thread.join threads;
  Array.fold_left max t0 ends - t0

type serve_inst = {
  srv : Server.t;
  mw : M.t;
  conns : conn array;
  streams : stream array;
  logs : Log.t array;
}

let serve_setup ~dml ~seed ~recorder () =
  let db = W.generate (serve_config seed) in
  let mw = M.create ~db () in
  let srv = Server.start ~config:{ Server.default_config with port = 0 } ~recorder mw in
  let conns = Array.init clients (fun _ -> connect (Server.port srv)) in
  let streams = Array.init clients (fun conn -> make_stream ~dml ~seed ~conn) in
  let logs = Array.init clients (fun _ -> Log.create (1 lsl 18)) in
  ignore (run_clients conns streams logs ~stop:(fun i n -> n >= streams.(i).warm_n));
  { srv; mw; conns; streams; logs }

let serve_teardown inst =
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) inst.conns;
  Server.stop inst.srv

(* a response as the client saw it, with the request regenerated *)
type sample = {
  s_req : req;
  s_rid : int;  (* wire request id: position in the connection's stream *)
  s_lat_ns : int;
  s_digest : string;  (* "" for an error response *)
}

let samples_of_log ~dml ~seed conn (log : Log.t) : sample list =
  let s = make_stream ~dml ~seed ~conn in
  List.init log.Log.len (fun i ->
      { s_req = next_req s; s_rid = i + 1; s_lat_ns = Log.lat log i;
        s_digest = Log.digest log i })

(* The oracle replays each connection's stream in order against one
   middleware — row engine, index off, prune off, no server, no cache —
   over a catalog generated from the same seed.  A connection reads and
   writes only its own employees, so its answers depend only on its own
   stream.  A read's answer is memoized on its text and on the number of
   writes its employee has seen (titles are never written). *)
let serve_failures ~seed (per_conn : sample list array) =
  let db = W.generate (serve_config seed) in
  log_catalog "employee" db;
  let o = M.create ~db ~index:false ~prune:false ~engine:M.Row () in
  let memo = Hashtbl.create 4096 and gens = Hashtbl.create 1024 in
  let gen k = Option.value ~default:0 (Hashtbl.find_opt gens k) in
  let expected (s : sample) =
    let r = s.s_req in
    if is_write r.kind then begin
      Hashtbl.replace gens r.emp (gen r.emp + 1);
      oracle_digest r.text (fun () -> M.execute o r.text)
    end
    else
      let key = (r.text, if r.kind = Salary then gen r.emp else 0) in
      match Hashtbl.find_opt memo key with
      | Some d -> d
      | None ->
          let d =
            oracle_digest r.text (fun () -> M.Rows (M.run_prepared o (M.prepare o r.text)))
          in
          Hashtbl.replace memo key d;
          d
  in
  Array.fold_left
    (fun acc samples ->
      List.fold_left
        (fun acc s -> if s.s_digest = expected s then acc else acc + 1)
        acc samples)
    0 per_conn

type sresult = {
  timed : sample list array;  (* per connection, after the warm-up *)
  sids : int array;  (* server session id of each connection *)
  wall_ns : int;
  checked : int;
  failed : int;
}

(* set-up plus one timed phase; every response, warm-up included, is
   checked once the peak heap has been read *)
let serve_phase ~dml ~seed ~seconds ~recorder ~repeat ~on_timed =
  let setup = serve_setup ~dml ~seed ~recorder in
  let setup_s, inst =
    if repeat then repeat_setup ~setup ~teardown:serve_teardown
    else (0.0, setup ())
  in
  Gc.full_major ();
  let before = on_timed inst in
  (* about a tenth (point-lookup) and a fifth (dml-mixed) of what a 20 s
     phase completes *)
  let next, heap = timed_phase ~seconds ~min_requests:(if dml then 2_500 else 25_000) in
  let wall_ns =
    run_clients inst.conns inst.streams inst.logs ~stop:(fun _ _ -> not (next ()))
  in
  let after = on_timed inst in
  let heap = heap () in
  serve_teardown inst;
  let all = Array.mapi (samples_of_log ~dml ~seed) inst.logs in
  let timed =
    Array.mapi (fun c l -> List.filteri (fun i _ -> i >= inst.streams.(c).warm_n) l) all
  in
  let checked = Array.fold_left (fun acc l -> acc + List.length l) 0 all in
  let failed = serve_failures ~seed all in
  let sids = Array.map (fun c -> c.sid) inst.conns in
  (setup_s, heap, { timed; sids; wall_ns; checked; failed }, before, after)

let timed_samples r = List.concat (Array.to_list r.timed)
let serve_throughput r =
  float_of_int (List.length (timed_samples r)) /. (float_of_int r.wall_ns /. 1e9)

let kinds_of ~dml =
  if dml then [ Salary; Title; Insert; Update; Delete ]
  else [ Salary; Title; Agg; Diff ]

(* state read around the timed phase of a traced run *)
type probe = { p_phases : phases; p_idx : Idx.snapshot; p_cache : Cache.stats }

let probe inst =
  { p_phases = phases_add phases_zero (M.totals inst.mw); p_idx = Idx.snapshot ();
    p_cache = Server.cache_stats inst.srv }

let serve ~dml ~seed ~seconds ~traced =
  let name = if dml then "dml-mixed" else "point-lookup" in
  let setup_s, heap, r, (), () =
    serve_phase ~dml ~seed ~seconds ~recorder:Record.disabled ~repeat:true
      ~on_timed:ignore
  in
  let samples = timed_samples r in
  let reads = List.filter (fun s -> not (is_write s.s_req.kind)) samples in
  let writes = List.filter (fun s -> is_write s.s_req.kind) samples in
  log "%s: %d timed requests (%d writes), %d checked, %d failed, setup %.3fs"
    name (List.length samples) (List.length writes) r.checked r.failed setup_s;
  let lat_ms l = List.map (fun s -> ms_of_ns s.s_lat_ns) l in
  if not traced then begin
    let medians =
      List.map
        (fun k ->
          match List.filter (fun s -> s.s_req.kind = k) samples with
          | [] -> failwith ("no samples for " ^ kind_name k)
          | l -> Stats.median (lat_ms l))
        (kinds_of ~dml)
    in
    print_end_to_end ~name ~correct:(r.failed = 0) ~attempted:r.checked
      ~failed:r.failed ~setup_s ~throughput:(serve_throughput r)
      ~read_ms:(lat_ms reads) ~medians ~heap_mb:heap
  end
  else begin
    (* the traced phase: a flight-recorder Fn sink from a fresh set-up *)
    let entries = Hashtbl.create 65536 and lock = Mutex.create () in
    let sink json =
      match Record.entry_of_json json with
      | e ->
          Mutex.lock lock;
          Hashtbl.replace entries (e.Record.e_session, e.Record.e_req_id) e;
          Mutex.unlock lock
      | exception Record.Format_error _ -> ()  (* the header line *)
    in
    let recorder = Record.create (Record.Fn sink) in
    let _, _, rt, a, b =
      serve_phase ~dml ~seed ~seconds ~recorder ~repeat:false ~on_timed:probe
    in
    Record.close recorder;
    (* join client samples with the server's records of the same requests *)
    let joined =
      List.concat
        (Array.to_list
           (Array.mapi
              (fun i l ->
                List.filter_map
                  (fun s ->
                    Option.map (fun e -> (s, e))
                      (Hashtbl.find_opt entries (rt.sids.(i), s.s_rid)))
                  l)
              rt.timed))
    in
    let n = List.length (timed_samples rt) in
    if List.length joined <> n then
      log "%s: %d of %d requests have no flight record" name
        (n - List.length joined) n;
    let es = List.map snd joined in
    let disp d = List.filter (fun e -> e.Record.e_disposition = d) es in
    let hits = disp "hit" and misses = disp "miss" and stmts = disp "bypass" in
    let us f l = List.map (fun e -> float_of_int (f e)) l in
    let exec = us (fun e -> e.Record.e_exec_us) in
    let words l = Stats.mean (us (fun e -> e.Record.e_gc_minor_w) l) in
    let n_writes =
      List.length (List.filter (fun s -> is_write s.s_req.kind) (timed_samples rt))
    in
    let rows_out = List.fold_left (fun acc e -> acc + e.Record.e_rows_out) 0 misses in
    let dc f = float_of_int (f b.p_cache - f a.p_cache) in
    let lookups = dc (fun c -> c.Cache.hits) +. dc (fun c -> c.Cache.misses) in
    let queue = us (fun e -> e.Record.e_queue_us) es in
    let wire =
      List.map
        (fun (s, e) -> us_of_ns s.s_lat_ns -. float_of_int e.Record.e_total_us)
        joined
    in
    let write_ms = lat_ms writes in
    print_per_layer
      ~correct:(r.failed = 0 && rt.failed = 0)
      ~attempted:(r.checked + rt.checked) ~failed:(r.failed + rt.failed)
      (phase_metrics (phases_sub b.p_phases a.p_phases) ~requests:n
      @ idx_metrics a.p_idx b.p_idx ~requests:n ~rows_out ~writes:n_writes
      @ [ ("serve.cache_hit_rate", Stats.ratio (dc (fun c -> c.Cache.hits)) lookups);
          layer_pct ~name:"serve.exec_us.hit.p50" ~pct:50 (exec hits);
          layer_pct ~name:"serve.wire_us.p50" ~pct:50 wire;
          layer_pct ~name:"serve.queue_us.p50" ~pct:50 queue;
          layer_pct ~name:"serve.queue_us.p99" ~pct:99 queue;
          ("serve.minor_words.hit", words hits);
          layer_pct ~name:"serve.exec_us.miss.p50" ~pct:50 (exec misses);
          layer_pct ~name:"serve.exec_us.miss.p99" ~pct:99 (exec misses);
          ("serve.minor_words.miss", words misses);
          ( "serve.cache_invalidations_per_write",
            Stats.ratio (dc (fun c -> c.Cache.invalidations)) (float_of_int n_writes) );
          ("serve.cache_evictions", dc (fun c -> c.Cache.evictions));
          layer_pct ~name:"serve.write_exec_us.p50" ~pct:50 (exec stmts);
          layer_pct ~name:"client.write_p50_ms" ~pct:50 write_ms;
          layer_pct ~name:"client.write_p99_ms" ~pct:99 write_ms;
          ("obs.trace_overhead_x", serve_throughput r /. serve_throughput rt) ])
  end

(* ---- entry point ---- *)

let usage () =
  prerr_endline
    "usage: bench --workload analytics|point-lookup|dml-mixed --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let rec parse acc = function
    | ("--workload" | "--seed" | "--seconds" | "--trace") as k :: v :: rest ->
        parse ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "--workload" and seed = int "--seed" in
  let seconds = float_of_int (int "--seconds") in
  let traced = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  try
    match workload with
    | "analytics" -> analytics ~seed ~seconds ~traced
    | "point-lookup" -> serve ~dml:false ~seed ~seconds ~traced
    | "dml-mixed" -> serve ~dml:true ~seed ~seconds ~traced
    | _ -> usage ()
  with e ->
    log "bench: %s" (Printexc.to_string e);
    exit 1
