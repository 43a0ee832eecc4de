(** Export a stored benchmark report to external tooling. *)

val to_openmetrics : Bench_result.report -> string
(** The report as one OpenMetrics document:
    [tkr_bench_wall_ns_per_run{suite,test}], [tkr_bench_runs],
    [tkr_bench_counter{...,counter}] gauges and a [tkr_bench_env_info]
    metadata gauge, terminated by [# EOF]. *)

val to_folded : Bench_result.report -> string
(** Stored operator traces as flamegraph-compatible folded stacks
    ([query;operator;... <self-ns>] lines); empty when the report has no
    [operator_traces]. *)
