#!/usr/bin/env bash
# Build the benchmark from source and run one workload:
#
#   bash perfbench/run.sh --workload analytics|point-lookup|dml-mixed \
#     --seed N --seconds S --trace 0|1
#
# Run it from the root of a checkout.  Build output goes to standard
# error; the last line of standard output is the JSON result.
#
# The run is pinned to one CPU when taskset is available: the program
# handles every request in one OCaml domain, so a second CPU adds no
# parallelism, only cross-CPU thread wake-ups whose cost depends on the
# host's scheduler rather than on the program (on a 2-vCPU VM, unpinned
# runs were 2-4x slower and swung 2x between identical runs).  The pin
# also means the benchmark cannot show a gain from serving on several
# domains; see cpu_pin in provenance.json.
set -euo pipefail

cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: not a checkout of the repository (no dune-project or lib/)" >&2
  exit 2
fi

# the OCaml toolchain: dune on PATH, else the current opam switch
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env --readonly 2>/dev/null)" || true
fi
export DUNE_CACHE=disabled
dune build --root . ./perfbench/bench.exe 1>&2

bin=./_build/default/perfbench/bench.exe
# the last CPU this process may run on
cpu=$(grep Cpus_allowed_list /proc/self/status 2>/dev/null | sed 's/.*[,-]//; s/[^0-9]//g' || true)
if [ -n "$cpu" ] && taskset -c "$cpu" true 2>/dev/null; then
  exec taskset -c "$cpu" "$bin" "$@"
fi
echo "perfbench: cannot pin to one CPU (taskset), running unpinned" >&2
exec "$bin" "$@"
