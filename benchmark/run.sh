#!/usr/bin/env bash
# Build chc_bench and the daemon from source, then run the benchmark:
#   bash benchmark/run.sh --workload mix-steady --seed 11 --seconds 15 --trace 0
# Run from the repository root. Build output goes to stderr so the last
# line of standard output stays the benchmark's JSON result.
set -euo pipefail
dune build --root . ./benchmark/chc_bench.exe ./bin/chc_serve.exe 1>&2
exec ./_build/default/benchmark/chc_bench.exe \
  --daemon ./_build/default/bin/chc_serve.exe "$@"
