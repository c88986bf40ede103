#!/usr/bin/env bash
# run.sh builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments, for example:
#
#   bash bench/run.sh --workload warehouse-serial --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (the Go build cache and the binary) stays in
# .bench_build at the root of the checkout. The build fails, and no result is
# printed, when the simulator's sources are not next to bench/.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$out/baat-bench" .)
exec "$out/baat-bench" "$@"
