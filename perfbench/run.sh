#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs one workload:
#
#   bash perfbench/run.sh --workload io-overlap --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Every build and run artefact goes
# under .bench_build/perfbench in that directory. See perfbench/README.md.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --root "$root" "$@"
