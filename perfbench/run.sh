#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload web-zipf --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, temporary files and the span dumps of
# traced runs all stay under ./.bench_build (or $CARGO_TARGET_DIR when
# set), so a run writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
