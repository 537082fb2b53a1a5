#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on.
# Run from the repository root:
#
#   bash mashperf/run.sh --workload cloud-read --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, the stores and the spans files all live
# under $CARGO_TARGET_DIR (default .bench_build), so nothing is written
# outside the checkout.
set -euo pipefail

root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
mkdir -p "$GOTMPDIR"

(cd "$here" && go build -o "$out/mashperf" .) >&2
exec "$out/mashperf" --workdir "$out/mashperf-work" "$@"
