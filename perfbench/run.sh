#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the
# arguments given, e.g.
#
#   bash perfbench/run.sh --workload tri-bulk --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache
# and the span files stay under $CARGO_TARGET_DIR (default
# .bench_build) in the current directory.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp"
# The Go tool keeps its caches, temporary files, settings and telemetry
# counters in here too, and never reaches for the network: the build
# needs no download.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOSUMDB=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
