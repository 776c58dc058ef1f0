#!/usr/bin/env bash
# Builds the benchmark and the program's server binaries from source in the
# checkout, then runs one workload. Run from the checkout root:
#
#   bash perfbench/run.sh --workload galaxy-1e4-serve --seed 1 --seconds 15 --trace 0
#
# Everything it writes stays under .bench_build/ (Go build cache, binaries,
# per-run logs, state directories and spans) except perfbench/history.jsonl.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
go build -o "$out/bin/" ./cmd/nbody-serve ./cmd/nbody-router >&2
exec "$out/bin/perfbench" -root "$root" "$@"
