#!/usr/bin/env sh
# bench_smoke.sh — short seq-vs-par benchmark sanity check under the race
# detector.
#
# Builds cmd/nbody-bench with -race and runs one two-step N=2048 fig5
# pass over the tree algorithms. This is a correctness gate, not a
# performance one: it drives the interaction-list kernels and the
# tree-reuse machinery through the real harness with the race detector
# watching, and asserts only that every expected row comes back with a
# positive throughput (race builds are ~10-20x slower, so speedups are
# meaningless here and not checked).
#
# Usage: ./scripts/bench_smoke.sh  (or: make bench-smoke)
set -eu

cd "$(dirname "$0")/.."

N=2048
STEPS=2
ALGS=octree,bvh
SEED=42

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT INT TERM

go build -race -o "$WORK/nbody-bench" ./cmd/nbody-bench

echo "bench-smoke: fig5 n=$N (race)"
"$WORK/nbody-bench" fig5 \
    -n "$N" -steps "$STEPS" -repeats 1 -workers 2 -seed "$SEED" \
    -algs "$ALGS" -csv >"$WORK/fig5.csv"

# Every algorithm must produce a seq and a par row with bodies/s > 0.
awk 'BEGIN { FS = "," }
!header && $1 == "algorithm" { header = 1; next }
header && ($2 == "seq" || $2 == "par") {
    if ($3 + 0 <= 0) {
        printf "bench-smoke: %s/%s: non-positive throughput %s\n", $1, $2, $3 > "/dev/stderr"
        bad = 1
    }
    rows++
}
END {
    if (rows != 4) {
        printf "bench-smoke: got %d rows, want 4 (octree+bvh x seq+par)\n", rows > "/dev/stderr"
        bad = 1
    }
    exit bad
}' "$WORK/fig5.csv"

# Adaptive tree reuse under race: the refit/rebuild equivalence and golden
# accuracy tests drive the refit kernels and drift bookkeeping with the
# race detector watching.
echo "bench-smoke: tree-reuse + golden accuracy (race)"
go test -race -run 'TestRefitMatchesRebuild|TestRefitFallsBackOnFastBodies|TestGoldenL2SolarValidation' ./internal/core/

echo "bench-smoke: OK"
