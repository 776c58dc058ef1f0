#!/usr/bin/env sh
# pipeline_smoke.sh — race-detector gate for pipelined stepping.
#
# Runs the phase-graph executor's own suite, the core-level
# pipelined-vs-synchronous bit-exactness matrix (every algorithm, the
# octree's quadrupole lists, rebuild/cadence/refit paths,
# cancel-and-resume across paths),
# and the serve-level pipeline tests (multi-session overlap stress,
# admission, quarantine, HTTP end to end) — all under -race, so the
# phase tasks of concurrent sessions genuinely interleave on the shared
# executor while the detector watches.
#
# Usage: ./scripts/pipeline_smoke.sh  (or: make pipeline-smoke)
set -eu

cd "$(dirname "$0")/.."

echo "pipeline-smoke: executor suite (race)"
go test -race -count=1 ./internal/exec/

echo "pipeline-smoke: core equivalence + resume (race)"
go test -race -count=1 -run 'TestPipelined|TestCommitted' ./internal/core/

echo "pipeline-smoke: serve overlap + HTTP e2e (race)"
go test -race -count=1 -run 'TestPipelined' ./internal/serve/

echo "pipeline-smoke: OK"
