#!/usr/bin/env sh
# bench_baseline.sh — committed performance baseline.
#
# Runs cmd/nbody-bench fig5 (sequential vs parallel throughput per
# algorithm) on a pinned small configuration plus a pinned large-N tree
# configuration, and rewrites BENCH_serve.json at the repository root. The
# file is committed so a later PR can diff its own numbers against the
# last recorded baseline on comparable hardware; the small config is
# deliberately tiny so the whole run stays under a minute on a laptop.
#
# The script also gates on parallel speedup: any `par` row whose speedup
# over its `seq` sibling falls below 1.0x fails the run, so a parallelism
# regression cannot be silently committed into the baseline. Below 4
# cores the comparison is meaningless (the par rows share one or two
# cores with the harness itself), so the gate auto-records as `skipped`
# instead of requiring a hand override. On bigger machines that are
# heavily shared, pass --allow-par-regression or set
# ALLOW_PAR_REGRESSION=1; the override is recorded in the output.
#
# Usage: ./scripts/bench_baseline.sh [--allow-par-regression]
#        (or: make bench-baseline)
set -eu

cd "$(dirname "$0")/.."

ALLOW="${ALLOW_PAR_REGRESSION:-0}"
for arg in "$@"; do
    case "$arg" in
    --allow-par-regression) ALLOW=1 ;;
    *)
        echo "bench-baseline: unknown argument $arg" >&2
        echo "usage: $0 [--allow-par-regression]" >&2
        exit 2
        ;;
    esac
done

# Pinned configuration — change it only deliberately, in its own commit,
# because every future comparison assumes these values.
N=2048
STEPS=5
REPEATS=2
WORKERS=2
SEED=42
# Large-N tree section: the interaction-list kernels' target regime. The
# O(N²) baselines are excluded to keep the runtime bounded.
N_LARGE=100000
STEPS_LARGE=2
REPEATS_LARGE=1
ALGS_LARGE=octree,bvh
OUT=BENCH_serve.json

CSV="$(mktemp)"
CSV_LARGE="$(mktemp)"
trap 'rm -f "$CSV" "$CSV_LARGE"' EXIT INT TERM

go run ./cmd/nbody-bench fig5 \
    -n "$N" -steps "$STEPS" -repeats "$REPEATS" -workers "$WORKERS" -seed "$SEED" \
    -csv >"$CSV"

go run ./cmd/nbody-bench fig5 \
    -n "$N_LARGE" -steps "$STEPS_LARGE" -repeats "$REPEATS_LARGE" \
    -workers "$WORKERS" -seed "$SEED" -algs "$ALGS_LARGE" \
    -csv >"$CSV_LARGE"

# Seq-vs-par comparison and speedup gate over both sections. The fig5 CSV
# carries the ratio in its `speedup` column; par rows must not fall below
# 1.0x their seq sibling.
CORES="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
gate_status=pass
for f in "$CSV" "$CSV_LARGE"; do
    awk 'BEGIN { FS = "," }
    !header && $1 == "algorithm" { header = 1; next }
    header && $2 == "seq" { seq[$1] = $3 }
    header && $2 == "par" {
        printf "bench-baseline: %-14s seq=%.0f par=%.0f bodies/s  speedup=%.3fx\n", $1, seq[$1], $3, $5
        if ($5 + 0 < 1.0) { bad = 1 }
    }
    END { exit bad }' "$f" || gate_status=fail
done
if [ "$CORES" -lt 4 ]; then
    # Too few cores for the seq-vs-par comparison to mean anything:
    # record the gate as skipped rather than failing or demanding a
    # hand override.
    gate_status=skipped
    echo "bench-baseline: $CORES core(s) < 4, speedup gate skipped" >&2
elif [ "$gate_status" = fail ]; then
    if [ "$ALLOW" = 1 ]; then
        gate_status=overridden
        echo "bench-baseline: WARNING: par speedup < 1.0x, continuing (--allow-par-regression)" >&2
    else
        echo "bench-baseline: FAIL: par speedup < 1.0x for at least one algorithm" >&2
        echo "bench-baseline: rerun with --allow-par-regression to record anyway" >&2
        exit 1
    fi
fi

# Convert a benchmark CSV (header row + data rows) into a JSON row array
# on stdout.
csv_rows() {
    awk '
    BEGIN { FS = "," }
    # Skip anything before the CSV header (the experiment banner line).
    !header && $1 == "algorithm" {
        header = 1
        for (i = 1; i <= NF; i++) keys[i] = $i
        next
    }
    header && NF > 1 {
        row = ""
        for (i = 1; i <= NF; i++) {
            k = keys[i]
            gsub(/[^a-zA-Z0-9]+/, "_", k)  # "bodies/s" -> "bodies_s"
            v = $i
            if (v ~ /^-?[0-9.eE+]+$/) row = row sprintf("\"%s\":%s,", k, v)
            else row = row sprintf("\"%s\":\"%s\",", k, v)
        }
        sub(/,$/, "", row)
        rows[++nrows] = "    {" row "}"
    }
    END {
        if (nrows == 0) { print "bench-baseline: no CSV rows parsed" > "/dev/stderr"; exit 1 }
        for (i = 1; i <= nrows; i++) printf "%s%s\n", rows[i], (i < nrows ? "," : "")
    }' "$1"
}

{
    printf '{\n'
    printf '  "benchmark": "fig5",\n'
    printf '  "generated": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "go": "%s",\n' "$(go env GOVERSION)"
    printf '  "speedup_gate": "%s",\n' "$gate_status"
    printf '  "cores": %s,\n' "$CORES"
    printf '  "config": {"n": %d, "steps": %d, "repeats": %d, "workers": %d, "seed": %d},\n' \
        "$N" "$STEPS" "$REPEATS" "$WORKERS" "$SEED"
    printf '  "rows": [\n'
    csv_rows "$CSV"
    printf '  ],\n'
    printf '  "config_large": {"n": %d, "steps": %d, "repeats": %d, "workers": %d, "seed": %d, "algs": "%s"},\n' \
        "$N_LARGE" "$STEPS_LARGE" "$REPEATS_LARGE" "$WORKERS" "$SEED" "$ALGS_LARGE"
    printf '  "rows_large": [\n'
    csv_rows "$CSV_LARGE"
    printf '  ]\n}\n'
} >"$OUT"

# Service-level rows: boot the real server and drive a short mixed load
# through cmd/nbody-loadgen (via the client SDK), then splice the report
# into the baseline as a "service" section so the committed file also
# tracks client-observed latency quantiles and shed rate per traffic
# class. The loadgen config is pinned for the same reason the fig5 one is.
PORT="${NBODY_BENCH_PORT:-18083}"
WORK="$(mktemp -d)"
trap 'rm -f "$CSV" "$CSV_LARGE"; [ -n "${SRV_PID:-}" ] && kill "$SRV_PID" 2>/dev/null; rm -rf "$WORK"' EXIT INT TERM

go build -o "$WORK/nbody-serve" ./cmd/nbody-serve
go build -o "$WORK/nbody-loadgen" ./cmd/nbody-loadgen

"$WORK/nbody-serve" -addr "127.0.0.1:$PORT" -log-format=json \
    -state-dir "$WORK/state" -job-workers 2 >"$WORK/serve.log" 2>&1 &
SRV_PID=$!

"$WORK/nbody-loadgen" -addr "http://127.0.0.1:$PORT" -wait-ready 10s \
    -rps 40 -duration 5s -workers 32 -sessions 6 \
    -mix 'step=8,job=1,watch=1' \
    -n "$N" -dt 0.001 -step-batch "$STEPS" -watch-steps 10 -watch-every 5 \
    -job-steps 50 -job-class low -seed "$SEED" \
    -out "$WORK/service.json" >/dev/null || {
    echo "bench-baseline: loadgen failed; server log:" >&2
    tail -20 "$WORK/serve.log" >&2
    exit 1
}

# Splice: drop the document's closing brace, append the service section.
sed '$d' "$OUT" >"$WORK/bench.tmp"
{
    cat "$WORK/bench.tmp"
    printf '  ,"service":\n'
    sed 's/^/  /' "$WORK/service.json"
    printf '}\n'
} >"$OUT"

# Pipelined stepping section: the same server, step-only traffic over a
# small session pool at the pinned N, once on the whole-step slot path and
# once with config.pipeline=true, so the committed file tracks
# multi-session steps/s for both scheduling modes. The /v1/metrics
# snapshot taken after the pipelined pass is embedded too — its `exec`
# object carries the phase-graph executor's occupancy, per-phase task
# counts and overlap/stall integrals for the run just recorded.
PIPE_SESSIONS=4
PIPE_BATCH=5
PIPE_DURATION=4s

pipeline_pass() { # $1 = report file, rest = extra loadgen flags
    rep="$1"
    shift
    "$WORK/nbody-loadgen" -addr "http://127.0.0.1:$PORT" \
        -rps 30 -duration "$PIPE_DURATION" -workers 16 \
        -sessions "$PIPE_SESSIONS" -mix 'step=1' \
        -n "$N" -dt 0.001 -step-batch "$PIPE_BATCH" -seed "$SEED" \
        "$@" -out "$rep" >/dev/null || {
        echo "bench-baseline: pipeline loadgen failed; server log:" >&2
        tail -20 "$WORK/serve.log" >&2
        exit 1
    }
}

pipeline_pass "$WORK/pipe_off.json"
pipeline_pass "$WORK/pipe_on.json" -pipeline

curl -fsS "http://127.0.0.1:$PORT/v1/metrics" >"$WORK/metrics.json"
curl -fsS "http://127.0.0.1:$PORT/metrics" | grep '^nbody_exec_' >"$WORK/exec_series.txt"

# Client-observed stepping throughput of one report: completed step
# requests x steps per request / duration. The step class is the only one
# in the mix, and Classes precedes Totals in the report, so the first
# "ok" field is the step class's.
steps_per_sec() {
    awk -v batch="$PIPE_BATCH" '
    /"duration_seconds"/ { dur = $2 + 0 }
    !ok && /"ok"/ { gsub(/[^0-9]/, "", $2); ok = $2 + 0 }
    END { if (dur > 0) printf "%.1f", ok * batch / dur; else printf "0" }' "$1"
}

sed '$d' "$OUT" >"$WORK/bench.tmp"
{
    cat "$WORK/bench.tmp"
    printf '  ,"pipeline": {\n'
    printf '    "config": {"n": %d, "sessions": %d, "step_batch": %d, "duration": "%s", "mix": "step=1"},\n' \
        "$N" "$PIPE_SESSIONS" "$PIPE_BATCH" "$PIPE_DURATION"
    printf '    "steps_per_second": {"off": %s, "on": %s},\n' \
        "$(steps_per_sec "$WORK/pipe_off.json")" "$(steps_per_sec "$WORK/pipe_on.json")"
    printf '    "off":\n'
    sed 's/^/    /' "$WORK/pipe_off.json"
    printf '    ,"on":\n'
    sed 's/^/    /' "$WORK/pipe_on.json"
    printf '    ,"metrics_after": %s\n' "$(cat "$WORK/metrics.json")"
    printf '    ,"exporter_series": [\n'
    awk '{ gsub(/\\/, "\\\\"); gsub(/"/, "\\\"")
           printf "%s      \"%s\"", (NR > 1 ? ",\n" : ""), $0 }
         END { printf "\n" }' "$WORK/exec_series.txt"
    printf '    ]\n  }\n}\n'
} >"$OUT"

echo "bench-baseline: wrote $OUT ($(grep -c '"algorithm"' "$OUT") fig5 rows + service + pipeline sections, gate=$gate_status)"
