#!/usr/bin/env sh
# loadgen_smoke.sh — end-to-end load-generator smoke test.
#
# Boots the real nbody-serve binary, drives ~5 seconds of mixed
# session-step / job-submit / watch traffic through cmd/nbody-loadgen (and
# therefore through the client SDK), and fails on any server 5xx. The JSON
# report with client-side p50/p95/p99 latency and shed rate per traffic
# class is printed and sanity-checked: the accounting identity
# sent >= ok + shed + failed must hold for the totals row.
set -eu

cd "$(dirname "$0")/.."

PORT="${NBODY_SMOKE_PORT:-18082}"
BASE="http://127.0.0.1:$PORT"
WORK="$(mktemp -d)"
SERVE="$WORK/nbody-serve"
LOADGEN="$WORK/nbody-loadgen"
LOG="$WORK/serve.log"
REPORT="$WORK/report.json"

cleanup() {
    [ -n "${SRV_PID:-}" ] && kill "$SRV_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

go build -o "$SERVE" ./cmd/nbody-serve
go build -o "$LOADGEN" ./cmd/nbody-loadgen

"$SERVE" -addr "127.0.0.1:$PORT" -log-format=json \
    -state-dir "$WORK/state" -job-workers 2 >"$LOG" 2>&1 &
SRV_PID=$!

# 5s of mixed traffic; -strict-5xx makes any server 5xx fail the script,
# -wait-ready covers the boot race.
"$LOADGEN" -addr "$BASE" -wait-ready 10s -strict-5xx \
    -rps 40 -duration 5s -workers 32 -sessions 6 \
    -mix 'step=8,job=1,watch=1' \
    -n 256 -step-batch 5 -watch-steps 10 -watch-every 5 \
    -job-steps 50 -job-class low -seed 1 \
    -out "$REPORT" || {
    echo "loadgen-smoke: load generator failed; server log:" >&2
    tail -20 "$LOG" >&2
    exit 1
}

# The report must carry the totals accounting identity and real latency
# quantiles for the step class.
for key in '"p50_ms"' '"p95_ms"' '"p99_ms"' '"shed_rate"' '"server_5xx"'; do
    grep -q "$key" "$REPORT" || {
        echo "loadgen-smoke: report lacks $key" >&2
        cat "$REPORT" >&2
        exit 1
    }
done

# sent >= ok + shed + failed + contention over the totals row (awk pulls
# the totals object, the last occurrence of each counter in the document).
awk '
/"sent":/       { gsub(/[^0-9]/, "", $0); sent = $0 }
/"ok":/         { gsub(/[^0-9]/, "", $0); ok = $0 }
/"shed":/       { gsub(/[^0-9]/, "", $0); shed = $0 }
/"failed":/     { gsub(/[^0-9]/, "", $0); failed = $0 }
/"contention":/ { gsub(/[^0-9]/, "", $0); contention = $0 }
END {
    if (sent == "" || contention == "" || sent + 0 < ok + shed + failed + contention) {
        printf "loadgen-smoke: accounting broken: sent=%s ok=%s shed=%s failed=%s contention=%s\n", \
            sent, ok, shed, failed, contention > "/dev/stderr"
        exit 1
    }
}' "$REPORT"

echo "loadgen-smoke: ok ($(grep -o '"sent"[^,]*' "$REPORT" | tail -1 | tr -dc 0-9) requests in totals, no 5xx)"
