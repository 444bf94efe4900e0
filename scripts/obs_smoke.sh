#!/usr/bin/env bash
# End-to-end smoke of the observability endpoint: runs benchrepro with
# telemetry serving enabled, waits for the run to complete, and checks
#   - /healthz answers while the process is up,
#   - /metrics matches the committed golden snapshot byte for byte
#     (the snapshot is deterministic: same seed => same bytes, at any -j),
#   - /metrics serves Prometheus text when asked for it,
#   - /debug/pprof and /debug/flight are mounted,
#   - a gpusched flight-recorder dump answers `explain` for its last
#     arrival.
# CI runs this via `make obs-smoke`.
set -euo pipefail

cd "$(dirname "$0")/.."
ADDR="${OBS_SMOKE_ADDR:-127.0.0.1:8377}"
GOLDEN="cmd/benchrepro/testdata/obs_metrics_golden.json"
TMP="$(mktemp -d)"
PID=""
cleanup() {
    if [ -n "$PID" ]; then kill "$PID" 2>/dev/null || true; fi
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/benchrepro" ./cmd/benchrepro
"$TMP/benchrepro" -run table2,fig1 -quick -seed 42 -j 4 -http "$ADDR" \
    >"$TMP/out.log" 2>&1 &
PID=$!

for _ in $(seq 1 100); do
    if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "obs_smoke: benchrepro exited before serving:" >&2
        cat "$TMP/out.log" >&2
        exit 1
    fi
    sleep 0.2
done
curl -sf "http://$ADDR/healthz" | grep -qx "ok"

# The run_complete gauge flips to 1 once every experiment has finished;
# after that the registry no longer changes.
for _ in $(seq 1 300); do
    if curl -sf "http://$ADDR/metrics" | grep -q '"benchrepro_run_complete": 1'; then
        break
    fi
    sleep 0.2
done

curl -sf "http://$ADDR/metrics" >"$TMP/metrics.json"
if ! diff -u "$GOLDEN" "$TMP/metrics.json"; then
    echo "obs_smoke: /metrics diverged from $GOLDEN" >&2
    echo "If the change is intentional, regenerate with:" >&2
    echo "  go run ./cmd/benchrepro -run table2,fig1 -quick -seed 42 -j 4 -metrics-out $GOLDEN" >&2
    exit 1
fi

curl -sf "http://$ADDR/debug/pprof/cmdline" >/dev/null

# Content negotiation: the same registry serves Prometheus text 0.0.4.
curl -sf "http://$ADDR/metrics?format=prometheus" | grep -q '^# TYPE '

# The decision-provenance dump is mounted (empty trail is fine here —
# the batch pipeline records into the registry, not the flight ring).
curl -sf "http://$ADDR/debug/flight" | grep -q '"flight"'

# Decision provenance end to end: plan a fleet with the flight recorder
# on and explain its last arrival from the dump.
go build -o "$TMP/gpusched" ./cmd/gpusched
"$TMP/gpusched" bench-online -fleet 2000x16 -flight-out "$TMP/flight.json" >/dev/null
"$TMP/gpusched" explain -flight "$TMP/flight.json" -seq 1999 >/dev/null

echo "obs_smoke: ok"
