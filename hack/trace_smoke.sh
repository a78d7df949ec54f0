#!/usr/bin/env bash
# Smoke test for the campaign observability surface, in two stages:
#  1. a long-running campaign with -metrics-addr, scraped live — the
#     campaign and solver counters must move and /debug/pprof/ must answer;
#  2. a short campaign with -trace-out, validated as Chrome trace-event
#     JSON covering the generate → analyze → simulate pipeline.
# Usage: hack/trace_smoke.sh [port]
set -euo pipefail
cd "$(dirname "$0")/.."

addr="127.0.0.1:${1:-8093}"
base="http://$addr"
tmp="$(mktemp -d)"
bin="$tmp/fsr"
go build -o "$bin" ./cmd/fsr

# Stage 1: scrape a campaign mid-flight. The count is far larger than the
# scrape needs; the campaign is killed once the assertions pass.
"$bin" campaign -count 100000 -quiet -metrics-addr "$addr" &
pid=$!
trap 'kill "$pid" 2>/dev/null || true; wait "$pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT

scraped=""
for _ in $(seq 1 100); do
    if scraped="$(curl -fsS "$base/metrics" 2>/dev/null)"; then
        done="$(echo "$scraped" | awk '$1 == "fsr_campaign_scenarios_completed_total" {print $2}')"
        [ "${done:-0}" -gt 0 ] && break
    fi
    sleep 0.1
done
done="$(echo "$scraped" | awk '$1 == "fsr_campaign_scenarios_completed_total" {print $2}')"
probes="$(echo "$scraped" | awk '$1 == "fsr_smt_probes_total" {print $2}')"
[ "${done:-0}" -gt 0 ] || { echo "FAIL: fsr_campaign_scenarios_completed_total=$done, want > 0" >&2; exit 1; }
[ "${probes:-0}" -gt 0 ] || { echo "FAIL: fsr_smt_probes_total=$probes, want > 0" >&2; exit 1; }
echo "$scraped" | grep -q '^fsr_campaign_scenarios_total{outcome=' \
    || { echo "FAIL: no per-outcome campaign series on /metrics" >&2; exit 1; }

# The same listener serves Go profiling: grab a real 1 s CPU profile of
# the running campaign, the go-tool-pprof workflow end to end.
curl -fsS "$base/debug/pprof/cmdline" >/dev/null \
    || { echo "FAIL: /debug/pprof/cmdline not served on -metrics-addr" >&2; exit 1; }
curl -fsS "$base/debug/pprof/profile?seconds=1" -o "$tmp/cpu.pb.gz" \
    || { echo "FAIL: CPU profile fetch failed" >&2; exit 1; }
[ -s "$tmp/cpu.pb.gz" ] || { echo "FAIL: empty CPU profile" >&2; exit 1; }

kill "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true

# Stage 2: a short traced campaign; the trace must be loadable trace-event
# JSON containing every pipeline stage.
"$bin" campaign -count 16 -quiet -trace-out "$tmp/trace.json"
go run ./hack/tracecheck "$tmp/trace.json" scenario generate analyze shard-prep dense-emit solve-dense simulate

# Stage 3: a shrinking campaign (the divergent fixture guarantees findings)
# must additionally record shrink spans. Exit 1 is the expected "finding"
# status, so tolerate it explicitly under set -e.
"$bin" campaign -kinds divergent-fixture -count 2 -shrink -quiet \
    -trace-out "$tmp/shrink.json" >/dev/null || [ "$?" -eq 1 ]
go run ./hack/tracecheck "$tmp/shrink.json" scenario generate analyze simulate shrink

echo "trace smoke OK: scraped done=$done smt_probes=$probes mid-flight"
