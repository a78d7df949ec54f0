#!/usr/bin/env bash
# Chaos smoke: run a seeded churn campaign (every scenario carrying a
# fault plan: link flaps, flap storms, partitions, node restarts, policy
# changes) under the race detector, and assert that (a) the campaign
# classifies clean — exit 0 means zero divergences/mismatches and no
# timeouts/errors — (b) faults were actually injected, read from
# fsr_simnet_faults_injected_total on the campaign's metrics listener
# (with the report's own "faults injected" summary line as the backstop
# should the campaign outrun the scrape), and (c) simulated runs converged,
# read from the count of the fsr_simnet_convergence_seconds histogram on
# the same listener (no backstop: the report has no such line).
# Usage: hack/chaos_smoke.sh [port]
set -euo pipefail
cd "$(dirname "$0")/.."

addr="127.0.0.1:${1:-8093}"
tmp="$(mktemp -d)"
bin="$tmp/fsr"
out="$tmp/campaign.out"
go build -race -o "$bin" ./cmd/fsr

"$bin" campaign -churn -count 600 -seed 1 -deadline 5m \
    -metrics-addr "$addr" -quiet >"$out" 2>&1 &
pid=$!
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT

# Scrape the injection counter and the convergence histogram's count
# mid-flight; the campaign keeps running.
scraped=0
converged=0
while kill -0 "$pid" 2>/dev/null; do
    metrics="$(curl -fsS "http://$addr/metrics" 2>/dev/null || true)"
    if awk '$1 == "fsr_simnet_convergence_seconds_count" && $2 > 0 {found=1} END {exit !found}' <<<"$metrics"; then
        converged=1
    fi
    if awk '$1 == "fsr_simnet_faults_injected_total" && $2 > 0 {found=1} END {exit !found}' <<<"$metrics"; then
        scraped=1
    fi
    if [ "$scraped" -eq 1 ] && [ "$converged" -eq 1 ]; then
        break
    fi
    sleep 0.2
done

# Exit 0 is the whole contract: 1 would be a divergence/mismatch, 2 a
# timeout, error, or tool failure.
wait "$pid"

cat "$out"
if [ "$scraped" -ne 1 ]; then
    grep -Eq 'faults injected: [1-9]' "$out" || {
        echo "chaos smoke: no faults injected (neither scraped nor reported)" >&2
        exit 1
    }
fi
if [ "$converged" -ne 1 ]; then
    echo "chaos smoke: fsr_simnet_convergence_seconds_count never scraped above 0" >&2
    exit 1
fi
echo "chaos smoke OK (metrics scraped mid-flight: $scraped)"
