#!/usr/bin/env bash
# End-to-end smoke for `fsr serve`: start the daemon with the differential
# oracle on, load the Figure 3 gadget, drive the README's repair session
# over HTTP, and assert from /metrics that delta re-verification actually
# ran (fsr_delta_solves_total > 0) with zero oracle mismatches — on the
# gadget, again on a resident internet:2000 instance (committed and
# discarded what-ifs, safe and unsafe), and on an instance whose path names
# collide after sanitization (degraded verifier). Then the
# diagnosis surface: an internet-scale POST /v1/analyze must move the
# condensation counters, the wire form's door rules must hold (trailing
# data → 400, oversize → 413, session-declared rankings analysed), the
# dashboard and flight recorder must serve, a slow op must be retrievable
# with its span tree, fsr top must render a frame, and the daemon's stderr
# must be parseable slog JSON.
# Usage: hack/server_smoke.sh [port]
set -euo pipefail
cd "$(dirname "$0")/.."

addr="127.0.0.1:${1:-8091}"
base="http://$addr"
tmpdir="$(mktemp -d)"
bin="$tmpdir/fsr"
servelog="$tmpdir/serve.log"
go build -o "$bin" ./cmd/fsr

# -slow-op 1ms guarantees the internet-scale analyze below crosses the
# slow threshold, so its span tree lands in the flight recorder.
"$bin" serve -addr "$addr" -check-oracle -pprof -log-format json -slow-op 1ms \
    2>"$servelog" &
pid=$!
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$tmpdir"' EXIT

for _ in $(seq 1 50); do
    curl -fsS "$base/healthz" >/dev/null 2>&1 && break
    sleep 0.1
done
curl -fsS "$base/healthz" | grep -q '"ok":true'

# Load fig3 and confirm the resident verdict: unsafe, reflectors suspected.
curl -fsS -X POST "$base/v1/instances" -d '{"id":"smoke","gadget":"fig3"}' \
    | grep -q '"nodes":6'
curl -fsS -X POST "$base/v1/instances/smoke/verify" | grep -q '"safe":false'

# The paper's repair: prefer the direct routes on a, b, c → safe.
curl -fsS -X POST "$base/v1/instances/smoke/whatif" -d '{
  "ops": [
    {"op":"rerank","node":"a","paths":["a,d,r1","a,b,e,r2"]},
    {"op":"rerank","node":"b","paths":["b,e,r2","b,c,f,r3"]},
    {"op":"rerank","node":"c","paths":["c,f,r3","c,a,d,r1"]}
  ]}' | grep -q '"safe":true'

# A sat-to-sat edit is discharged by the delta path, not a rebuild.
curl -fsS -X POST "$base/v1/instances/smoke/whatif" -d '{
  "ops": [{"op":"rerank","node":"a","paths":["a,d,r1"]}]
}' | grep -q '"mode":"delta"'

metrics="$(curl -fsS "$base/metrics")"
delta="$(echo "$metrics" | awk '$1 == "fsr_delta_solves_total" {print $2}')"
mismatch="$(echo "$metrics" | awk '$1 == "fsr_oracle_mismatches_total" {print $2}')"
resident="$(echo "$metrics" | awk '$1 == "fsr_instances_resident" {print $2}')"
probes="$(echo "$metrics" | awk '$1 == "fsr_smt_probes_total" {print $2}')"

[ "${delta:-0}" -gt 0 ] || { echo "FAIL: fsr_delta_solves_total=$delta, want > 0" >&2; exit 1; }
[ "${mismatch:-1}" -eq 0 ] || { echo "FAIL: fsr_oracle_mismatches_total=$mismatch" >&2; exit 1; }
[ "${resident:-0}" -eq 1 ] || { echo "FAIL: fsr_instances_resident=$resident, want 1" >&2; exit 1; }
# The shared obs registry rides along on the daemon's /metrics: the solver
# introspection counters must have moved during the verifications above.
[ "${probes:-0}" -gt 0 ] || { echo "FAIL: fsr_smt_probes_total=$probes, want > 0" >&2; exit 1; }

# -pprof mounts the Go profiling endpoints on the same listener.
curl -fsS "$base/debug/pprof/cmdline" >/dev/null \
    || { echo "FAIL: /debug/pprof/cmdline not served with -pprof" >&2; exit 1; }

# One-shot analyze at internet scale drives the condensed-solver path; the
# verdict must be safe and the SCC counters must move on the next scrape.
curl -fsS -X POST "$base/v1/analyze" -d '{"gadget":"internet:2000"}' \
    | grep -q '"safe":true'
scc="$(curl -fsS "$base/metrics" | awk '$1 == "fsr_scc_components_total" {print $2}')"
[ "${scc:-0}" -gt 0 ] || { echo "FAIL: fsr_scc_components_total=$scc, want > 0" >&2; exit 1; }

# The differential oracle at internet scale: a resident internet:2000
# instance, verified and then edited by one committed re-rank, with every
# check replayed through the full pipeline (VerifyFull, ~0.1 s at n=5000)
# and compared bit for bit.
curl -fsS -X POST "$base/v1/instances" -d '{"id":"big","gadget":"internet:2000"}' \
    | grep -q '"nodes":2000'
curl -fsS -X POST "$base/v1/instances/big/verify" \
    | jq -e '.safe and .oracle_checked and (.oracle_mismatch | not)' >/dev/null \
    || { echo "FAIL: internet:2000 verify under -check-oracle" >&2; exit 1; }
curl -fsS -X POST "$base/v1/instances/big/whatif" -d '{
  "ops": [{"op":"rerank","node":"as7","paths":["as7,rx_smoke"]}]
}' | jq -e '.safe and .applied == 1 and .oracle_checked and (.oracle_mismatch | not)' >/dev/null \
    || { echo "FAIL: internet:2000 committed re-rank under -check-oracle" >&2; exit 1; }
# A discarded what-if is a transaction rolled back on the resident verifier:
# verdict only (no model), oracle-checked while the edit stands, and the
# resident instance exactly as it was — the next verify is answered from the
# standing result, witness included.
swap='{"op":"rerank","node":"as1002","paths":["as1002,as218,as14,as15,as1999,r1","as1002,as204,as7,as15,as1999,r1"]}'
curl -fsS -X POST "$base/v1/instances/big/whatif" -d "{\"discard\":true,\"ops\":[$swap]}" \
    | jq -e '.safe and .discarded and .oracle_checked and (.oracle_mismatch | not) and (.model | not)' >/dev/null \
    || { echo "FAIL: internet:2000 discarded re-rank" >&2; exit 1; }
full="$(curl -fsS -X POST "$base/v1/instances/big/verify" \
    | jq -e 'if .mode == "cached" and (.model | length > 0) and (.oracle_mismatch | not) then .solver.full_solves else false end')" \
    || { echo "FAIL: verify after a discarded what-if is not the cached verdict with its model" >&2; exit 1; }
# A discarded DISAGREE pair over fresh origin tokens: unsafe, four-constraint
# core decided from the region the edit disturbs — a delta solve, the whole
# list not solved again — and the standing fixed point untouched: the
# discarded tweak after it is a delta solve too.
curl -fsS -X POST "$base/v1/instances/big/whatif" -d '{"discard":true,"ops":[
  {"op":"rerank","node":"as1002","paths":["as1002,as204,rx_b","as1002,rx_a"]},
  {"op":"rerank","node":"as204","paths":["as204,as1002,rx_a","as204,rx_b"]}
]}' | jq -e --argjson full "$full" '(.safe | not) and .discarded and (.core | length == 4) and .suspects == ["as1002","as204"] and (.oracle_mismatch | not)
        and .mode == "delta" and .solver.full_solves == $full' >/dev/null \
    || { echo "FAIL: internet:2000 discarded dispute pair" >&2; exit 1; }
curl -fsS -X POST "$base/v1/instances/big/whatif" -d "{\"discard\":true,\"ops\":[$swap]}" \
    | jq -e '.safe and .mode == "delta" and (.oracle_mismatch | not)' >/dev/null \
    || { echo "FAIL: what-if after a discarded unsafe what-if is not a delta solve" >&2; exit 1; }
metrics="$(curl -fsS "$base/metrics")"
mismatch="$(echo "$metrics" | awk '$1 == "fsr_oracle_mismatches_total" {print $2}')"
rollbacks="$(echo "$metrics" | awk '$1 == "fsr_whatif_rollbacks_total" {print $2}')"
[ "${mismatch:-1}" -eq 0 ] || { echo "FAIL: fsr_oracle_mismatches_total=$mismatch after internet:2000" >&2; exit 1; }
[ "${rollbacks:-0}" -eq 3 ] || { echo "FAIL: fsr_whatif_rollbacks_total=$rollbacks, want 3" >&2; exit 1; }

# Unlucky names: "x.y" and "x_y" sanitize to one solver variable, so the
# resident verifier is degraded and every check is a from-scratch analysis
# by the §IV-B emitter (which suffixes the clash like the algebra pipeline).
# The oracle must still agree, before and after a committed re-rank, and no
# analysis may have been counted on a fallback route.
curl -fsS -X POST "$base/v1/instances" -d '{"id":"clash","instance":{
  "name":"clash","nodes":["n0","n1"],"sessions":[{"a":"n0","b":"n1"}],
  "rank":{"n0":["n0,x.y"],"n1":["n1,x_y","n1,n0,x.y"]}}}' \
    | jq -e '.degraded == true' >/dev/null \
    || { echo "FAIL: x.y/x_y instance not reported degraded" >&2; exit 1; }
curl -fsS -X POST "$base/v1/instances/clash/verify" \
    | jq -e '.safe and .model.x_y_2 and .oracle_checked and (.oracle_mismatch | not)' >/dev/null \
    || { echo "FAIL: degraded verify under -check-oracle" >&2; exit 1; }
curl -fsS -X POST "$base/v1/instances/clash/whatif" -d '{
  "ops": [{"op":"rerank","node":"n1","paths":["n1,n0,x.y","n1,x_y"]}]
}' | jq -e '.safe and .applied == 1 and .oracle_checked and (.oracle_mismatch | not)' >/dev/null \
    || { echo "FAIL: degraded committed re-rank under -check-oracle" >&2; exit 1; }
curl -fsS "$base/v1/instances/clash" | jq -e '.info.degraded == true' >/dev/null \
    || { echo "FAIL: x.y/x_y instance left degraded mode after the re-rank" >&2; exit 1; }
metrics="$(curl -fsS "$base/metrics")"
mismatch="$(echo "$metrics" | awk '$1 == "fsr_oracle_mismatches_total" {print $2}')"
[ "${mismatch:-1}" -eq 0 ] || { echo "FAIL: fsr_oracle_mismatches_total=$mismatch after the name clash" >&2; exit 1; }
echo "$metrics" | grep -q '^fsr_spp_scale_path_total{path="dense"}' \
    || { echo "FAIL: degraded verifies not counted on the emitter's dense route" >&2; exit 1; }
if echo "$metrics" | grep -q '^fsr_spp_scale_path_total{.*fallback'; then
    echo "FAIL: fsr_spp_scale_path_total still has a fallback series" >&2; exit 1
fi

# The wire form at the door: one value per request, a capped body, and the
# rankings of session-declared nodes honoured (b's two paths are the one
# preference constraint; the decoder used to drop them).
[ "$(curl -s -o /dev/null -w '%{http_code}' -X POST "$base/v1/analyze" -d '{"gadget":"fig3"} trailing garbage')" = 400 ] \
    || { echo "FAIL: trailing garbage after the request's value was not a 400" >&2; exit 1; }
[ "$(head -c $((9 << 20)) /dev/zero | tr '\0' ' ' | curl -s -o /dev/null -w '%{http_code}' -X POST "$base/v1/analyze" -H 'Expect:' --data-binary @-)" = 413 ] \
    || { echo "FAIL: a 9 MiB body was not a 413" >&2; exit 1; }
curl -fsS -X POST "$base/v1/analyze" -d '{"instance":{"nodes":["a"],"origins":["o","p"],"sessions":[{"a":"a","b":"b"}],"rank":{"a":["a,o"],"b":["b,a,o","b,p"]}}}' \
    | jq -e '.safe and .nodes == 2 and .num_preference == 1' >/dev/null \
    || { echo "FAIL: a session-declared node's ranking was not analysed" >&2; exit 1; }
mismatch="$(curl -fsS "$base/metrics" | awk '$1 == "fsr_oracle_mismatches_total" {print $2}')"
[ "${mismatch:-1}" -eq 0 ] || { echo "FAIL: fsr_oracle_mismatches_total=$mismatch after the wire-form checks" >&2; exit 1; }

# The diagnosis surface serves: dashboard HTML, flight recorder JSON with
# the analyze recorded, and — because the analyze crossed -slow-op — a slow
# entry carrying its full span tree, the upload's decode span in it,
# retrievable without any re-run.
dash="$(curl -fsS -w '\n%{http_code}' "$base/dashboard")"
[ "$(echo "$dash" | tail -1)" = "200" ] && [ "$(echo "$dash" | wc -c)" -gt 100 ] \
    || { echo "FAIL: /dashboard not serving" >&2; exit 1; }
flight="$(curl -fsS "$base/v1/flightrecorder")"
echo "$flight" | jq -e '.enabled and (.ops | length > 0)' >/dev/null \
    || { echo "FAIL: flight recorder empty: $flight" >&2; exit 1; }
echo "$flight" | jq -e '[.slow[] | select(.kind == "analyze") | .spans[0].children[].name] | index("decode") and index("analyze-spp")' >/dev/null \
    || { echo "FAIL: no slow analyze op with decode and analyze-spp spans in the flight recorder" >&2; exit 1; }
curl -fsS "$base/v1/timeseries" | jq -e '.interval_ms > 0' >/dev/null \
    || { echo "FAIL: /v1/timeseries not serving" >&2; exit 1; }

# fsr top renders one frame against the live endpoint.
"$bin" top -addr "$addr" -once | grep -q "recent operations" \
    || { echo "FAIL: fsr top -once rendered no operations table" >&2; exit 1; }

# The daemon logged structured JSON: every stderr line must parse, and the
# request records must carry the standard attrs.
[ -s "$servelog" ] || { echo "FAIL: serve logged nothing to stderr" >&2; exit 1; }
jq -e . >/dev/null <"$servelog" \
    || { echo "FAIL: serve stderr is not a stream of JSON objects" >&2; exit 1; }
jq -e -s 'map(select(.msg == "request")) | length > 0 and all(.[] ; .method and .path and .code)' \
    <"$servelog" >/dev/null \
    || { echo "FAIL: no well-formed request records in serve log" >&2; exit 1; }

echo "server smoke OK: delta_solves=$delta oracle_mismatches=$mismatch smt_probes=$probes scc_components=$scc"
