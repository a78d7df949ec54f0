#!/usr/bin/env bash
# Runs the benchstat-friendly Stage series plus the headline analysis and
# solver-scaling benches, and writes BENCH_<tag>.json mapping each benchmark
# to its mean ns/op and allocs/op — the perf trajectory future PRs are held
# to — under an `_env` header (cpu model, nproc, GOMAXPROCS, Go version,
# commit) like the one `go run ./bench` writes, so a number is never read
# without its machine. Usage: hack/bench.sh [tag] [count] [baseline-tag]
#
# With a baseline tag (or BENCH_BASELINE=<tag>), the run ends by diffing
# the fresh file against BENCH_<baseline>.json via hack/benchdiff and
# fails when any shared benchmark slowed past BENCH_THRESHOLD (default 5%).
#
# For a statistically sound before/after comparison, prefer
#   go test -run '^$' -bench Stage -benchmem -count 10 . > new.txt
#   benchstat old.txt new.txt
set -euo pipefail
cd "$(dirname "$0")/.."

tag="${1:-pr3}"
count="${2:-5}"
baseline="${3:-${BENCH_BASELINE:-}}"
out="BENCH_${tag}.json"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# At -count 5 the suite runs past go test's default 10-minute timeout.
go test -run '^$' -bench 'Stage|Figure3Analysis|SolverScaling|Campaign|DeltaVerify|ObsOverhead|ConstraintGen|InternetScale' \
    -benchmem -count "$count" -timeout 60m . | tee "$tmp"

cpu="$(awk -F': *' '/^model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || true)"
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
[[ -z "$(git status --porcelain 2>/dev/null)" ]] || commit="$commit-dirty"

awk -v cpu="${cpu:-unknown}" -v nproc="$(nproc)" -v gomaxprocs="${GOMAXPROCS:-$(nproc)}" \
    -v gover="$(go env GOVERSION)" -v commit="$commit" -v count="$count" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (!(name in seen)) { seen[name] = 1; names[++n] = name }
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     { ns[name] += $(i-1); nns[name]++ }
        if ($i == "allocs/op") { al[name] += $(i-1); nal[name]++ }
        if ($i == "B/node")    { bn[name] += $(i-1); nbn[name]++ }
    }
}
END {
    printf "{\n"
    printf "  \"_env\": {\"cpu_model\": \"%s\", \"nproc\": %d, \"gomaxprocs\": %d, \"go_version\": \"%s\", \"commit\": \"%s\", \"count\": %d}%s\n", \
        cpu, nproc, gomaxprocs, gover, commit, count, (n ? "," : "")
    for (i = 1; i <= n; i++) {
        name = names[i]
        mean_ns = nns[name] ? ns[name] / nns[name] : 0
        mean_al = nal[name] ? al[name] / nal[name] : 0
        extra = ""
        if (nbn[name]) extra = sprintf(", \"bytes_per_node\": %.1f", bn[name] / nbn[name])
        printf "  \"%s\": {\"ns_per_op\": %.1f, \"allocs_per_op\": %.1f%s}%s\n", \
            name, mean_ns, mean_al, extra, (i < n ? "," : "")
    }
    printf "}\n"
}' "$tmp" > "$out"

echo "wrote $out"

if [[ -n "$baseline" ]]; then
    base="BENCH_${baseline}.json"
    if [[ ! -f "$base" ]]; then
        echo "bench.sh: baseline $base not found" >&2
        exit 2
    fi
    go run ./hack/benchdiff -threshold "${BENCH_THRESHOLD:-0.05}" "$base" "$out"
fi
