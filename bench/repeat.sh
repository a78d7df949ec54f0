#!/bin/bash
# The repeatability check, and the tool for parent-versus-change: runs the
# full benchmark as two sets, A and B, on the current tree and fails unless
# `bench -compare` reads every row ok.
#
#   bench/repeat.sh [runs-per-set]     default 3; seeds 1..runs, the same in both sets
#
# Runs alternate between the sets (A1 B1 A2 B2 …) so drift of the machine
# lands on both. Each set also gets one traced run at seed 1, whose
# exact-repeat counts must be identical. To compare two commits instead,
# point -out of each commit's runs at its own directory and hand the two
# lists of result.json files to `go run ./bench -compare`.
set -eu
cd "$(dirname "$0")/.."
runs=${1:-3}
out=bench/out/repeat
rm -rf "$out"
a=() b=()
for i in $(seq 1 "$runs"); do
	for set in A B; do
		go run ./bench -seed "$i" -out "$out/$set$i" >/dev/null
	done
	a+=("$out/A$i/result.json") b+=("$out/B$i/result.json")
done
for set in A B; do
	go run ./bench -seed 1 -trace 1 -out "$out/${set}traced" >/dev/null
done
a+=("$out/Atraced/result.json") b+=("$out/Btraced/result.json")
join() { local IFS=,; echo "$*"; }
go run ./bench -compare "$(join "${a[@]}")" "$(join "${b[@]}")"
