#!/usr/bin/env bash
# Counts the lines of non-test Go in tracked files outside bench/, per
# package directory and in total: the size ROADMAP item 13 measures.
#
#   hack/loc.sh        the working tree's tracked files
#   hack/loc.sh REF    the same, beside each count's change against REF
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C # one collation for sort and join

# counts [REF] prints "directory lines" for every package directory, sorted;
# without REF it reads the working tree's copy of each tracked file.
counts() {
	local f
	if [ $# -eq 0 ]; then
		git ls-files -- '*.go' | while read -r f; do
			if [ -f "$f" ]; then printf '%s %s\n' "$f" "$(wc -l <"$f")"; fi
		done
	else
		git ls-tree -r --name-only "$1" | grep '\.go$' | while read -r f; do
			printf '%s %s\n' "$f" "$(git cat-file -p "$1:$f" | wc -l)"
		done
	fi | awk '$1 !~ /^bench\// && $1 !~ /_test\.go$/ {
		d = $1; sub(/\/[^\/]*$/, "", d); if (d == $1) d = "."
		n[d] += $2
	} END { for (d in n) print d, n[d] }' | sort
}

if [ $# -eq 0 ]; then
	counts | awk '{ printf "%-28s %6d\n", $1, $2; t += $2 } END { printf "%-28s %6d\n", "total", t }'
	exit 0
fi
base=$(mktemp)
trap 'rm -f "$base"' EXIT
counts "$1" >"$base"
printf '%-28s %6s %7s\n' directory lines "vs ${1:0:12}"
# join's rows: directory, lines at REF, lines now (0 where a side has none).
join -a1 -a2 -e0 -o 0,1.2,2.2 "$base" <(counts) | awk '
	function row(d, was, now) {
		if (now == was) printf "%-28s %6d\n", d, now
		else printf "%-28s %6d %+7d\n", d, now, now - was
	}
	{ row($1, $2, $3); was += $2; now += $3 }
	END { row("total", was, now) }'
