#!/usr/bin/env bash
# A/A check: runs every workload's end-to-end set twice on one build and
# prints, per workload and metric, both values, their relative difference
# and the metric's bound. Exits non-zero if a difference exceeds its bound.
# Arguments (e.g. --seed 2) are passed on to run.sh.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

workloads=$(sed -n '/"workloads": \[/,/^ *\]/ s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json)
mkdir -p benchmark/out
for set in A B; do
    for w in $workloads; do
        echo "aa.sh: set $set, $w" >&2
        benchmark/run.sh --workload "$w" --trace 0 "$@" |
            sed -n "s/^metric \([^ ]*\) \([^ ]*\) .*/$w \1 \2/p"
    done >benchmark/out/aa.$set
done

sed -n '/"end_to_end": \[/,/^ *\]/ s/.*"name": *"\([^"]*\)".*"bound": *\([0-9.]*\).*/\1 \2/p' \
    BENCHMARK.json >benchmark/out/aa.bounds
awk '
    FILENAME ~ /bounds$/ { bound[$1] = $2; next }
    FILENAME ~ /A$/ { a[$1 " " $2] = $3; next }
    {
        key = $1 " " $2
        diff = ($3 - a[key]) / a[key]
        over = (diff > bound[$2] || -diff > bound[$2])
        printf "%-16s %-18s %14.4f %14.4f %+8.2f%%  bound %5.1f%%%s\n",
            $1, $2, a[key], $3, 100 * diff, 100 * bound[$2], over ? "  EXCEEDED" : ""
        bad += over
    }
    END { exit bad > 0 }
' benchmark/out/aa.bounds benchmark/out/aa.A benchmark/out/aa.B
