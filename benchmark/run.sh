#!/usr/bin/env bash
# The repo's benchmark, one command.
#
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#       builds, runs one workload in one process and prints its metrics by
#       name with units, then one JSON object as the last line (the form
#       BENCHMARK.json's `command` is run in). --trace 0 gives the
#       end-to-end metrics, --trace 1 the per-layer ones.
#   benchmark/run.sh [--seed S] [--seconds T] [--smoke]
#       runs every workload of BENCHMARK.json, each in its own child
#       process, end to end and then traced; fails if a metric or workload
#       named in BENCHMARK.json was not printed with a unit or a
#       correctness check tripped; writes benchmark/out/results.json.
#       --smoke does the same at tiny sizes in well under a minute.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

workload='' seed=1 seconds='' trace=0 smoke=''
while (($#)); do
    case $1 in
        --workload) workload=$2; shift 2 ;;
        --seed) seed=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --trace) trace=$2; shift 2 ;;
        --smoke) smoke=--smoke; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
[[ -n $seconds ]] || seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)

# Build. Compiler temporaries stay inside the checkout too.
target=${CARGO_TARGET_DIR:-benchmark/target}
[[ $target == /* ]] || target=$PWD/$target
mkdir -p "$target/tmp" benchmark/out/tmp
build_start=$(date +%s.%N)
TMPDIR=$target/tmp CARGO_TARGET_DIR=$target \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
build_s=$(awk -v a="$build_start" -v b="$(date +%s.%N)" 'BEGIN { printf "%.6f", b - a }')

# One workload, one process. The socket tier binds its Unix socket and
# writes its CS log under TMPDIR: a relative path keeps both inside the
# checkout and the socket path short.
run_one() {
    local bin=bench-e2e
    [[ $2 == 1 ]] && bin=bench-trace
    TMPDIR=benchmark/out/tmp "$target/release/$bin" --workload "$1" --seed "$seed" \
        --seconds "$seconds" --build-s "$build_s" $smoke
}

if [[ -n $workload ]]; then
    run_one "$workload" "$trace"
    exit
fi

# Names in one array of BENCHMARK.json (one entry per line there).
names() {
    sed -n "/\"$1\": \\[/,/^ *\\]/ s/.*\"name\": *\"\\([^\"]*\\)\".*/\\1/p" BENCHMARK.json
}

results=benchmark/out/results.json
{
    printf '{"commit": "%s", "nproc": %s, "rustc": "%s", "seed": %s, "seconds": %s, "smoke": %s,\n "results": {' \
        "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" "$(nproc)" "$(rustc -V)" \
        "$seed" "$seconds" "$([[ -n $smoke ]] && echo true || echo false)"
} >"$results"
status=0 sep=''
for w in $(names workloads); do
    for t in 0 1; do
        section=end_to_end
        [[ $t == 1 ]] && section=per_layer
        echo "== $w ($section)"
        log=benchmark/out/$w.$section.log
        run_one "$w" "$t" | tee "$log" | grep -v '^{' || true
        if ! tail -n 1 "$log" | grep -q '^{"correct": true'; then
            echo "run.sh: $w ($section) failed its correctness checks or crashed" >&2
            status=1
            continue
        fi
        for m in $(names "$section"); do
            grep -Eq "^metric $m [-0-9.e+]+ [^ ]+\$" "$log" ||
                { echo "run.sh: $w did not print $m with a unit" >&2; status=1; }
        done
        printf '%s\n  "%s.%s": %s' "$sep" "$w" "$section" "$(tail -n 1 "$log")" >>"$results"
        sep=','
    done
done
printf '\n }}\n' >>"$results"
echo "wrote $results"
exit $status
