#!/usr/bin/env bash
# Judges the working tree ("change") against a base commit ("parent")
# with the repository benchmark declared in BENCHMARK.json.
#
#   scripts/bench-compare.sh <base-ref>
#
# Each side is built and run with the `command` of its own BENCHMARK.json,
# in a build directory of its own. Every workload runs at seeds 1-10 for
# 3 s, the two sides alternating which goes first; then the change's
# `sbfbench compare` judges the paired runs against the bounds in
# BENCHMARK.json. The script fails if any run exits nonzero (sbfbench
# exits 1 on any estimate below its true count or a failed oracle sweep),
# if any run takes longer than RUN_LIMIT (ten minutes), or if any row
# reads `regressed`.
#
# Everything it writes goes under target/bench-compare/: the parent's
# sources, both build directories, one log per run and the two .jsonl
# result files. Needs git, tar and jq.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <base-ref>" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
base=$(git rev-parse --verify "$1^{commit}")
out="$root/target/bench-compare"
parent_src="$out/parent-$base"
if [ ! -d "$parent_src" ]; then
    mkdir -p "$parent_src.partial"
    git archive "$base" | tar -x -C "$parent_src.partial"
    mv "$parent_src.partial" "$parent_src"
fi
# A run takes well under a minute, plus a release build the first time
# each side runs. A run still going after ten minutes is hung or has
# regressed far past any bound, so it fails rather than holding the job.
RUN_LIMIT=600
rm -rf "$out/logs" "$out/parent.jsonl" "$out/change.jsonl"
mkdir -p "$out/logs"

# run SIDE WORKLOAD SEED: one benchmark run of one side, appended to
# SIDE.jsonl; its full output goes to a log that is shown on failure.
run() {
    local side=$1 workload=$2 seed=$3 dir cmd
    if [ "$side" = parent ]; then dir=$parent_src; else dir=$root; fi
    mapfile -t cmd < <(jq -r '.command[]' "$dir/BENCHMARK.json")
    local log="$out/logs/$side-$workload-$seed.log"
    echo "$side $workload seed $seed"
    if ! (cd "$dir" && CARGO_TARGET_DIR="$out/$side-build" timeout -k 10 "$RUN_LIMIT" "${cmd[@]}" \
        --workload "$workload" --seed "$seed" --seconds 3 --out "$out/$side.jsonl") \
        >"$log" 2>&1; then
        tail -n 40 "$log" >&2
        echo "$0: the $side run of $workload at seed $seed failed" >&2
        exit 1
    fi
}

mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
for seed in $(seq 1 10); do
    for workload in "${workloads[@]}"; do
        if [ $((seed % 2)) -eq 1 ]; then
            run parent "$workload" "$seed"
            run change "$workload" "$seed"
        else
            run change "$workload" "$seed"
            run parent "$workload" "$seed"
        fi
    done
done

mapfile -t cmd < <(jq -r '.command[]' BENCHMARK.json)
status=0
report=$(CARGO_TARGET_DIR="$out/change-build" "${cmd[@]}" \
    compare "$out/parent.jsonl" "$out/change.jsonl") || status=$?
echo "$report"
if [ "$status" -ne 0 ] || grep -q regressed <<<"$report"; then
    echo "$0: the change regressed against $base (or compare failed)" >&2
    exit 1
fi
