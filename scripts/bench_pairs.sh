#!/usr/bin/env bash
# Alternated end-to-end benchmark pairs: REV against the working tree.
#
#   scripts/bench_pairs.sh REV [WORKLOAD] [PAIRS]
#   scripts/bench_pairs.sh HEAD~1 oneshot_clean 10
#
# REV is exported with `git archive` into target/bench_pairs/base and its
# benchmark package (crates/bench/src/bin/benchmark) is built there; the
# working tree's is built beside it, each side into its own target
# directory. Then PAIRS pairs of `benchmark run` (WORKLOAD, or all four
# when it is omitted or `all`) run with the side that goes first
# alternating, each pair on its own seed, and `benchmark compare` judges
# the change against REV by BENCHMARK.json's bounds. Every run's JSON is
# kept under target/bench_pairs/runs/{base,change}-<pair>/run.json, and
# target/bench_pairs/pairs.json holds, per workload and end-to-end
# metric, both sides' [median, q1, q3] and the pairs the change won: the
# "end_to_end" layout scripts/bench_trajectory.sh reads, and under "host"
# the machine's facts: `nproc`, and whether /proc/cpuinfo lists avx512f
# and avx512vl (both mean the FFT kernel ran its AVX-512VL copy).
#
# Environment: BENCH_SECONDS, seconds per workload run (default 20);
# BENCH_SEED, the first pair's seed (default: derived from the clock, so
# a rerun measures on fresh seeds). The exit status is compare's.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
    echo "usage: scripts/bench_pairs.sh REV [WORKLOAD] [PAIRS]" >&2
    exit 2
fi
REV="$1"
WORKLOAD="${2:-all}"
PAIRS="${3:-10}"
RUN_SECONDS="${BENCH_SECONDS:-20}"
SEED0="${BENCH_SEED:-$(( $(date +%s) % 100000 * 100 ))}"
git rev-parse --verify --quiet "$REV^{commit}" >/dev/null \
    || { echo "not a commit: $REV" >&2; exit 2; }
[[ "$PAIRS" =~ ^[0-9]+$ ]] && [ "$PAIRS" -ge 2 ] \
    || { echo "PAIRS must be an integer of at least 2" >&2; exit 2; }

ROOT="$(pwd)"
WORK="$ROOT/target/bench_pairs"
BASE="$WORK/base"
MANIFEST=crates/bench/src/bin/benchmark/Cargo.toml
rm -rf "$BASE" "$WORK/runs"
mkdir -p "$BASE" "$WORK/runs"
git archive "$REV" | tar -x -C "$BASE"

echo "building $REV and the working tree"
CARGO_TARGET_DIR="$WORK/base-build" \
    cargo build --offline --release --quiet --manifest-path "$BASE/$MANIFEST"
CARGO_TARGET_DIR="$WORK/change-build" \
    cargo build --offline --release --quiet --manifest-path "$ROOT/$MANIFEST"

ARGS=(--seconds "$RUN_SECONDS")
if [ "$WORKLOAD" != all ]; then
    ARGS+=(--workload "$WORKLOAD")
fi
for pair in $(seq 1 "$PAIRS"); do
    seed=$((SEED0 + pair))
    if [ $((pair % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
    for side in $order; do
        echo "pair $pair/$PAIRS seed $seed: $side"
        "$WORK/$side-build/release/benchmark" run "${ARGS[@]}" --seed "$seed" \
            --out "$WORK/runs/$side-$pair" >/dev/null
    done
done

python3 - "$WORK" "$PAIRS" "$(nproc)" <<'EOF'
import json, statistics, sys

work, pairs, nproc = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
try:
    flags = {f for line in open("/proc/cpuinfo") if line.startswith("flags")
             for f in line.split(":", 1)[1].split()}
except OSError:
    flags = set()
host = {"nproc": nproc, "avx512f": "avx512f" in flags, "avx512vl": "avx512vl" in flags}
spec = json.load(open("BENCHMARK.json"))
runs = {side: [json.load(open(f"{work}/runs/{side}-{p}/run.json"))["workloads"]
               for p in range(1, pairs + 1)]
        for side in ("base", "change")}

def quartiles(values):
    values = sorted(values)
    if len(values) < 2:
        return [values[0]] * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [median, q1, q3]

out = {}
for workload in runs["change"][0]:
    cells = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        sides = {side: [r[workload]["metrics"][name]["value"] for r in runs[side]]
                 for side in runs}
        lower = metric["better"] == "lower"
        wins = sum((c < b) if lower else (c > b)
                   for b, c in zip(sides["base"], sides["change"]))
        cells[name] = {
            "parent_median_q1_q3": quartiles(sides["base"]),
            "change_median_q1_q3": quartiles(sides["change"]),
            "change_better_pairs": f"{wins}/{pairs}",
        }
    out[workload] = cells
json.dump({"host": host, "workloads": out}, open(f"{work}/pairs.json", "w"), indent=1)
print(f"per-metric medians and won pairs: {work}/pairs.json")
EOF

"$WORK/change-build/release/benchmark" compare \
    --base "$WORK"/runs/base-*/run.json --change "$WORK"/runs/change-*/run.json
