#!/usr/bin/env bash
# Tier-1 verification gate: hermetic build + full test suite + rustdoc
# with warnings denied, plus lint and formatting when the components are
# installed. Run from anywhere.
#
#   scripts/verify.sh              # tier-1 gate
#   scripts/verify.sh --faults     # tier-1 gate + seeded fault-matrix sweep
#   scripts/verify.sh --bench      # tier-1 gate + bench smoke (alloc gate)
#   scripts/verify.sh --stream     # tier-1 gate + streaming soak smoke
#   scripts/verify.sh --doa        # tier-1 gate + DOA contract property sweep
#   scripts/verify.sh --estimators # tier-1 gate + estimator-bank contract sweep
#   scripts/verify.sh --multibeacon # tier-1 gate + K-beacon bank contracts
#   scripts/verify.sh --surface    # tier-1 gate + public-surface census
#   scripts/verify.sh --repro-diff REV  # tier-1 gate + outputs identical to REV
#   scripts/verify.sh --loc REV    # tier-1 gate + library line counts against REV
#
# The --faults tier drives the full fault-injection matrix through the
# monitored pipeline (`repro faults --fast`): every corrupted session
# must come back as a typed Ok/Degraded/Failed outcome — a panic or a
# sim-layer error fails the gate.
#
# The --bench tier smoke-runs the DSP kernel and batch-session bench
# suites with a minimal sample budget. Timings on a shared machine are
# noise at this budget, but the suites' counting allocator makes them a
# *steady-state allocation* gate: any bench registered as
# allocation-free that allocates per iteration panics in
# `Suite::finish`, failing this script. On hosts with >= 4 CPUs the
# batch suite additionally asserts > 1.3x multi-thread speedup.
#
# The --stream tier runs a short deterministic soak (a small phone
# fleet through the StreamService) and greps the `stream-contract:`
# line: every streamed session must be bit-identical to its one-shot
# reference and the shed/busy schedule identical across thread counts.
# It also greps the `stream-memory:` lines: at every thread count each
# session must hold exactly its state formula and the pool exactly one
# formula-sized detection workspace per participant.
#
# The --doa tier runs the direction-finding property sweep (random 3-
# and 4-microphone geometries through both DOA front-ends) and greps
# the `doa-contract: ... HELD` lines: both front-ends must recover the
# bearing within their pinned tolerances on every drawn geometry.
#
# The --estimators tier runs the TDoA-estimator property sweep (clean
# recovery within the 7.78 mm resolution floor, weighting estimators no
# worse than plain xcorr under seeded NLOS/burst faults), the escalation
# equivalence test at HYPEREAR_THREADS=1 and =4 (a warm escalating engine
# fed faulted sessions A, B, A, stereo and 3-/4-mic arrays, must end each
# ladder exactly where a fresh engine on the winning estimator does, so a
# rerun never reads another session's stored correlations), plus the fast
# fault-matrix accuracy-vs-cost sweep (`repro --fast estimators`), the
# band-limited detection agreement oracle (clean and K=4 arrivals equal
# the full-rate path's within 1e-3 samples, faulted disagreements only at
# the threshold, in carrier and envelope mode and under the GCC-PHAT and
# sub-band guides), and greps the `estimator-contract: ... HELD`,
# `escalation-contract: ... HELD`, `bandlimited-contract: ... HELD` and
# `bandlimited-contract (guides): ... HELD` lines.
#
# The --multibeacon tier runs the K-concurrent-beacon contracts: the
# multi-beacon conformance suite (per-beacon range recovery from one
# shared capture, outcome bit-identity across thread counts, typed
# degradation under cross-beacon interference), the plan/template-
# spectrum sharing gate (one forward-plan build and one template FFT
# per beacon, clones recompute neither), and the warm MultiBeaconEngine
# zero-allocation gate. It then smoke-runs the multibeacon bench, whose
# banked K=4 detector must (a) produce bit-identical arrivals to 4
# independent detectors and (b) on hosts with >= 2 CPUs beat them by
# >= 1.25x (on one shared CPU the ratio is still printed but not
# asserted — timings there swing too much to gate on).
#
# The --surface tier runs the public-surface census (the `surface` bin of
# hyperear-bench) and greps its `surface census: HELD` line: on a copy
# of the workspace under target/surface it demotes each library crate's
# `pub` items and lets the compiler say which ones production code (the
# workspace's libs, bins and examples plus the end-to-end benchmark
# package) calls. Every item without a non-test caller must be listed in
# scripts/surface_keep.txt with one of its four reasons, and every item
# nothing outside its crate names must be `pub(crate)`.
#
# The --repro-diff REV tier runs scripts/repro_diff.sh: every `repro
# --list` experiment at `--fast` scale on the working tree and on REV
# (built in a git worktree under target/), every CSV compared byte for
# byte. A change that claims to leave outputs unchanged passes it
# against its parent.
#
# The --loc REV tier prints scripts/loc.sh REV: library non-test lines
# per crate (`crates/*/src` without binaries, up to each file's unit-test
# module) for the tree and for REV, and the net change. It reports; it
# gates nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_FAULTS=0
RUN_BENCH=0
RUN_STREAM=0
RUN_DOA=0
RUN_ESTIMATORS=0
RUN_MULTIBEACON=0
RUN_SURFACE=0
REPRO_DIFF_REV=""
LOC_REV=""
while [ $# -gt 0 ]; do
    arg="$1"
    shift
    case "$arg" in
        --faults) RUN_FAULTS=1 ;;
        --bench) RUN_BENCH=1 ;;
        --stream) RUN_STREAM=1 ;;
        --doa) RUN_DOA=1 ;;
        --estimators) RUN_ESTIMATORS=1 ;;
        --multibeacon) RUN_MULTIBEACON=1 ;;
        --surface) RUN_SURFACE=1 ;;
        --repro-diff)
            if [ $# -eq 0 ]; then
                echo "--repro-diff needs a revision" >&2
                exit 2
            fi
            REPRO_DIFF_REV="$1"
            shift
            ;;
        --loc)
            if [ $# -eq 0 ]; then
                echo "--loc needs a revision" >&2
                exit 2
            fi
            LOC_REV="$1"
            shift
            ;;
        *) echo "unknown option: $arg (supported: --faults, --bench, --stream, --doa, --estimators, --multibeacon, --surface, --repro-diff REV, --loc REV)" >&2; exit 2 ;;
    esac
done

echo "== cargo build --release =="
cargo build --release

# The end-to-end benchmark is a package of its own, outside the
# workspace: build it here so a library API change that breaks its call
# sites fails the gate even when every workspace test passes.
echo "== cargo build (end-to-end benchmark package) =="
cargo build --offline --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml

echo "== cargo test -q (root package) =="
cargo test -q

# The workspace suite runs under both a forced-sequential and a forced-
# parallel pool so the determinism pins (batch output bit-identical to
# sequential execution) are exercised on both code paths even when the
# host has one core.
echo "== cargo test --workspace -q (HYPEREAR_THREADS=1) =="
HYPEREAR_THREADS=1 cargo test --workspace -q

echo "== cargo test --workspace -q (HYPEREAR_THREADS=4) =="
HYPEREAR_THREADS=4 cargo test --workspace -q

# The FFT kernel has a baseline copy and, on x86-64 CPUs with AVX-512F
# and AVX-512VL, a second copy of the same source compiled for them; the
# kernel oracle checks every copy the host runs. Say which ones those are.
echo "== FFT kernel copies on this host =="
cargo test -q -p hyperear-dsp --lib -- plan::tests::plan_picks_the_avx512vl_copy_exactly_when_detected --nocapture

# The benchmark and `repro` are built at opt-level 3 and the test profile
# at opt-level 2, so the kernel tests run again in release: the oracle
# then compares the bits of the code the benchmark runs.
echo "== FFT kernel oracle in release =="
cargo test --release -q -p hyperear-dsp --lib -- plan::tests

# Rustdoc gate: a broken intra-doc link, or public documentation that
# links a crate-private item, fails the build.
echo "== cargo doc --workspace --no-deps (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Experiment smoke: the cheapest analytic reproduction plus one figure
# sweep, in --fast mode, so a pipeline regression that unit tests miss
# (e.g. a planned-FFT path diverging from the one-shot results) still
# fails the gate.
echo "== repro smoke (--fast restrictions fig03) =="
cargo run --release -p hyperear-bench --bin repro -- --fast restrictions fig03

if [ "$RUN_BENCH" -eq 1 ]; then
    echo "== bench smoke (dsp kernels, 3 samples, allocation gate) =="
    HYPEREAR_BENCH_SAMPLES=3 HYPEREAR_BENCH_SAMPLE_MS=5 HYPEREAR_BENCH_WARMUP_MS=20 \
        cargo bench -p hyperear-bench --bench dsp_kernels

    # Batch smoke: the suite's allocation gate verifies a warm
    # BatchEngine batch allocates nothing at any thread count; when the
    # host actually has >= 4 CPUs, additionally assert the N-thread batch
    # beats the 1-thread batch by > 1.3x (on fewer cores the multi-thread
    # rows measure scheduling overhead, and a speedup assertion would be
    # asserting on noise).
    echo "== bench smoke (batch sessions, allocation gate) =="
    BATCH_JSON_DIR="$(mktemp -d)"
    HYPEREAR_BENCH_JSON_DIR="$BATCH_JSON_DIR" \
    HYPEREAR_BENCH_SAMPLES=5 HYPEREAR_BENCH_SAMPLE_MS=20 HYPEREAR_BENCH_WARMUP_MS=50 \
        cargo bench -p hyperear-bench --bench batch_session
    NPROC="$( (command -v nproc >/dev/null 2>&1 && nproc) || echo 1 )"
    if [ "$NPROC" -ge 4 ]; then
        # Result order in the report is threads_1, threads_2, threads_N.
        read -r T1 TN <<<"$(grep -o '"median_ns":[0-9.]*' "$BATCH_JSON_DIR/batch_session.json" \
            | cut -d: -f2 | awk 'NR==1{a=$1} NR==3{print a, $1}')"
        SPEEDUP="$(awk -v a="$T1" -v b="$TN" 'BEGIN{printf "%.2f", a/b}')"
        echo "batch speedup at ${NPROC} threads: ${SPEEDUP}x"
        if ! awk -v a="$T1" -v b="$TN" 'BEGIN{exit !(a/b > 1.3)}'; then
            echo "BENCH TIER FAILED: batch speedup ${SPEEDUP}x <= 1.3x at ${NPROC} threads" >&2
            exit 1
        fi
    else
        echo "host has ${NPROC} CPU(s) < 4; skipping multi-thread speedup assertion"
    fi
    rm -rf "$BATCH_JSON_DIR"

    # Streaming smoke rides along with --bench: a tiny fleet exercises
    # the service's allocation gate (the suite panics on a warm cycle
    # that allocates).
    echo "== bench smoke (stream soak, allocation gate) =="
    HYPEREAR_SOAK_PHONES=8 \
    HYPEREAR_BENCH_SAMPLES=3 HYPEREAR_BENCH_SAMPLE_MS=20 HYPEREAR_BENCH_WARMUP_MS=50 \
        cargo bench -p hyperear-bench --bench stream_soak

    # The counting-allocator test gates ride along with --bench: warm
    # stereo batches, warm N-microphone array sessions (both DOA
    # front-ends), and warm streaming cycles must allocate nothing.
    echo "== allocation gates (batch, array, stream) =="
    cargo test -p hyperear --test alloc_batch --test alloc_array --test alloc_stream -q
fi

if [ "$RUN_STREAM" -eq 1 ]; then
    echo "== stream soak (deterministic load, contract grep) =="
    OUT="$(HYPEREAR_SOAK_PHONES=24 \
        HYPEREAR_BENCH_SAMPLES=3 HYPEREAR_BENCH_SAMPLE_MS=20 HYPEREAR_BENCH_WARMUP_MS=50 \
        cargo bench -p hyperear-bench --bench stream_soak)"
    echo "$OUT"
    if ! grep -q "stream-contract:.*HELD" <<<"$OUT"; then
        echo "STREAM TIER FAILED: streaming contract not held" >&2
        exit 1
    fi
    if ! grep -q "stream-memory:.*HELD" <<<"$OUT" \
        || grep -q "stream-memory:.*VIOLATED" <<<"$OUT"; then
        echo "STREAM TIER FAILED: stream memory contract not held" >&2
        exit 1
    fi
    NPROC="$( (command -v nproc >/dev/null 2>&1 && nproc) || echo 1 )"
    if [ "$NPROC" -ge 4 ]; then
        # With real cores the N-thread soak must beat 1 thread on
        # throughput (nproc-gated: on fewer cores extra threads
        # time-share one CPU and the comparison would be noise).
        read -r S1 SN <<<"$(grep -o 'sessions_per_sec=[0-9.]*' <<<"$OUT" \
            | cut -d= -f2 | awk 'NR==1{a=$1} NR==2{print a, $1}')"
        if [ -n "${SN:-}" ] && ! awk -v a="$S1" -v b="$SN" 'BEGIN{exit !(b > a)}'; then
            echo "STREAM TIER FAILED: ${NPROC}-core soak throughput ${SN}/s <= 1-thread ${S1}/s" >&2
            exit 1
        fi
    else
        echo "host has ${NPROC} CPU(s) < 4; skipping soak throughput comparison"
    fi
fi

if [ "$RUN_DOA" -eq 1 ]; then
    echo "== doa property sweep (random arrays, both front-ends, contract grep) =="
    OUT="$(cargo test --release --test doa_property -- --nocapture)"
    echo "$OUT"
    if [ "$(grep -c "doa-contract:.*HELD" <<<"$OUT")" -lt 2 ]; then
        echo "DOA TIER FAILED: direction-finding contract not held" >&2
        exit 1
    fi
fi

if [ "$RUN_ESTIMATORS" -eq 1 ]; then
    echo "== estimator property sweep (clean floor + faulted no-worse, contract grep) =="
    OUT="$(cargo test --release --test estimator_property -- --nocapture)"
    echo "$OUT"
    if [ "$(grep -c "estimator-contract:.*HELD" <<<"$OUT")" -lt 3 ]; then
        echo "ESTIMATORS TIER FAILED: estimator property contract not held" >&2
        exit 1
    fi

    for threads in 1 4; do
        echo "== escalation equivalence (HYPEREAR_THREADS=${threads}, contract grep) =="
        OUT="$(HYPEREAR_THREADS="$threads" cargo test --release --test escalation_equivalence -- --nocapture)"
        echo "$OUT"
        if [ "$(grep -c "escalation-contract:.*HELD" <<<"$OUT")" -lt 3 ]; then
            echo "ESTIMATORS TIER FAILED: escalation reruns diverge from fresh engines at ${threads} thread(s)" >&2
            exit 1
        fi
    done

    echo "== repro estimators (--fast, fault-matrix accuracy-vs-cost sweep) =="
    OUT="$(cargo run --release -p hyperear-bench --bin repro -- --fast estimators)"
    echo "$OUT"
    if ! grep -q "estimator-contract:.*HELD" <<<"$OUT"; then
        echo "ESTIMATORS TIER FAILED: estimator bank contract not held" >&2
        exit 1
    fi

    echo "== band-limited detection agreement (full-rate oracle, contract grep) =="
    OUT="$(cargo test --release --test bandlimited_agreement -- --nocapture)"
    echo "$OUT"
    if ! grep -q "bandlimited-contract:.*HELD" <<<"$OUT" \
        || ! grep -q "bandlimited-contract (guides):.*HELD" <<<"$OUT"; then
        echo "ESTIMATORS TIER FAILED: band-limited detection disagrees with the full-rate path" >&2
        exit 1
    fi
fi

if [ "$RUN_MULTIBEACON" -eq 1 ]; then
    echo "== multibeacon conformance + plan sharing (contract grep) =="
    OUT="$(cargo test --release --test conformance_multibeacon --test plan_sharing_multibeacon -- --nocapture)"
    echo "$OUT"
    if [ "$(grep -c "multibeacon-contract:.*HELD" <<<"$OUT")" -lt 4 ]; then
        echo "MULTIBEACON TIER FAILED: bank contract not held" >&2
        exit 1
    fi

    echo "== allocation gate (warm MultiBeaconEngine) =="
    cargo test -p hyperear --test alloc_multibeacon -q

    # Bench smoke: the banked K=4 detector vs 4 independent detectors.
    # The bench binary itself asserts bit-identical arrivals and the
    # allocation gate; the speedup assertion is nproc-gated because a
    # single shared CPU swings timings beyond the margin. Every detector
    # folds its band-pass into the template, so the bank saves only the
    # K-1 repeated forward transforms per block pair: 2K/(K+1) = 1.6x
    # fewer transforms at K=4; the unshared per-beacon peak picking
    # keeps the measured ratio lower. Re-measured after the two-pass
    # detection epilogue made that peak picking 2.4x cheaper: at these
    # settings on a 2-vCPU shared host the bench read 1.41-1.69x over
    # 8 runs (median 1.58x), and 1.43-1.82x (median 1.46x) over 8 runs
    # of the one-pass epilogue alternated with them. The floor stays
    # 1.25x; a reading below it on a busy host is timing noise - rerun
    # the tier.
    echo "== bench smoke (multibeacon, K=4 bank vs independent) =="
    OUT="$(HYPEREAR_BENCH_SAMPLES=5 HYPEREAR_BENCH_SAMPLE_MS=20 HYPEREAR_BENCH_WARMUP_MS=50 \
        cargo bench -p hyperear-bench --bench multibeacon)"
    echo "$OUT"
    if ! grep -q "multibeacon-contract: k=4 banked arrivals match" <<<"$OUT"; then
        echo "MULTIBEACON TIER FAILED: banked arrivals diverge from independent detectors" >&2
        exit 1
    fi
    SPEEDUP="$(grep -o 'multibeacon_speedup_x [0-9.]*' <<<"$OUT" | awk '{print $2}')"
    NPROC="$( (command -v nproc >/dev/null 2>&1 && nproc) || echo 1 )"
    if [ "$NPROC" -ge 2 ]; then
        if ! awk -v s="$SPEEDUP" 'BEGIN{exit !(s >= 1.25)}'; then
            echo "MULTIBEACON TIER FAILED: bank speedup ${SPEEDUP}x < 1.25x over 4 independent detectors" >&2
            exit 1
        fi
        echo "bank speedup ${SPEEDUP}x >= 1.25x over 4 independent detectors"
    else
        echo "host has ${NPROC} CPU(s) < 2; bank speedup ${SPEEDUP}x reported, not asserted"
    fi
fi

if [ "$RUN_SURFACE" -eq 1 ]; then
    echo "== public-surface census (contract grep) =="
    # The census exits non-zero when it fails; print its lists either way.
    OUT="$(cargo run --release -p hyperear-bench --bin surface 2>&1)" || true
    echo "$OUT"
    if ! grep -q "surface census: HELD" <<<"$OUT"; then
        echo "SURFACE TIER FAILED: public items without a caller or a keep-list reason" >&2
        exit 1
    fi
fi

if [ "$RUN_FAULTS" -eq 1 ]; then
    echo "== repro faults (--fast, seeded fault-matrix sweep) =="
    OUT="$(cargo run --release -p hyperear-bench --bin repro -- --fast faults)"
    echo "$OUT"
    if ! grep -q "typed outcome): HELD" <<<"$OUT"; then
        echo "FAULTS TIER FAILED: degradation contract not held" >&2
        exit 1
    fi
fi

if [ -n "$REPRO_DIFF_REV" ]; then
    echo "== repro-diff against $REPRO_DIFF_REV (every experiment, --fast CSVs) =="
    scripts/repro_diff.sh "$REPRO_DIFF_REV"
fi

if [ -n "$LOC_REV" ]; then
    echo "== library lines against $LOC_REV =="
    scripts/loc.sh "$LOC_REV"
fi

# Clippy and rustfmt are optional toolchain components; gate on their
# availability so the script still passes on a minimal offline toolchain.
if cargo clippy --version >/dev/null 2>&1; then
    echo "== cargo clippy --workspace --all-targets =="
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "== clippy unavailable; skipping lint =="
fi

if cargo fmt --version >/dev/null 2>&1; then
    echo "== cargo fmt --check =="
    cargo fmt --all -- --check
else
    echo "== rustfmt unavailable; skipping format check =="
fi

echo "== verify OK =="
