#!/bin/sh
# Offline CI for the whole workspace. The zero-external-dependency policy
# (see DESIGN.md) means every step must pass with an empty cargo registry.
set -eux

cargo fmt --all --check
cargo build --release --offline --workspace
cargo test -q --offline --workspace
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

# Layering: the memory-model checker is a leaf. It may link only the
# std-only pool and trace crates plus the fence rules it checks (and
# their IR), so the pipeline can call it without a dependency cycle. A
# translator crate in its tree fails by name.
MEMMODEL_DEPS=$(cargo tree --offline -p lasagne-memmodel -e normal \
    --prefix none | sed 's/ .*//' | sort -u)
for crate in lasagne lasagne-lifter lasagne-opt lasagne-armgen lasagne-cache \
    lasagne-phoenix lasagne-qc lasagne-refine lasagne-x86; do
    if echo "$MEMMODEL_DEPS" | grep -qx "$crate"; then
        echo "layering gate: lasagne-memmodel depends on $crate" >&2
        exit 1
    fi
done
STRAY=$(echo "$MEMMODEL_DEPS" | grep -vx -e lasagne-memmodel -e lasagne-pool \
    -e lasagne-trace -e lasagne-fences -e lasagne-lir || true)
if [ -n "$STRAY" ]; then
    echo "layering gate: lasagne-memmodel depends on $STRAY" >&2
    exit 1
fi

# Warm-cache equivalence, end to end through the CLI: translating the
# whole demo suite twice against one cache directory must hit 100% the
# second time and produce byte-identical assembly.
CACHE_DIR=$(mktemp -d)
trap 'rm -rf "$CACHE_DIR"' EXIT
for demo in HT KM LR MM PCA SM WC; do
    ./target/release/lasagne translate "$demo" --cache-dir "$CACHE_DIR" \
        --timings "$CACHE_DIR/$demo.cold.json" >"$CACHE_DIR/$demo.cold.s"
    ./target/release/lasagne translate "$demo" --cache-dir "$CACHE_DIR" \
        --timings "$CACHE_DIR/$demo.warm.json" >"$CACHE_DIR/$demo.warm.s"
    cmp "$CACHE_DIR/$demo.cold.s" "$CACHE_DIR/$demo.warm.s"
    grep -q '"warm":true' "$CACHE_DIR/$demo.warm.json"
    grep -q '"misses":0' "$CACHE_DIR/$demo.warm.json"
done

# Parallel-schedule equivalence, end to end through the CLI: the fused
# per-function opt schedule at --jobs 4 must emit assembly byte-identical
# to --jobs 1, and its --timings must show the opt stage actually fanning
# out (zero opt parallel sections at jobs=4 means the fusion regressed to
# a serial schedule).
for demo in HT KM LR MM PCA SM WC; do
    ./target/release/lasagne translate "$demo" --jobs 1 --no-cache \
        >"$CACHE_DIR/$demo.j1.s"
    ./target/release/lasagne translate "$demo" --jobs 4 --no-cache \
        --timings "$CACHE_DIR/$demo.j4.json" >"$CACHE_DIR/$demo.j4.s"
    cmp "$CACHE_DIR/$demo.j1.s" "$CACHE_DIR/$demo.j4.s"
    if grep -q '{"stage":"opt","parallel_sections":0' "$CACHE_DIR/$demo.j4.json"; then
        echo "$demo: opt stage ran zero parallel sections at --jobs 4" >&2
        exit 1
    fi
done

# Tracing: a traced translation must emit a valid Chrome trace file with
# one named track per worker thread, and it must not change the output.
# Pinned at jobs=4 so the trace tracks cover the fused opt schedule's
# per-function spans and the ipsccp superstep spans.
./target/release/lasagne translate HT --jobs 4 --no-cache \
    --trace-out "$CACHE_DIR/HT.trace.json" >"$CACHE_DIR/HT.traced.s"
cmp "$CACHE_DIR/HT.cold.s" "$CACHE_DIR/HT.traced.s"
test -s "$CACHE_DIR/HT.trace.json"
./target/release/lasagne trace-check "$CACHE_DIR/HT.trace.json" --jobs 4

# Fence-provenance explain output must be schedule-invariant: the same
# decisions whether the opt stage runs serially or fused at jobs=4.
./target/release/lasagne explain-fences HT --jobs 1 >"$CACHE_DIR/HT.exp1.txt"
./target/release/lasagne explain-fences HT --jobs 4 >"$CACHE_DIR/HT.exp4.txt"
cmp "$CACHE_DIR/HT.exp1.txt" "$CACHE_DIR/HT.exp4.txt"

# Capped three-way differential sweep (see ARCHITECTURE.md "Differential
# testing"): qc-generated functions + every Phoenix function on the
# byte-level x86 interpreter vs the lifted LIR vs the simulated Arm core.
# Fixed seed and bounded cases keep it deterministic and fast; the
# persisted seeds in crates/lasagne/tests/difftest.qc-regressions replay
# before any novel generation, so known-fixed lifter bugs stay pinned. A
# nonzero exit means a divergence (the shrunk counterexample is printed).
./target/release/lasagne difftest --cases 8 --scale 48 \
    --cache-dir "$CACHE_DIR/difftest-cache"

# Parallel-schedule regression gate: re-run the bench sweep at scale 192
# (the scale the committed BENCH_pipeline.json trajectory is pinned at)
# and require jobs=4 not to lose to jobs=1 end-to-end. On a multi-core
# host the persistent pool must at least break even (the >= 2x target is
# recorded in the artifact); a single-core host cannot improve wall clock
# at any jobs value, so the gate there is parity within 20% scheduling
# noise (observed run-to-run spread on a loaded 1-cpu container is
# ~0.82-0.99x) — still above the 0.71x scoped-thread pathology this
# guards against. The artifact is written into the scratch dir so CI
# never clobbers the committed trajectory.
(cd "$CACHE_DIR" && LASAGNE_BENCH_SCALE=192 \
    "$OLDPWD"/target/release/report bench)
# (tail -1: the first match is the historical prepool entry's recorded
# ratio; the last is the top-level ratio for this run.)
SPEEDUP=$(sed -n 's/.*"speedup_jobs4_vs_jobs1":\([0-9.]*\).*/\1/p' \
    "$CACHE_DIR/BENCH_pipeline.json" | tail -1)
HOST_CPUS=$(sed -n 's/.*"host_cpus":\([0-9]*\).*/\1/p' \
    "$CACHE_DIR/BENCH_pipeline.json")
if [ "$HOST_CPUS" -gt 1 ]; then FLOOR=1.0; else FLOOR=0.8; fi
if ! awk -v s="$SPEEDUP" -v f="$FLOOR" 'BEGIN { exit !(s >= f) }'; then
    echo "bench gate: jobs=4 vs jobs=1 speedup $SPEEDUP is below $FLOOR" >&2
    exit 1
fi

# Change-driven opt-scheduling gate: the jobs=1 opt stage wall must beat
# the recorded pre-scheduler baseline (15.58 ms blind fixpoint, measured
# on this container class — see "presched" in BENCH_pipeline.json; the
# current measurement is ~1.9x). On the single-core container class the
# baseline was recorded on, the floor is 1.4x (the 1.5x target minus
# run-to-run scheduling noise); on other hardware the baseline's absolute
# nanoseconds are not comparable, so the gate only requires parity with
# the blind driver (ratio >= 1.0) there, mirroring the bench gate's
# hardware-aware pattern above. The scheduler must also have skipped a
# nonzero number of provably-clean pass slots across the suite — a
# zero-skip run means change tracking regressed to the blind schedule.
OPT_SPEEDUP=$(sed -n 's/.*"opt_speedup_jobs1_vs_presched":\([0-9.]*\).*/\1/p' \
    "$CACHE_DIR/BENCH_pipeline.json")
if [ "$HOST_CPUS" -gt 1 ]; then OPT_FLOOR=1.0; else OPT_FLOOR=1.4; fi
if ! awk -v s="$OPT_SPEEDUP" -v f="$OPT_FLOOR" 'BEGIN { exit !(s >= f) }'; then
    echo "opt sched gate: jobs=1 opt wall speedup $OPT_SPEEDUP vs the" \
        "pre-scheduler baseline is below $OPT_FLOOR" >&2
    exit 1
fi
if grep -q '"opt_sched":{"ran":[0-9]*,"skipped":0,' \
    "$CACHE_DIR/BENCH_pipeline.json"; then
    echo "opt sched gate: scheduler skipped zero pass slots at scale 192" >&2
    exit 1
fi
# Skip-ratio sanity on the demo suite, end to end through the CLI: every
# cold --timings document from the warm-cache loop above is schema 6 and
# shows the scheduler skipping work on that binary too.
for demo in HT KM LR MM PCA SM WC; do
    grep -q '^{"schema":6,' "$CACHE_DIR/$demo.cold.json"
    grep -q '"opt_sched":{"ran":[1-9]' "$CACHE_DIR/$demo.cold.json"
    if grep -q '"opt_sched":{"ran":[0-9]*,"skipped":0,' \
        "$CACHE_DIR/$demo.cold.json"; then
        echo "$demo: change-driven scheduler skipped nothing" >&2
        exit 1
    fi
done

# Translation-as-a-service smoke: a daemon on a Unix socket must serve
# assembly byte-identical to the CLI's translate output, answer a repeat
# replay of the suite entirely from the hot tier with identical response
# bytes, drain cleanly on serve-stop (no stray process, socket removed),
# and shed nothing when unloaded. The daemon runs fully observed
# (--trace-out + a sample-everything request log) to pin that the
# observability layer is output-neutral: the byte-identity and checksum
# gates below run against a traced daemon.
SOCK="$CACHE_DIR/serve.sock"
./target/release/lasagne serve --socket "$SOCK" --jobs 2 \
    --cache-dir "$CACHE_DIR/serve-cache" \
    --trace-out "$CACHE_DIR/serve.trace.json" \
    --log "$CACHE_DIR/serve.log" --log-sample 1 &
SERVE_PID=$!
./target/release/lasagne serve-client HT --socket "$SOCK" \
    >"$CACHE_DIR/HT.serve.s"
cmp "$CACHE_DIR/HT.cold.s" "$CACHE_DIR/HT.serve.s"
R1=$(./target/release/lasagne serve-bench --socket "$SOCK" --concurrency 4)
R2=$(./target/release/lasagne serve-bench --socket "$SOCK" --concurrency 4)
echo "$R1" | grep -q '"shed":0'
echo "$R2" | grep -q '"hot":7'
echo "$R2" | grep -q '"shed":0'
C1=$(echo "$R1" | sed -n 's/.*"checksum":"\([0-9a-f]*\)".*/\1/p')
C2=$(echo "$R2" | sed -n 's/.*"checksum":"\([0-9a-f]*\)".*/\1/p')
test -n "$C1" && test "$C1" = "$C2"
# The Metrics frame must parse, reconcile exactly against the Stats frame
# (per-rung histogram totals vs counters, payload histograms vs requests,
# evictions), and expose a scrapeable Prometheus body whose request total
# matches the stats counter.
./target/release/lasagne serve-metrics --socket "$SOCK" --check
METRICS=$(./target/release/lasagne serve-metrics --socket "$SOCK")
echo "$METRICS" | grep -q '^{"schema":2,'
REQS=$(echo "$METRICS" | sed -n 's/.*"stats":{"schema":2,"requests":\([0-9]*\).*/\1/p')
test -n "$REQS"
./target/release/lasagne serve-metrics --socket "$SOCK" --prom \
    >"$CACHE_DIR/serve.prom"
grep -q '^# TYPE lasagne_serve_requests counter$' "$CACHE_DIR/serve.prom"
grep -q "^lasagne_serve_requests $REQS\$" "$CACHE_DIR/serve.prom"
grep -q '^lasagne_serve_latency_hot_bucket{le="+Inf"}' "$CACHE_DIR/serve.prom"
./target/release/lasagne serve-stop --socket "$SOCK"
wait "$SERVE_PID"
test ! -e "$SOCK"
# The drained daemon flushed a valid per-request trace (named conn tracks
# pass the same validator as pipeline traces) and a request log whose
# every line is schema-1 JSON covering exactly the requests served.
./target/release/lasagne trace-check "$CACHE_DIR/serve.trace.json"
test -s "$CACHE_DIR/serve.log"
if grep -v '^{"schema":1,"id":' "$CACHE_DIR/serve.log"; then
    echo "serve request log contains a malformed line" >&2
    exit 1
fi

# Forced overload: a queue of one with both cache tiers disabled under an
# over-wide client must degrade into explicit Shed responses — nonzero
# sheds, zero hard errors. This is the only serve configuration allowed
# to shed at all.
./target/release/lasagne serve --socket "$SOCK" --jobs 2 \
    --queue 1 --hot-bytes 0 &
SERVE_PID=$!
OVERLOAD=$(./target/release/lasagne serve-bench --socket "$SOCK" \
    --concurrency 8 --reps 3)
echo "$OVERLOAD" | grep -q '"errors":0'
if echo "$OVERLOAD" | grep -q '"shed":0,'; then
    echo "serve overload gate: queue=1 at concurrency 8 never shed" >&2
    exit 1
fi
./target/release/lasagne serve-stop --socket "$SOCK"
wait "$SERVE_PID"
test ! -e "$SOCK"

# Neither the trace collector, the work-stealing pool, the pipeline, the
# serve daemon, nor the bench harness may unwrap a possibly-poisoned lock
# (a panicking worker would then take the whole trace — or the shared
# pool, or the hot tier — down with it); all acquisitions go through the
# trace crate's poison-recovering helper.
if grep -rn 'lock()\.unwrap()' crates/trace/src/ crates/pool/src/ \
    crates/lasagne/src/ crates/bench/src/ src/ | grep -v '//'; then
    echo 'trace, pool, lasagne, bench, and the CLI must use lock_clean(), not lock().unwrap()' >&2
    exit 1
fi
