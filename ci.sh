#!/bin/sh
# Offline CI for the whole workspace. The zero-external-dependency policy
# (see DESIGN.md) means every step must pass with an empty cargo registry.
set -eux

cargo fmt --all --check
cargo build --release --offline --workspace
cargo test -q --offline --workspace
# Every interpreter leg runs on the one guest `Memory`, so a bug in its
# page cache would be shared by all of them and could never surface as a
# difftest divergence. Its model test therefore runs again here with 2000
# cases instead of its usual 96.
LASAGNE_QC_CASES=2000 cargo test --release --offline -p lasagne-lir --test memory_model
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
# decisions whether the opt stage runs serially or fused at jobs=4, for
# every demo.
for demo in HT KM LR MM PCA SM WC; do
    ./target/release/lasagne explain-fences "$demo" --jobs 1 \
        >"$CACHE_DIR/$demo.exp1.txt"
    ./target/release/lasagne explain-fences "$demo" --jobs 4 \
        >"$CACHE_DIR/$demo.exp4.txt"
    cmp "$CACHE_DIR/$demo.exp1.txt" "$CACHE_DIR/$demo.exp4.txt"
done

# Capped three-way differential sweep (see ARCHITECTURE.md "Differential
# testing"): qc-generated functions + every Phoenix function on the
# byte-level x86 interpreter vs the lifted LIR vs the simulated Arm core.
# Fixed seed and bounded cases keep it deterministic and fast; the
# persisted seeds in crates/lasagne/tests/difftest.qc-regressions replay
# before any novel generation, so known-fixed lifter bugs stay pinned. A
# nonzero exit means a divergence (the shrunk counterexample is printed).
# The case count is the largest that kept this step within the wall time
# of the previous count (64) on a 2-CPU host, about 2-3 s; see
# EXPERIMENTS.md "Cold translation speed".
./target/release/lasagne difftest --cases 72 --scale 48 \
    --cache-dir "$CACHE_DIR/difftest-cache"

# Paper figures: every section of `report` is simulated cycles or static
# counts, so the whole run is deterministic. The fences section asserts
# the suite-mean Fig 14 fence reduction stays inside its pinned band and
# panics otherwise; the litmus section must find every x86 -> IR -> Arm
# mapping sound. No CI step gates on wall clock: scheduler and pool
# regressions fail exact-counter tests instead (tests/opt_parallel.rs
# pins the opt scheduler's suite counters, tests/parallel.rs the jobs=4
# fan-out structure).
./target/release/report all >"$CACHE_DIR/report.txt"
if grep 'MAPPING BUG' "$CACHE_DIR/report.txt"; then
    echo "report: litmus mapping check failed" >&2
    exit 1
fi

# Skip-ratio sanity on the demo suite, end to end through the CLI: every
# cold --timings document from the warm-cache loop above is schema 6 and
# shows the scheduler skipping work on that binary.
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
# evictions, pipeline runs vs the disk and cold rungs), and expose a
# scrapeable Prometheus body whose request total matches the stats
# counter and which carries the pipeline counters of the cold runs.
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
grep -q '^lasagne_pipeline_runs [1-9]' "$CACHE_DIR/serve.prom"
grep -q '^# TYPE lasagne_opt_sched_ran counter$' "$CACHE_DIR/serve.prom"
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
# serve daemon, nor the report harness may unwrap a possibly-poisoned lock
# (a panicking worker would then take the whole trace — or the shared
# pool, or the hot tier — down with it); all acquisitions go through the
# trace crate's poison-recovering helper. Only matches whose source text
# starts with a comment are exempt; a trailing `// note` does not hide a
# real call.
if grep -rn 'lock()\.unwrap()' crates/trace/src/ crates/pool/src/ \
    crates/lasagne/src/ crates/bench/src/ src/ |
    grep -v '^[^:]*:[0-9]*:[[:space:]]*//'; then
    echo 'trace, pool, lasagne, bench, and the CLI must use lock_clean(), not lock().unwrap()' >&2
    exit 1
fi

# The guest runtime's extern table lives in one module,
# crates/lir/src/interp/runtime.rs: the three interpreters dispatch on its
# `Extern` enum, so none of them may name an extern in a string literal
# (which would be a second, drifting copy of the runtime). Only matches
# whose source text starts with a comment are exempt.
EXTERNS='malloc|valloc|calloc|free|memset|memcpy|strlen|printf|puts|exit|abort|sqrt|sysconf|pthread_[a-z_]*'
if grep -nE "\"($EXTERNS)\"" crates/x86/src/interp.rs \
    crates/armgen/src/machine.rs crates/lir/src/interp.rs |
    grep -v '^[^:]*:[0-9]*:[[:space:]]*//'; then
    echo 'extern names belong in lasagne_lir::interp::runtime; match on Extern instead' >&2
    exit 1
fi

# The translator's back half keys its tables by dense ids or by structural
# keys (see ARCHITECTURE.md "Where to add a pass", rule 5), never by
# formatted strings: a `HashMap<String, ...>` in a pass is a `format!` per
# lookup. Only matches whose source text starts with a comment are exempt.
if grep -rn 'HashMap<String' crates/opt/src/ crates/fences/src/ \
    crates/armgen/src/ crates/refine/src/ crates/lifter/src/ |
    grep -v '^[^:]*:[0-9]*:[[:space:]]*//'; then
    echo 'opt, fences, armgen, refine and the lifter must not key tables by String' >&2
    exit 1
fi
