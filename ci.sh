#!/usr/bin/env sh
# Offline CI gate: formatting, lints, the tier-1 verify, and every test
# in the workspace.
set -eux

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release
cargo test -q
cargo test --workspace -q
# Path-sensitive lint self-checks first, by name: the event-grammar
# typestate and cost-unit flow lints each must flag their violating
# fixture and stay quiet on their clean twin, so a regression in the
# CFG/dataflow layer can never silently green the repo gate below.
for lint in event_typestate cost_units; do
    if cargo run -q -p cce-analyze -- "crates/analyze/fixtures/${lint}_violating.rs"; then
        echo "self-check: ${lint} lint found nothing in its violating fixture" >&2
        exit 1
    fi
    cargo run -q -p cce-analyze -- "crates/analyze/fixtures/${lint}_clean.rs"
done
# Then the full fixture sweep: each violating fixture must fail, each
# clean one must pass, so a broken lint can never green the repo gate.
for fixture in crates/analyze/fixtures/*_violating.rs; do
    if cargo run -q -p cce-analyze -- "$fixture"; then
        echo "self-check: $fixture should have produced findings" >&2
        exit 1
    fi
done
for fixture in crates/analyze/fixtures/*_clean.rs; do
    cargo run -q -p cce-analyze -- "$fixture"
done
# The workspace gate: hard-fails on any finding above the committed
# baseline, on a stale baseline, or if analysis blows its wall-time
# budget. The SARIF log is emitted alongside for upload/inspection.
cargo run -p cce-analyze -- --baseline analyze-baseline.json --budget-ms 5000
cargo run -q -p cce-analyze -- --baseline analyze-baseline.json --format sarif > analyze.sarif || true
head -c 400 analyze.sarif; echo
# Concurrent conformance at a pinned thread axis: per-tenant event
# streams must be byte-identical to solo runs both single-threaded and
# under real contention.
CCE_TEST_THREADS=1 cargo test -q -p cce-core --test concurrent_conformance
CCE_TEST_THREADS=4 cargo test -q -p cce-core --test concurrent_conformance
# Lock-interleaving stress at the same axis: the arbiter→tenant
# descent the lock-graph lint proves acyclic must also survive real
# scheduling (a deadlock trips the test's watchdog, not the CI timeout).
CCE_TEST_THREADS=1 cargo test -q -p cce-core --test lock_interleave
CCE_TEST_THREADS=4 cargo test -q -p cce-core --test lock_interleave
# Trace-I/O micro-benchmark: regenerates BENCH_trace_io.json so the
# binary decode path's advantage over JSON stays visible in review.
cargo run --release -p cce-experiments -- bench_trace_io --scale 0.2 --quiet --out BENCH_trace_io.json
# Concurrent-serving micro-benchmark: regenerates BENCH_concurrent.json.
# --smoke hard-fails the gate when the host has at least two CPUs and
# two threads beat one by less than 1.1x: tenants own their lanes, so
# negative scaling means lock contention came back. A single-CPU host
# only records the timings (the JSON carries available_parallelism).
cargo run --release -p cce-experiments -- bench_concurrent --scale 0.2 --smoke --quiet --out BENCH_concurrent.json
# Serve smoke: a short fixed-seed open-loop run through the framed
# transport and the concurrent server loop, regenerating
# BENCH_serve.json. --smoke hard-fails the gate unless the run applied
# events and shed nothing (drops under nominal load mean the serving
# path regressed). The serve↔offline byte-identity itself is pinned by
# crates/sim/tests/serve_conformance.rs in the test pass above.
CCE_TEST_THREADS=1 cargo test -q -p cce-sim --test serve_conformance
CCE_TEST_THREADS=4 cargo test -q -p cce-sim --test serve_conformance
# Ladder conformance at the same thread axis: the single-pass
# configuration ladder (DESIGN.md §14) must stay byte-identical to the
# per-cell naive oracle — matrix results and per-cell event streams —
# before any figure job is allowed to use it.
CCE_TEST_THREADS=1 cargo test -q -p cce-sim --test ladder_conformance
CCE_TEST_THREADS=4 cargo test -q -p cce-sim --test ladder_conformance
# Grid-sweep micro-benchmark: regenerates BENCH_grid.json. --smoke
# hard-fails the gate if the ladder's speedup over the per-cell sweep
# drops below 5x (a regression back toward per-cell cost); the bench
# itself also fails if the two grids are not byte-identical.
cargo run --release -p cce-experiments -- bench_grid --scale 0.2 --seed 7 --smoke --quiet --out BENCH_grid.json
cargo run --release -p cce-experiments -- serve --rps 2000 --duration 2 \
    --tenants 4 --threads 2 --seed 7 --scale 0.2 --smoke --quiet --out BENCH_serve.json
