# Task runner for the MCD DVFS reproduction.
#
# Install `just` (https://github.com/casey/just) or read the recipes as plain
# shell — each one is a single cargo invocation.

# Build every crate in release mode.
build:
    cargo build --release

# Run the full test suite (unit, integration, doc tests).
test:
    cargo test -q

# Run only the golden-metrics regression harness (also part of `just test`):
# per-scheme headline metrics on a fixed benchmark panel vs. checked-in values.
golden:
    cargo test --test golden

# Lint: clippy with warnings denied, plus formatting check.
lint:
    cargo clippy --all-targets -- -D warnings
    cargo fmt --check

# Format the whole workspace in place.
fmt:
    cargo fmt

# Run the CI performance gate's five stages, each in a fresh child process
# timed on the process CPU clock (median of 3): a cold fig4 --quick
# evaluation, the batched slowdown sweep at one point and at ten points in a
# single batch, and the load-test stream under serial and batched
# submission. The report goes to BENCH_9.json. Per-layer timing lives in
# perfbench/; see README "Performance".
bench:
    cargo run --release --bin perf_report

# Compare a fresh bench run against the committed BENCH_9.json, on the CPU
# clock: fails on a >25% fig4_quick / sweep / load_batched regression (or
# when the committed report lacks one of them), when the ten-point batched
# sweep costs 4x or more the one-point cost, when batched load-test
# submission is less than 4x cheaper than serial, or when the serial and
# batched metrics digests diverge (the CI gates).
bench-check:
    cargo run --release --bin perf_report -- --check BENCH_9.json --out /tmp/bench-check.json

# Replay the full synthetic load-test stream: serial-vs-batched throughput
# with latency percentiles and a bit-exact metrics digest, admission control
# under queue-capacity and rate-limit pressure, N concurrent cold processes
# proving the shared cache's single-writer guarantee, and the chaos phase
# (seeded fault injection against the self-healing machinery).
loadtest:
    cargo run --release --bin loadtest

# The CI-sized load test (3 points per benchmark, same invariants).
loadtest-smoke:
    cargo run --release --bin loadtest -- --smoke

# Only the chaos phase: the CI-sized stream under a seeded fault plan
# (injected read/write errors, torn writes, lock stalls, worker panics),
# asserting exactly-one-terminal-per-job, bit-identical survivors, verified
# artifacts, and zero stranded debris. Override the seed to replay a failure:
# `just chaos 1234`.
chaos seed="42":
    cargo run --release --bin loadtest -- --chaos-only --smoke --fault-seed {{seed}}

# Streaming-evaluation smoke test: three jobs on one Evaluator, asserting
# per-job event delivery before the batch completes (the CI step).
stream-smoke:
    cargo run --release --example streaming_eval

# Run the controller tournament: every registered scheme (paper schemes +
# controller zoo) across all three suite tiers through one batched Evaluator,
# reported as metric matrices plus per-tier and overall rankings.
tournament:
    cargo run --release --bin tournament -- --quick

# The full-suite tournament (all nineteen paper benchmarks + second tier).
tournament-full:
    cargo run --release --bin tournament

# Print artifact-cache entries, sizes, and accumulated hit/miss counters.
cache-stats:
    cargo run --release --bin cache_stats

# Delete the artifact cache (respects MCD_CACHE_DIR, defaults to .mcd-cache).
cache-clean:
    rm -rf "${MCD_CACHE_DIR:-.mcd-cache}"

# Regenerate every paper figure and table (quick six-benchmark subset).
figures:
    cargo run --release --bin table1_config
    cargo run --release --bin table2_windows
    cargo run --release --bin table3_coverage
    cargo run --release --bin table4_overhead
    cargo run --release --bin fig4_slowdown -- --quick
    cargo run --release --bin fig5_energy -- --quick
    cargo run --release --bin fig6_energy_delay -- --quick
    cargo run --release --bin fig7_summary -- --quick
    cargo run --release --bin fig8_9_context
    cargo run --release --bin fig10_11_sweep -- --quick
    cargo run --release --bin fig12_overhead -- --quick
    cargo run --release --bin fig13_server_suite -- --quick
    cargo run --release --bin mcd_baseline_penalty -- --quick
    cargo run --release --bin ablation_threshold

# Regenerate every figure over the full nineteen-benchmark suite (slow).
figures-full:
    cargo run --release --bin fig4_slowdown
    cargo run --release --bin fig5_energy
    cargo run --release --bin fig6_energy_delay
    cargo run --release --bin fig7_summary
    cargo run --release --bin fig10_11_sweep -- --full
    cargo run --release --bin fig12_overhead
    cargo run --release --bin fig13_server_suite
    cargo run --release --bin mcd_baseline_penalty
