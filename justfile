# Development workflow for the DIVOT reproduction. Run `just` for the
# default full check — the same gates CI runs.

default: check

# Everything CI enforces, in CI's order.
check: build test doc clippy

build:
    cargo build --release --workspace

# Tier-1 (root package: integration lifecycles), then the full workspace
# in debug and in release.
test:
    cargo test -q
    cargo test --workspace -q
    cargo test --release --workspace -q

# Rustdoc must be warning-free (missing_docs is warn in every crate).
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Criterion benchmarks, quick mode (itdr includes the cached-vs-resimulated
# enrollment comparison from EXPERIMENTS.md).
bench:
    cargo bench -p divot-bench --bench itdr -- --quick
    cargo bench -p divot-bench --bench scatter -- --quick
    cargo bench -p divot-bench --bench auth -- --quick

# Scattering-kernel benchmark with machine-readable output: writes
# BENCH_scatter.json (timings + speedup metrics) at the repo root.
bench-scatter:
    CRITERION_JSON="$(pwd)/BENCH_scatter.json" cargo bench -p divot-bench --bench scatter

# Acquisition benchmark with machine-readable output: writes
# BENCH_itdr.json (timings + the Trial-vs-Analytic speedup metrics at the
# paper-full 341×420 configuration) at the repo root.
bench-itdr:
    CRITERION_JSON="$(pwd)/BENCH_itdr.json" cargo bench -p divot-bench --bench itdr

# Fleet attestation smoke: enroll 8 buses, 64 concurrent verifies over
# loopback TCP, a 1-vs-8-worker scaling gate, then the cohort smoke (64
# solo enrolls through the default worker pool under the 4 ms/board
# amortized budget) and the reactor wire smoke. Zero
# sheds, all-accept, bitwise-identical verdicts across worker counts,
# warm p50 < 2 ms, and speedup-not-inverted (on >=2 cores) are hard
# claims (nonzero exit on a MISS).
fleet-demo:
    cargo run --release -p divot-bench --bin fleet_load -- --quick

# Full fleet load benchmark: 64 buses, 16 concurrent clients, cold
# (first-touch fabrication) and warm (cached) phases at 1 and 8 workers,
# the overload/shedding phase, the 1000-board cohort intake, and the
# wire phases (reactor at 1024 connections, 10k connections, churn,
# fairness).
# Writes BENCH_fleet.json (per-phase throughput, p50/p99, speedups, shed
# rate, cohort and wire metrics) at the repo root.
bench-fleet:
    cargo run --release -p divot-bench --bin fleet_load

# Cohort cold path only: enroll a fresh 1000-board cohort as solo Enroll
# requests through the default worker pool from two client threads, timed
# in 64-board chunks. Hard claim: amortized cold p50 <= 4 ms/board
# (algorithmic — asserted on any core count). Writes BENCH_fleet.json
# with the fleet/cohort/* metrics.
bench-cohort:
    DIVOT_FLEET_PHASES=cohort cargo run --release -p divot-bench --bin fleet_load

# Golden-free intake scan: a 1024-board intake (counterfeit lots, wire
# taps, scars, probes, trojans seeded) attested against population
# models learned from cohorts of 32..512 boards — no per-device
# references anywhere. Hard claims: EER <= 5 % at cohort >= 256 for the
# counterfeit+tap pool, scan <= 4 ms/board. Writes BENCH_cohort.json
# (ROC/EER per cohort size, per-class AUCs) at the repo root.
bench-cohort-intake:
    cargo run --release -p divot-bench --bin cohort_intake

# Wire phases only: reactor throughput at 1024 connections,
# 10k-connection scaling (child driver), churn p99, and overload
# fairness. Writes BENCH_fleet.json with the fleet/wire/* metrics.
bench-wire:
    DIVOT_FLEET_PHASES=wire cargo run --release -p divot-bench --bin fleet_load

# Live fleet health monitor against a self-hosted demo fleet: starts a
# small fleet with a background load generator, subscribes to the stats
# stream over the wire, and renders 20 dashboard frames (rate, per-kind
# latency quantiles, cache tiers, shed reasons, queue/lock health).
# Point it at a real server instead with FLEET_TOP_ADDR=host:port
# (unbounded; FLEET_TOP_FRAMES/FLEET_TOP_INTERVAL_MS to tune).
fleet-top-demo:
    cargo run --release -p divot-bench --bin fleet_top

# Regenerate every paper figure/claim output into results/.
figures:
    for b in fig7_authentication fig8_temperature fig9_load_modification \
             fig9_wiretap fig9_magnetic_probe env_robustness \
             detection_latency resource_utilization spoof_resistance; do \
        cargo run --release -p divot-bench --bin $b; \
    done

# Telemetry demo: quick fig-7 run writing a JSONL event log and printing
# the metric registry at exit (signal catalog: ARCHITECTURE.md).
telemetry-demo:
    cargo run --release -p divot-bench --bin fig7_authentication -- \
        --quick --telemetry /tmp/divot-telemetry.jsonl --metrics-summary
    @echo "events: /tmp/divot-telemetry.jsonl"
