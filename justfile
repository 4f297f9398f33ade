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

# Fleet attestation smoke: the worker-scaling drive (cold verifies over
# the wire against a fresh service at 1 and at 8 workers), then the
# reactor wire smoke (512 pipelined connections) and a wire stats probe.
# All served and accepted, zero errors and sheds, p99 < 500 ms, the stats
# probe seeing the verifies, and speedup-not-inverted (on >=2 cores) are
# hard claims (nonzero exit on a MISS).
fleet-demo:
    cargo run --release -p divot-bench --bin fleet_load -- --quick

# Fleet load phases the wire benchmark of record (divot_benchmark, see
# BENCHMARK.json) cannot run: worker scaling at 1 vs 8 workers, the
# overload burst, the reactor at 1024 and 10k connections, reconnect
# churn, and overload fairness. Writes BENCH_fleet.json (host cores, git
# revision, repeat count, then the per-phase metrics) at the repo root.
bench-fleet:
    cargo run --release -p divot-bench --bin fleet_load

# Golden-free intake scan: a 1024-board intake (counterfeit lots, wire
# taps, scars, probes, trojans seeded) attested against population
# models learned from cohorts of 32..512 boards — no per-device
# references anywhere. Hard claims: EER <= 5 % at cohort >= 256 for the
# counterfeit+tap pool, scan <= 4 ms/board. Writes BENCH_cohort.json
# (ROC/EER per cohort size, per-class AUCs) at the repo root.
bench-cohort-intake:
    cargo run --release -p divot-bench --bin cohort_intake

# Live fleet health monitor against a self-hosted demo fleet: starts a
# small fleet with a background load generator, subscribes to the stats
# stream over the wire, and renders 20 dashboard frames (rate, per-kind
# latency quantiles, cache tiers, shed reasons, queue/lock health).
# Point it at a real server instead with FLEET_TOP_ADDR=host:port
# (unbounded; FLEET_TOP_FRAMES/FLEET_TOP_INTERVAL_MS to tune).
fleet-top-demo:
    cargo run --release -p divot-bench --bin fleet_top

# Run all 15 paper figure binaries in full mode (about 2.5 minutes on 2
# vCPUs). Every binary runs even after a failure; the recipe exits
# nonzero if any binary did, which includes any MISSED claim row.
figures:
    #!/usr/bin/env bash
    status=0
    for b in ablation_design calibrate detection_latency env_robustness \
             fig7_authentication fig8_temperature fig9_load_modification \
             fig9_magnetic_probe fig9_wiretap iolink_protection \
             membus_policies membus_protection multiwire_ablation \
             resource_utilization spoof_resistance; do
        cargo run --release -q -p divot-bench --bin "$b" || { echo "FAILED: $b"; status=1; }
    done
    exit "$status"

# Telemetry demo: quick fig-7 run writing a JSONL event log and printing
# the metric registry at exit (signal catalog: ARCHITECTURE.md).
telemetry-demo:
    cargo run --release -p divot-bench --bin fig7_authentication -- \
        --quick --telemetry /tmp/divot-telemetry.jsonl --metrics-summary
    @echo "events: /tmp/divot-telemetry.jsonl"
