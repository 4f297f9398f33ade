//! Fleet-scale attestation service for DIVOT-protected buses.
//!
//! The paper's §IV scaling argument — one shared iTDR datapath
//! multiplexed across many protected lanes — is modeled inside one chip
//! by [`DivotHub`](divot_core::hub::DivotHub). This crate lifts that
//! model to the deployment the PUF-fleet literature envisions (a central
//! verifier attesting many field devices): a std-only concurrent service
//! that owns a population of enrolled buses and serves `Enroll`,
//! `Verify`, `MonitorScan`, and `RegistrySnapshot` requests from many
//! clients at once. The golden-free intake path (`CohortEnroll` /
//! `IntakeScan`, backed by [`divot_cohort`]) attests boards against a
//! population model learned from a cohort — no per-device reference
//! fingerprints required.
//!
//! The moving parts, one module each:
//!
//! - [`store`] — [`FleetStore`]: enrolled pairings
//!   sharded by device id, one `RwLock` per shard, persisted as
//!   [`FingerprintRegistry`](divot_core::registry::FingerprintRegistry)
//!   EPROM bank images with atomic-rename durability.
//! - [`sim`] — [`SimulatedFleet`]: the physics
//!   behind the service. Every device is a Tx-line fabricated on first
//!   use, and a warm device keeps only what its acquisitions read; every
//!   acquisition derives its RNG stream from `(device, nonce)`, so the
//!   service's answers are a pure function of the request — the property
//!   every concurrency test in this crate leans on.
//! - [`service`] — [`FleetService`]: a worker
//!   pool behind a *bounded* admission queue. Overload sheds requests
//!   with a typed [`FleetError::Overloaded`](error::FleetError) instead
//!   of buffering without bound; expired deadlines are rejected at
//!   dequeue; transient acquisition faults retry with deterministic
//!   jittered backoff.
//! - [`cache`] — [`VerdictCache`](cache::VerdictCache): verdict
//!   memoization behind the verify fast path, one tier shared by every
//!   worker and the reactor, striped inside the store's shards; keys
//!   embed the shard's enrollment generation so re-enrollment
//!   invalidates without a cache walk.
//! - [`wire`] — a length-prefixed binary protocol with one version:
//!   id-tagged requests answered by enveloped replies in completion
//!   order, plus the blocking [`PipelinedFleetClient`]. The in-process
//!   [`FleetClient`] and the TCP path share one request/response
//!   vocabulary.
//! - [`reactor`] — the server behind [`FleetTcpServer::spawn`]: a
//!   single poll-based readiness loop (via `divot-polling`)
//!   multiplexing 10k+ nonblocking connections with request
//!   pipelining, round-robin fair admission, cache-inline serving,
//!   device-coalesced batch submission, and streaming `MonitorScan`
//!   and stats subscriptions. A checked-in reply transcript
//!   (`tests/golden/`) pins its bytes.
//!
//! # Determinism contract
//!
//! Verdicts depend only on `(fleet seed, device, nonce)`: worker count,
//! queue pressure, request interleaving, and telemetry on/off cannot
//! change a single bit of any similarity score
//! (`tests/determinism.rs`). Scheduling decides *when* a request is
//! answered — or whether it is shed — never *what* the answer is.
//!
//! # Telemetry
//!
//! With a [`divot_telemetry`] default installed the service exports
//! `fleet.queue.depth` (gauge), `fleet.request.latency` plus per-kind
//! latency histograms, `fleet.verify.accepts` / `fleet.verify.rejects`,
//! `fleet.shed`, `fleet.deadline_misses`, `fleet.retries`, and the
//! verdict-cache counters `fleet.cache.verdict_hits` /
//! `fleet.cache.misses` / `fleet.cache.evictions`. The reactor adds
//! `fleet.reactor.wakeups`, `fleet.reactor.frames`,
//! `fleet.reactor.frames_per_wakeup`, `fleet.reactor.pipeline_depth`,
//! `fleet.reactor.batch_width`, `fleet.reactor.inline_hits`,
//! `fleet.reactor.inline_stats`, `fleet.reactor.coalesced`,
//! `fleet.reactor.sheds_fair`, `fleet.reactor.pushes`,
//! `fleet.reactor.push_skips`, and the gauges `fleet.reactor.conns` /
//! `fleet.reactor.subs`. `fleet.queue.wait_ns` and the per-shard
//! `fleet.store.shard.NNN.lock_hold_ns` histograms time the admission
//! queue and store-lock critical sections. The golden-free intake path
//! adds `fleet.cohort.model.rebuilds`, `fleet.cohort.scans`, and the
//! verdict breakdown `fleet.cohort.verdict.genuine` /
//! `.counterfeit` / `.tampered` / `.inconclusive`.
//!
//! # Observability plane
//!
//! The whole stack is observable without being influenceable: metrics
//! ([`divot_telemetry`] counters/gauges/histograms), deterministic
//! per-request traces
//! ([`divot_telemetry::TraceCtx`], sampled by a pure hash of the
//! request), and wire-exposed stats ([`Request::Stats`] →
//! [`FleetStats`], plus streaming stats subscriptions) all read state;
//! none feed back into scheduling or verdicts. See the
//! `ARCHITECTURE.md` "Observability plane" section for the trace
//! lifecycle and stats wire flow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod error;
pub mod reactor;
pub mod service;
pub mod sim;
pub mod store;
pub mod wire;

pub use error::{FleetError, ShedReason};
pub use reactor::ReactorConfig;
pub use service::{
    Completion, CompletionQueue, FleetClient, FleetConfig, FleetService, FleetStats, IntakeReport,
    Request, Response, RetryPolicy,
};
pub use sim::{subscription_nonce, Anomaly, FleetSimConfig, SimulatedFleet};
pub use store::FleetStore;
pub use wire::{FleetTcpServer, PipelinedFleetClient, WireEvent, WireRequest};
