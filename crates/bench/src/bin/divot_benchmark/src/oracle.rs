//! The correctness oracle: shadow instances of every layer the service
//! composes, and a fixed-size reservoir of hash-sampled replies checked
//! against them bit for bit.
//!
//! The shadow is built from the same configuration as the live service
//! (`FleetConfig::default()`, the workload's `FleetSimConfig`), so the
//! service's determinism contract — a reply is a pure function of
//! `(fleet seed, device, nonce)` and the enrolled pairing — makes every
//! live reply recomputable here: `acquire` → `with_pairing` →
//! `Authenticator::verify` for a verdict, `learn` → `attest` for an
//! intake board.

use crate::workload::{Spec, Stream};
use divot_cohort::PopulationModel;
use divot_core::auth::Authenticator;
use divot_core::exec::ExecPolicy;
use divot_dsp::rng::mix_seed;
use divot_fleet::{FleetConfig, FleetStore, IntakeReport, SimulatedFleet};
use std::collections::BTreeMap;

/// Shadow copies of the service's layers, built from the same config.
#[derive(Debug)]
pub struct Shadow {
    /// The simulated hardware.
    pub sim: SimulatedFleet,
    /// The pairing store.
    pub store: FleetStore,
    /// The verify decision.
    pub auth: Authenticator,
    /// The service configuration the shadow mirrors.
    pub config: FleetConfig,
    /// The population model, once learned.
    pub model: Option<PopulationModel>,
}

impl Shadow {
    /// Fresh shadows of the live service for `spec`.
    pub fn new(spec: &Spec) -> Self {
        let config = FleetConfig::default();
        Self {
            sim: SimulatedFleet::new(spec.sim_config()),
            store: FleetStore::new(config.shards),
            auth: Authenticator::new(config.auth),
            model: None,
            config,
        }
    }

    /// Enroll every device of `devices` not yet in the shadow store,
    /// under the same nonce the benchmark enrolled it with live.
    pub fn ensure_enrolled(&self, stream: &Stream, devices: &[usize]) {
        let mut todo: Vec<usize> = devices
            .iter()
            .copied()
            .filter(|&d| {
                self.store
                    .with_pairing(&SimulatedFleet::device_name(d), |_| ())
                    .is_none()
            })
            .collect();
        todo.sort_unstable();
        todo.dedup();
        let pairings = ExecPolicy::Parallel.run_indexed(todo.len(), |i| {
            let name = SimulatedFleet::device_name(todo[i]);
            self.sim
                .enroll(&name, stream.enroll_nonce(todo[i]))
                .expect("device exists in the shadow fleet")
        });
        for (&d, pairing) in todo.iter().zip(pairings) {
            self.store
                .register(&SimulatedFleet::device_name(d), pairing);
        }
    }

    /// The verdict the service owes `(device, nonce)`: `(accepted,
    /// similarity)`. The device must be enrolled in the shadow.
    pub fn verify(&self, device: usize, nonce: u64) -> (bool, f64) {
        let name = SimulatedFleet::device_name(device);
        let measured = self.sim.acquire(&name, nonce).expect("device exists");
        let decision = self
            .store
            .with_pairing(&name, |p| self.auth.verify(&p.master, &measured))
            .expect("shadow pairing enrolled");
        (decision.is_accept(), decision.similarity())
    }

    /// Learn the population model from `rows`, as `CohortEnroll` does.
    pub fn learn(&mut self, rows: &[(usize, u64)]) -> &PopulationModel {
        let named = named_rows(rows);
        let prints = self
            .sim
            .acquire_batch(&named, ExecPolicy::auto())
            .expect("cohort devices exist");
        let views: Vec<&[f64]> = prints.iter().map(|w| w.samples()).collect();
        let model = PopulationModel::learn(&views, self.config.cohort)
            .expect("the benchmark cohort is learnable");
        self.model.insert(model)
    }

    /// The intake report the service owes board `(device, nonce)`.
    pub fn attest(&self, device: usize, nonce: u64) -> IntakeReport {
        let model = self.model.as_ref().expect("cohort model learned");
        let name = SimulatedFleet::device_name(device);
        let w = self.sim.acquire(&name, nonce).expect("device exists");
        report(name, model, w.samples())
    }
}

/// `(device index, nonce)` rows as the `(name, nonce)` rows the fleet API takes.
pub fn named_rows(rows: &[(usize, u64)]) -> Vec<(String, u64)> {
    rows.iter()
        .map(|&(d, n)| (SimulatedFleet::device_name(d), n))
        .collect()
}

/// The wire report of one attested board (the service's own mapping).
pub fn report(device: String, model: &PopulationModel, samples: &[f64]) -> IntakeReport {
    let (verdict, score) = model.attest(samples);
    IntakeReport {
        device,
        verdict,
        score: score.score,
        similarity: score.similarity,
        max_z: score.max_z,
        deviant_segments: score.deviant_segments as u32,
        worst_segment: score.worst_segment as u32,
    }
}

/// Bitwise equality of two intake reports (floats compared by bits).
pub fn same_report(a: &IntakeReport, b: &IntakeReport) -> bool {
    a.device == b.device
        && a.verdict == b.verdict
        && a.score.to_bits() == b.score.to_bits()
        && a.similarity.to_bits() == b.similarity.to_bits()
        && a.max_z.to_bits() == b.max_z.to_bits()
        && a.deviant_segments == b.deviant_segments
        && a.worst_segment == b.worst_segment
}

/// One sampled live reply.
#[derive(Debug, Clone)]
pub enum Sample {
    /// A verify verdict.
    Verdict {
        /// Device index.
        device: usize,
        /// Request nonce.
        nonce: u64,
        /// Reported decision.
        accepted: bool,
        /// Reported similarity.
        similarity: f64,
    },
    /// One board of an intake scan.
    Board {
        /// Device index.
        device: usize,
        /// Request nonce.
        nonce: u64,
        /// The reported row.
        report: IntakeReport,
    },
}

impl Sample {
    fn key(&self) -> u64 {
        match self {
            Sample::Verdict { device, nonce, .. } => mix_seed(*device as u64, *nonce),
            Sample::Board { device, nonce, .. } => mix_seed(!(*device as u64), *nonce),
        }
    }

    /// Recompute this reply on the shadow and compare bit for bit.
    pub fn matches(&self, shadow: &Shadow) -> bool {
        match self {
            Sample::Verdict {
                device,
                nonce,
                accepted,
                similarity,
            } => {
                let (a, s) = shadow.verify(*device, *nonce);
                a == *accepted && s.to_bits() == similarity.to_bits()
            }
            Sample::Board {
                device,
                nonce,
                report,
            } => same_report(&shadow.attest(*device, *nonce), report),
        }
    }
}

/// A bottom-k sample of replies keyed by a hash of the request identity:
/// which replies are kept depends only on which requests were answered,
/// never on timing, and memory is capped at `capacity` samples.
#[derive(Debug)]
pub struct Reservoir {
    capacity: usize,
    kept: BTreeMap<u64, Sample>,
}

impl Reservoir {
    /// An empty reservoir holding at most `capacity` samples.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            kept: BTreeMap::new(),
        }
    }

    /// Offer one reply.
    pub fn offer(&mut self, sample: Sample) {
        let key = sample.key();
        if self.kept.len() >= self.capacity {
            match self.kept.last_key_value() {
                Some((&max, _)) if key < max => {}
                _ => return,
            }
        }
        if self.kept.insert(key, sample).is_none() && self.kept.len() > self.capacity {
            self.kept.pop_last();
        }
    }

    /// Samples kept.
    pub fn len(&self) -> usize {
        self.kept.len()
    }

    /// Check every kept sample against the shadow (enrolling the sampled
    /// devices first); returns the number of mismatches.
    pub fn check(&self, shadow: &Shadow, stream: &Stream) -> u64 {
        let samples: Vec<&Sample> = self.kept.values().collect();
        let verified: Vec<usize> = samples
            .iter()
            .filter_map(|s| match s {
                Sample::Verdict { device, .. } => Some(*device),
                Sample::Board { .. } => None,
            })
            .collect();
        shadow.ensure_enrolled(stream, &verified);
        ExecPolicy::Parallel
            .run_indexed(samples.len(), |i| samples[i].matches(shadow))
            .into_iter()
            .filter(|ok| !ok)
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn a_flipped_similarity_bit_is_caught() {
        let spec = Spec::new(Workload::VerifyFresh, 1.0, true);
        let stream = Stream::new(&spec, 5);
        let shadow = Shadow::new(&spec);
        shadow.ensure_enrolled(&stream, &[3]);
        let (accepted, similarity) = shadow.verify(3, 77);
        let mut reservoir = Reservoir::new(4);
        reservoir.offer(Sample::Verdict {
            device: 3,
            nonce: 77,
            accepted,
            similarity,
        });
        assert_eq!(
            reservoir.check(&shadow, &stream),
            0,
            "the true reply passes"
        );
        let mut flipped = Reservoir::new(4);
        flipped.offer(Sample::Verdict {
            device: 3,
            nonce: 77,
            accepted,
            similarity: f64::from_bits(similarity.to_bits() ^ 1),
        });
        assert_eq!(
            flipped.check(&shadow, &stream),
            1,
            "one flipped bit is a mismatch"
        );
    }

    #[test]
    fn reservoir_keeps_the_smallest_hashes_and_ignores_repeats() {
        let verdict = |device: usize, nonce: u64| Sample::Verdict {
            device,
            nonce,
            accepted: true,
            similarity: 0.95,
        };
        let mut a = Reservoir::new(8);
        let mut b = Reservoir::new(8);
        for n in 0..100 {
            a.offer(verdict(1, n));
        }
        for n in (0..100).rev() {
            b.offer(verdict(1, n));
            b.offer(verdict(1, n));
        }
        assert_eq!(a.len(), 8);
        assert_eq!(
            a.kept.keys().collect::<Vec<_>>(),
            b.kept.keys().collect::<Vec<_>>(),
            "the sample is independent of arrival order and repeats"
        );
    }
}
