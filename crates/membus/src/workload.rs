//! Synthetic memory workloads.

use crate::request::{MemRequest, Op};
use divot_dsp::rng::DivotRng;

/// Address-generation pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Sequential with a fixed stride (streaming).
    Sequential {
        /// Words between consecutive accesses.
        stride: u64,
    },
    /// Uniformly random over the footprint.
    Random,
    /// Hammers a small set of rows (row-buffer friendly).
    RowHog {
        /// Number of distinct hot addresses.
        hot_addresses: u64,
    },
}

/// Workload configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// The address pattern.
    pub pattern: AccessPattern,
    /// Fraction of requests that are reads.
    pub read_fraction: f64,
    /// Probability of generating a request on any given cycle
    /// (arrival rate).
    pub intensity: f64,
    /// Address footprint (words).
    pub footprint: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            pattern: AccessPattern::Sequential { stride: 1 },
            read_fraction: 0.7,
            intensity: 0.05,
            footprint: 1 << 20,
        }
    }
}

/// A request generator.
#[derive(Debug, Clone)]
pub struct Workload {
    config: WorkloadConfig,
    rng: DivotRng,
    next_id: u64,
    cursor: u64,
}

impl Workload {
    /// Create a workload.
    ///
    /// # Panics
    ///
    /// Panics if fractions are out of range or the footprint is zero.
    pub fn new(config: WorkloadConfig, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.read_fraction),
            "read_fraction must be in [0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&config.intensity),
            "intensity must be in [0,1]"
        );
        assert!(config.footprint > 0, "footprint must be non-zero");
        Self {
            config,
            rng: DivotRng::derive(seed, 0x30AD),
            next_id: 0,
            cursor: 0,
        }
    }

    /// Total requests generated so far.
    pub fn generated(&self) -> u64 {
        self.next_id
    }

    /// Possibly generate a request this cycle.
    pub fn maybe_generate(&mut self, cycle: u64) -> Option<MemRequest> {
        if !self.rng.bernoulli(self.config.intensity) {
            return None;
        }
        let addr = match self.config.pattern {
            AccessPattern::Sequential { stride } => {
                let a = self.cursor;
                self.cursor = (self.cursor + stride) % self.config.footprint;
                a
            }
            AccessPattern::Random => {
                (self.rng.uniform() * self.config.footprint as f64) as u64 % self.config.footprint
            }
            AccessPattern::RowHog { hot_addresses } => {
                self.rng.index(hot_addresses.max(1) as usize) as u64 % self.config.footprint
            }
        };
        let op = if self.rng.bernoulli(self.config.read_fraction) {
            Op::Read
        } else {
            Op::Write
        };
        let id = self.next_id;
        self.next_id += 1;
        Some(MemRequest {
            id,
            op,
            addr,
            data: id.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            issue_cycle: cycle,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intensity_controls_rate() {
        let mut w = Workload::new(
            WorkloadConfig {
                intensity: 0.25,
                ..WorkloadConfig::default()
            },
            1,
        );
        let n = 40_000;
        let generated = (0..n).filter(|&c| w.maybe_generate(c).is_some()).count();
        let rate = generated as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate={rate}");
        assert_eq!(w.generated() as usize, generated);
    }

    #[test]
    fn sequential_addresses_stride() {
        let mut w = Workload::new(
            WorkloadConfig {
                pattern: AccessPattern::Sequential { stride: 4 },
                intensity: 1.0,
                ..WorkloadConfig::default()
            },
            2,
        );
        let a = w.maybe_generate(0).unwrap();
        let b = w.maybe_generate(1).unwrap();
        assert_eq!(b.addr, a.addr + 4);
        assert_eq!(b.id, a.id + 1);
    }

    #[test]
    fn footprint_wraps() {
        let mut w = Workload::new(
            WorkloadConfig {
                pattern: AccessPattern::Sequential { stride: 3 },
                intensity: 1.0,
                footprint: 7,
                ..WorkloadConfig::default()
            },
            3,
        );
        for c in 0..100 {
            let r = w.maybe_generate(c).unwrap();
            assert!(r.addr < 7);
        }
    }

    #[test]
    fn row_hog_uses_few_addresses() {
        let mut w = Workload::new(
            WorkloadConfig {
                pattern: AccessPattern::RowHog { hot_addresses: 4 },
                intensity: 1.0,
                ..WorkloadConfig::default()
            },
            4,
        );
        let mut seen = std::collections::HashSet::new();
        for c in 0..1000 {
            seen.insert(w.maybe_generate(c).unwrap().addr);
        }
        assert!(seen.len() <= 4);
    }

    #[test]
    fn read_fraction_respected() {
        let mut w = Workload::new(
            WorkloadConfig {
                read_fraction: 0.9,
                intensity: 1.0,
                ..WorkloadConfig::default()
            },
            5,
        );
        let reads = (0..10_000)
            .filter(|&c| w.maybe_generate(c).unwrap().op == Op::Read)
            .count();
        assert!((reads as f64 / 10_000.0 - 0.9).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "read_fraction must be in [0,1]")]
    fn rejects_bad_fraction() {
        let _ = Workload::new(
            WorkloadConfig {
                read_fraction: 1.5,
                ..WorkloadConfig::default()
            },
            0,
        );
    }
}
