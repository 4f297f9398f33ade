//! The measurement-time model behind the paper's latency claims.
//!
//! §I/§IV: "both authentication and tamper detection can be completed
//! within 50 µs" at the prototype's 156.25 MHz clock, and "with GHz clock
//! speed in modern computers, DIVOT is able to alert any unauthorized data
//! access or physical tampering within memory operation time frame."

use crate::itdr::ItdrConfig;
use crate::trigger::TriggerSource;

/// Timing analysis of one iTDR deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    /// Where probe triggers come from.
    pub source: TriggerSource,
    /// The instrument configuration.
    pub itdr: ItdrConfig,
}

impl TimingModel {
    /// The paper prototype: clock-lane triggers at 156.25 MHz with the
    /// paper iTDR configuration.
    pub fn paper_prototype() -> Self {
        Self {
            source: TriggerSource::paper_prototype(),
            itdr: ItdrConfig::paper(),
        }
    }

    /// Time for one full IIP measurement (= one authentication or tamper
    /// check).
    pub fn measurement_time(&self) -> f64 {
        self.source.time_for_triggers(self.itdr.total_triggers())
    }

    /// Whether one check fits in the paper's 50 µs budget.
    pub fn meets_50us_budget(&self) -> bool {
        self.measurement_time() <= 50e-6
    }

    /// Detection latency when the monitor averages `avg_count`
    /// measurements per decision.
    ///
    /// # Panics
    ///
    /// Panics if `avg_count == 0`.
    pub fn detection_latency(&self, avg_count: u32) -> f64 {
        assert!(avg_count > 0, "need at least one measurement per decision");
        self.measurement_time() * avg_count as f64
    }

    /// The same deployment moved onto a faster bus clock (e.g. a 1.6 GHz
    /// DDR interface): measurement time scales inversely with clock rate.
    pub fn at_clock(&self, frequency_hz: f64) -> TimingModel {
        assert!(frequency_hz > 0.0, "clock frequency must be positive");
        let source = match self.source {
            TriggerSource::ClockLane(_) => {
                TriggerSource::ClockLane(divot_analog::linecode::ClockLane {
                    frequency: frequency_hz,
                })
            }
            TriggerSource::DataLane { code, .. } => TriggerSource::DataLane {
                code,
                symbol_rate: frequency_hz,
            },
        };
        TimingModel {
            source,
            itdr: self.itdr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use divot_analog::linecode::LineCode;

    #[test]
    fn paper_prototype_meets_50us() {
        let t = TimingModel::paper_prototype();
        let m = t.measurement_time();
        assert!(m < 50e-6, "measurement time {m}");
        assert!(m > 20e-6, "should still be tens of µs: {m}");
        assert!(t.meets_50us_budget());
    }

    #[test]
    fn ghz_clock_is_memory_operation_scale() {
        // On a 1.6 GHz memory clock the same check takes single-digit µs —
        // comparable to a few DRAM refresh intervals, i.e. "within memory
        // operation time frame".
        let t = TimingModel::paper_prototype().at_clock(1.6e9);
        let m = t.measurement_time();
        assert!(m < 5e-6, "GHz-clock check should be <5 µs: {m}");
    }

    #[test]
    fn detection_latency_scales_with_averaging() {
        let t = TimingModel::paper_prototype();
        let one = t.detection_latency(1);
        let eight = t.detection_latency(8);
        assert!((eight / one - 8.0).abs() < 1e-9);
    }

    #[test]
    fn data_lane_is_slower_by_density() {
        let clk = TimingModel::paper_prototype();
        let data = TimingModel {
            source: TriggerSource::DataLane {
                code: LineCode::Nrz,
                symbol_rate: 156.25e6,
            },
            itdr: clk.itdr,
        };
        assert!((data.measurement_time() / clk.measurement_time() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn high_fidelity_trades_time() {
        let t = TimingModel {
            itdr: ItdrConfig::high_fidelity(),
            ..TimingModel::paper_prototype()
        };
        assert!(!t.meets_50us_budget());
        assert!(t.measurement_time() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "need at least one measurement")]
    fn rejects_zero_averaging() {
        let _ = TimingModel::paper_prototype().detection_latency(0);
    }
}
