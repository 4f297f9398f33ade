//! Runtime trigger sources (paper §II-E).
//!
//! The iTDR needs repeatable probe edges. On the clock lane every rising
//! edge qualifies — one trigger per clock cycle, no extra logic. On a data
//! lane the random traffic's rising and falling reflections would cancel,
//! so a FIFO look-ahead fires the trigger only on falling (`1` before `0`)
//! launches, which happens on a fixed fraction of unit intervals for random
//! data.

use divot_analog::linecode::{expected_trigger_density, ClockLane, LineCode};

/// Where an iTDR gets its probe triggers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TriggerSource {
    /// The bus clock lane: one trigger per clock cycle.
    ClockLane(ClockLane),
    /// A data lane carrying random traffic under a line code at the given
    /// symbol rate (symbols/second); only falling-edge launches trigger.
    DataLane {
        /// The modulation scheme.
        code: LineCode,
        /// Symbols per second.
        symbol_rate: f64,
    },
}

impl TriggerSource {
    /// The paper prototype's source: the 156.25 MHz clock lane.
    pub fn paper_prototype() -> Self {
        TriggerSource::ClockLane(ClockLane::paper_prototype())
    }

    /// Average usable triggers per second.
    pub fn trigger_rate(&self) -> f64 {
        match *self {
            TriggerSource::ClockLane(clk) => clk.trigger_rate(),
            TriggerSource::DataLane { code, symbol_rate } => {
                symbol_rate * expected_trigger_density(code)
            }
        }
    }

    /// Expected time to accumulate `n` triggers.
    pub fn time_for_triggers(&self, n: u64) -> f64 {
        n as f64 / self.trigger_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_lane_uses_every_cycle() {
        let src = TriggerSource::paper_prototype();
        assert_eq!(src.trigger_rate(), 156.25e6);
    }

    #[test]
    fn nrz_data_lane_quarters_the_rate() {
        let src = TriggerSource::DataLane {
            code: LineCode::Nrz,
            symbol_rate: 156.25e6,
        };
        assert!((src.trigger_rate() - 156.25e6 / 4.0).abs() < 1.0);
    }

    #[test]
    fn pam4_data_lane_density() {
        let src = TriggerSource::DataLane {
            code: LineCode::Pam4,
            symbol_rate: 1e9,
        };
        assert!((src.trigger_rate() - 3.75e8).abs() < 1.0);
    }

    #[test]
    fn time_scales_inversely_with_rate() {
        let clk = TriggerSource::paper_prototype();
        let data = TriggerSource::DataLane {
            code: LineCode::Nrz,
            symbol_rate: 156.25e6,
        };
        let n = 7161;
        assert!((data.time_for_triggers(n) / clk.time_for_triggers(n) - 4.0).abs() < 1e-9);
    }
}
