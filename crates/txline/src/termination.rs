//! Termination (load) models for the far end of a Tx-line.
//!
//! The termination's reflection is the largest single feature of a TDR
//! trace, and *changing the termination* is exactly what a Trojan-chip swap
//! or cold-boot module replacement does (paper §IV-D, Fig. 9(b,c)). We model
//! both memoryless loads (resistive) and the R ∥ C input network of a real
//! receiver chip, whose reflection is a first-order filtered response.

use crate::units::{Farads, Ohms};

/// A far-end load on a Tx-line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Termination {
    /// Perfectly matched to the local line impedance: no reflection.
    Matched,
    /// Open circuit: total positive reflection.
    Open,
    /// Short circuit: total negative reflection.
    Short,
    /// A purely resistive load.
    Resistive(Ohms),
    /// A receiver-chip input modeled as resistance in parallel with
    /// capacitance — the realistic model for a DRAM/SDRAM pin.
    Chip(ChipInput),
}

/// The R ∥ C input network of a receiver chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipInput {
    /// On-die termination / input resistance.
    pub resistance: Ohms,
    /// Pad + ESD + gate capacitance.
    pub capacitance: Farads,
}

impl ChipInput {
    /// A typical SDRAM receiver: 60 Ω on-die termination, 2 pF input
    /// capacitance.
    pub fn typical_sdram() -> Self {
        Self {
            resistance: Ohms(60.0),
            capacitance: Farads(2e-12),
        }
    }

    /// A process-varied clone of this chip model: same part number,
    /// different die. `spread` is the relative sigma of both R and C
    /// (a few percent for a real process).
    pub fn process_variant(&self, spread: f64, rng: &mut divot_dsp::rng::DivotRng) -> Self {
        let r = self.resistance.0 * (1.0 + rng.normal(0.0, spread));
        let c = self.capacitance.0 * (1.0 + rng.normal(0.0, spread));
        Self {
            resistance: Ohms(r.max(1.0)),
            capacitance: Farads(c.max(1e-15)),
        }
    }
}

impl Termination {
    /// Create the stateful reflector that the time-domain scattering engine
    /// steps once per tick of length `dt` seconds, against the local line
    /// impedance `z_line`.
    ///
    /// # Panics
    ///
    /// Panics if `z_line <= 0` or `dt <= 0`.
    pub fn reflector(&self, z_line: Ohms, dt: f64) -> Reflector {
        assert!(z_line.0 > 0.0, "line impedance must be positive");
        assert!(dt > 0.0, "dt must be positive");
        match *self {
            Termination::Matched => Reflector::constant(0.0),
            Termination::Open => Reflector::constant(1.0),
            Termination::Short => Reflector::constant(-1.0),
            Termination::Resistive(r) => {
                assert!(r.0 > 0.0, "resistive load must be positive");
                Reflector::constant((r.0 - z_line.0) / (r.0 + z_line.0))
            }
            Termination::Chip(chip) => Reflector::chip(chip, z_line, dt),
        }
    }
}

/// Stateful reflection computer for a termination, stepped once per
/// simulation tick with the incident wave amplitude.
///
/// For memoryless loads this is a constant gain; for the R ∥ C chip input it
/// is the backward-Euler discretization of the first-order reflection
/// transfer function
///
/// ```text
/// Γ(s) = ((R−Z) − sZRC) / ((R+Z) + sZRC)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Reflector {
    kind: ReflectorKind,
}

#[derive(Debug, Clone, PartialEq)]
enum ReflectorKind {
    Constant(f64),
    FirstOrder {
        // y[n] = c_x0·x[n] + c_x1·x[n−1] + c_y1·y[n−1]
        c_x0: f64,
        c_x1: f64,
        c_y1: f64,
        x_prev: f64,
        y_prev: f64,
    },
}

impl Reflector {
    fn constant(gamma: f64) -> Self {
        Self {
            kind: ReflectorKind::Constant(gamma),
        }
    }

    fn chip(chip: ChipInput, z_line: Ohms, dt: f64) -> Self {
        let r = chip.resistance.0;
        let z = z_line.0;
        let rc = r * chip.capacitance.0;
        // Γ(s) = (b0 + b1·s)/(a0 + a1·s)
        let b0 = r - z;
        let b1 = -z * rc;
        let a0 = r + z;
        let a1 = z * rc;
        // Backward Euler: s → (1 − z⁻¹)/dt
        let denom = a0 + a1 / dt;
        Self {
            kind: ReflectorKind::FirstOrder {
                c_x0: (b0 + b1 / dt) / denom,
                c_x1: (-b1 / dt) / denom,
                c_y1: (a1 / dt) / denom,
                x_prev: 0.0,
                y_prev: 0.0,
            },
        }
    }

    /// Advance one tick: the reflected wave for incident amplitude `x`.
    pub fn step(&mut self, x: f64) -> f64 {
        match &mut self.kind {
            ReflectorKind::Constant(g) => *g * x,
            ReflectorKind::FirstOrder {
                c_x0,
                c_x1,
                c_y1,
                x_prev,
                y_prev,
            } => {
                let y = *c_x0 * x + *c_x1 * *x_prev + *c_y1 * *y_prev;
                *x_prev = x;
                *y_prev = y;
                y
            }
        }
    }

    /// Reset internal filter state (between independent simulations).
    pub fn reset(&mut self) {
        if let ReflectorKind::FirstOrder { x_prev, y_prev, .. } = &mut self.kind {
            *x_prev = 0.0;
            *y_prev = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use divot_dsp::rng::DivotRng;

    const DT: f64 = 1e-12;

    #[test]
    fn matched_reflects_nothing() {
        let mut r = Termination::Matched.reflector(Ohms(50.0), DT);
        assert_eq!(r.step(1.0), 0.0);
    }

    #[test]
    fn open_and_short_are_total() {
        let mut o = Termination::Open.reflector(Ohms(50.0), DT);
        let mut s = Termination::Short.reflector(Ohms(50.0), DT);
        assert_eq!(o.step(0.7), 0.7);
        assert_eq!(s.step(0.7), -0.7);
    }

    #[test]
    fn resistive_gamma() {
        let mut r = Termination::Resistive(Ohms(75.0)).reflector(Ohms(50.0), DT);
        assert!((r.step(1.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn chip_reflection_starts_capacitive_ends_resistive() {
        // At t=0+ a step sees the capacitor as a short (Γ → −1-ish);
        // in steady state it sees only R (Γ → (R−Z)/(R+Z)).
        let chip = ChipInput {
            resistance: Ohms(60.0),
            capacitance: Farads(2e-12),
        };
        let mut refl = Termination::Chip(chip).reflector(Ohms(50.0), DT);
        let first = refl.step(1.0);
        let mut last = first;
        for _ in 0..2000 {
            last = refl.step(1.0);
        }
        let gamma_dc = (60.0 - 50.0) / (60.0 + 50.0);
        assert!(
            first < -0.5,
            "initial reflection should be strongly negative: {first}"
        );
        assert!(
            (last - gamma_dc).abs() < 1e-3,
            "steady state {last} vs {gamma_dc}"
        );
    }

    #[test]
    fn chip_settles_with_rc_time_constant() {
        let chip = ChipInput {
            resistance: Ohms(60.0),
            capacitance: Farads(2e-12),
        };
        // Effective time constant is C·(R∥Z) ≈ 2e-12 · 27.3 ≈ 54.5 ps.
        let mut refl = Termination::Chip(chip).reflector(Ohms(50.0), DT);
        let gamma_dc = (60.0 - 50.0) / (60.0 + 50.0);
        let mut settle_tick = None;
        let mut y = 0.0;
        for t in 0..1000 {
            y = refl.step(1.0);
            if settle_tick.is_none() && (y - gamma_dc).abs() < (1.0 + gamma_dc) * 0.368 {
                settle_tick = Some(t);
            }
        }
        let tau_ticks = settle_tick.expect("must settle") as f64;
        assert!(
            (tau_ticks - 54.5).abs() < 15.0,
            "time constant ~54.5 ps, got {tau_ticks} ps"
        );
        assert!((y - gamma_dc).abs() < 1e-2);
    }

    #[test]
    fn reset_clears_state() {
        let chip = ChipInput::typical_sdram();
        let mut refl = Termination::Chip(chip).reflector(Ohms(50.0), DT);
        let first = refl.step(1.0);
        refl.step(1.0);
        refl.reset();
        assert_eq!(refl.step(1.0), first);
    }

    #[test]
    fn process_variant_differs_but_is_close() {
        let base = ChipInput::typical_sdram();
        let mut rng = DivotRng::seed_from_u64(5);
        let v = base.process_variant(0.03, &mut rng);
        assert_ne!(v, base);
        assert!((v.resistance.0 - 60.0).abs() < 12.0);
        assert!((v.capacitance.0 - 2e-12).abs() < 0.5e-12);
    }

    #[test]
    #[should_panic(expected = "line impedance must be positive")]
    fn rejects_bad_line_impedance() {
        let _ = Termination::Matched.reflector(Ohms(0.0), DT);
    }
}
