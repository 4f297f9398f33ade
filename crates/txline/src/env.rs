//! Environmental effects on a Tx-line: temperature, vibration, aging.
//!
//! * **Temperature** (paper Fig. 8): PCB laminate dielectric constant (Dk)
//!   rises with temperature, raising line capacitance, which *uniformly*
//!   lowers impedance and slows propagation (`Z ∝ 1/√Dk`, `v ∝ 1/√Dk`).
//!   Because the scaling is uniform, segment-to-segment reflection
//!   coefficients are unchanged — the IIP *contrast* survives — but the
//!   time-axis stretch and the changed mismatch against the (temperature-
//!   stable) silicon terminations shift the genuine similarity distribution
//!   left, exactly as the paper observes.
//! * **Vibration** (§IV-C): chirped mechanical knocking (1–50 Hz in the
//!   paper) flexes the board, compressing/stretching the line: a
//!   time-varying local impedance perturbation plus a small propagation-
//!   delay wobble.
//! * **Aging**: slow uniform drift, available for long-horizon studies.

use crate::scatter::Network;
use crate::units::{Celsius, Seconds};

/// Temperature as a function of time during an experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TemperatureProfile {
    /// Constant ambient temperature.
    Constant(Celsius),
    /// Triangular swing between two temperatures with the given full
    /// period (the paper's oven test swung 23 °C → 75 °C).
    Swing {
        /// Low end of the swing.
        from: Celsius,
        /// High end of the swing.
        to: Celsius,
        /// Full period of one low→high→low cycle.
        period: Seconds,
    },
}

impl TemperatureProfile {
    /// Room temperature (23 °C), the paper's reference condition.
    pub fn room() -> Self {
        TemperatureProfile::Constant(Celsius(23.0))
    }

    /// The paper's oven swing: 23 °C to 75 °C.
    pub fn paper_oven_swing() -> Self {
        TemperatureProfile::Swing {
            from: Celsius(23.0),
            to: Celsius(75.0),
            period: Seconds(600.0),
        }
    }

    /// Temperature at experiment time `t`.
    pub fn at(&self, t: Seconds) -> Celsius {
        match *self {
            TemperatureProfile::Constant(c) => c,
            TemperatureProfile::Swing { from, to, period } => {
                let phase = (t.0 / period.0).rem_euclid(1.0);
                let tri = if phase < 0.5 {
                    2.0 * phase
                } else {
                    2.0 - 2.0 * phase
                };
                Celsius(from.0 + (to.0 - from.0) * tri)
            }
        }
    }
}

/// Chirped mechanical vibration applied to the board.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vibration {
    /// Chirp start frequency (Hz).
    pub freq_start: f64,
    /// Chirp end frequency (Hz).
    pub freq_end: f64,
    /// Duration of one chirp sweep (seconds); the sweep repeats.
    pub sweep_period: f64,
    /// Peak relative impedance perturbation at the flex antinode.
    pub strain_amplitude: f64,
    /// Antinode position along the line (fraction 0..1).
    pub position: f64,
    /// Spatial extent of the flex (fraction of the line).
    pub width: f64,
}

impl Vibration {
    /// The paper's piezo test: 1–50 Hz continuous chirp.
    pub fn paper_piezo_chirp() -> Self {
        Self {
            freq_start: 1.0,
            freq_end: 50.0,
            sweep_period: 10.0,
            strain_amplitude: 0.012,
            position: 0.5,
            width: 0.15,
        }
    }

    /// Instantaneous strain (relative impedance perturbation at the
    /// antinode) at experiment time `t`: a linear chirp.
    pub fn strain_at(&self, t: Seconds) -> f64 {
        let tau = t.0.rem_euclid(self.sweep_period);
        let k = (self.freq_end - self.freq_start) / self.sweep_period;
        let phase = 2.0 * std::f64::consts::PI * (self.freq_start * tau + 0.5 * k * tau * tau);
        self.strain_amplitude * phase.sin()
    }
}

/// The complete ambient environment of an experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Environment {
    /// Temperature over time.
    pub temperature: TemperatureProfile,
    /// Optional vibration source.
    pub vibration: Option<Vibration>,
    /// Uniform aging drift of impedance, relative per year.
    pub aging_per_year: f64,
    /// Elapsed age of the board in years.
    pub age_years: f64,
}

impl Default for Environment {
    fn default() -> Self {
        Self::room()
    }
}

/// Reference temperature at which boards are characterized.
pub const REFERENCE_TEMPERATURE: Celsius = Celsius(23.0);

/// FR-4 dielectric-constant temperature coefficient (per °C); Dk rises
/// a few hundred ppm/°C for low-cost laminates (Hinaga et al., cited by
/// the paper).
pub const DK_TEMP_COEFF_PER_C: f64 = 3.0e-4;

impl Environment {
    /// Room temperature, no vibration, no aging.
    pub fn room() -> Self {
        Self {
            temperature: TemperatureProfile::room(),
            vibration: None,
            aging_per_year: 0.0,
            age_years: 0.0,
        }
    }

    /// The paper's oven experiment environment.
    pub fn oven_swing() -> Self {
        Self {
            temperature: TemperatureProfile::paper_oven_swing(),
            ..Self::room()
        }
    }

    /// The paper's vibration experiment environment.
    pub fn vibrating() -> Self {
        Self {
            vibration: Some(Vibration::paper_piezo_chirp()),
            ..Self::room()
        }
    }

    /// Whether the environment is constant over time (responses can be
    /// cached once).
    pub fn is_static(&self) -> bool {
        matches!(self.temperature, TemperatureProfile::Constant(_)) && self.vibration.is_none()
    }

    /// Quantized environmental state at time `t`, suitable as a cache key.
    pub fn state_at(&self, t: Seconds) -> EnvState {
        let temp = self.temperature.at(t);
        let dk_factor = 1.0 + DK_TEMP_COEFF_PER_C * (temp.0 - REFERENCE_TEMPERATURE.0);
        // Z and v both scale as 1/√Dk.
        let scale = 1.0 / dk_factor.sqrt();
        let aging = 1.0 + self.aging_per_year * self.age_years;
        let z_scale = scale * aging;
        let vib = self.vibration.map(|v| v.strain_at(t)).unwrap_or(0.0);
        EnvState {
            z_scale_q: (z_scale * 1e6).round() as i64,
            velocity_scale_q: (scale * 1e6).round() as i64,
            vib_q: (vib * 5e3).round() as i64,
        }
    }

    /// Apply an environmental state to a network, returning the physically
    /// perturbed network the iTDR actually measures at that instant.
    pub fn apply(&self, base: &Network, state: &EnvState) -> Network {
        let mut net = base.clone();
        let z_scale = state.z_scale();
        if (z_scale - 1.0).abs() > 1e-12 {
            net.main.profile.scale_impedance(z_scale);
        }
        let v_scale = state.velocity_scale();
        if (v_scale - 1.0).abs() > 1e-12 {
            net.main.velocity *= v_scale;
        }
        let strain = state.vib_strain();
        if strain != 0.0 {
            if let Some(v) = &self.vibration {
                net.main.profile.add_bump(v.position, v.width, strain);
                // Flexing also changes the electrical length of the bent
                // region.
                net.main.velocity *= 1.0 - 0.3 * strain;
            }
        }
        net
    }
}

/// Quantized snapshot of the environment, usable as a cache key (the
/// response of a network in a given state is deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EnvState {
    z_scale_q: i64,
    velocity_scale_q: i64,
    vib_q: i64,
}

impl EnvState {
    /// The nominal (reference) environment state.
    pub fn nominal() -> Self {
        Self {
            z_scale_q: 1_000_000,
            velocity_scale_q: 1_000_000,
            vib_q: 0,
        }
    }

    /// Uniform impedance scale factor.
    pub fn z_scale(&self) -> f64 {
        self.z_scale_q as f64 / 1e6
    }

    /// Uniform propagation-velocity scale factor.
    pub fn velocity_scale(&self) -> f64 {
        self.velocity_scale_q as f64 / 1e6
    }

    /// Instantaneous vibration strain.
    pub fn vib_strain(&self) -> f64 {
        self.vib_q as f64 / 5e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iip::IipProfile;
    use crate::scatter::TxLine;
    use crate::termination::Termination;
    use crate::units::{Meters, Ohms};

    fn base_net() -> Network {
        TxLine::new(
            IipProfile::uniform(Ohms(50.0), Meters(0.25), 64),
            Termination::Matched,
        )
        .network()
    }

    #[test]
    fn constant_profile_is_constant() {
        let p = TemperatureProfile::room();
        assert_eq!(p.at(Seconds(0.0)), Celsius(23.0));
        assert_eq!(p.at(Seconds(1e4)), Celsius(23.0));
    }

    #[test]
    fn swing_covers_range() {
        let p = TemperatureProfile::paper_oven_swing();
        assert_eq!(p.at(Seconds(0.0)), Celsius(23.0));
        let mid = p.at(Seconds(300.0));
        assert!((mid.0 - 75.0).abs() < 1e-9);
        let quarter = p.at(Seconds(150.0));
        assert!((quarter.0 - 49.0).abs() < 1e-9);
        // Periodic.
        assert!((p.at(Seconds(600.0)).0 - 23.0).abs() < 1e-9);
    }

    #[test]
    fn room_state_is_nominal() {
        let env = Environment::room();
        assert!(env.is_static());
        assert_eq!(env.state_at(Seconds(5.0)), EnvState::nominal());
    }

    #[test]
    fn hot_state_lowers_impedance_and_velocity() {
        let env = Environment {
            temperature: TemperatureProfile::Constant(Celsius(75.0)),
            ..Environment::room()
        };
        let s = env.state_at(Seconds(0.0));
        assert!(s.z_scale() < 1.0);
        assert!(s.velocity_scale() < 1.0);
        // 52 °C · 300 ppm/°C Dk rise ⇒ ~0.77 % drop in Z.
        assert!((s.z_scale() - (1.0f64 / 1.0156f64.sqrt())).abs() < 1e-4);
        let net = env.apply(&base_net(), &s);
        assert!(net.main.profile.mean_impedance().0 < 50.0);
        assert!(net.main.velocity < base_net().main.velocity);
    }

    #[test]
    fn uniform_scaling_preserves_reflection_contrast() {
        // The physical claim behind Fig. 8: uniform Z scaling leaves the
        // segment-to-segment reflection coefficients unchanged.
        let mut profile = IipProfile::new(vec![50.0, 51.0, 49.5], Meters(0.001));
        let before = profile.reflection_at(1, Ohms(50.0));
        profile.scale_impedance(0.98);
        let after = profile.reflection_at(1, Ohms(50.0 * 0.98));
        assert!((before - after).abs() < 1e-12);
    }

    #[test]
    fn vibration_strain_is_chirped_and_bounded() {
        let v = Vibration::paper_piezo_chirp();
        let mut max_abs: f64 = 0.0;
        let mut crossings = 0;
        let mut prev = v.strain_at(Seconds(0.0));
        for i in 1..20_000 {
            let s = v.strain_at(Seconds(i as f64 * 1e-3));
            max_abs = max_abs.max(s.abs());
            if s.signum() != prev.signum() {
                crossings += 1;
            }
            prev = s;
        }
        assert!(max_abs <= v.strain_amplitude + 1e-12);
        assert!(max_abs > 0.9 * v.strain_amplitude);
        // Over 20 s (two 10 s sweeps of 1→50 Hz) expect ~1000 crossings.
        assert!(crossings > 500, "crossings={crossings}");
    }

    #[test]
    fn vibrating_env_perturbs_profile_locally() {
        let env = Environment::vibrating();
        // Find a time with substantial strain.
        let mut t = Seconds(0.0);
        for i in 0..10_000 {
            let cand = Seconds(i as f64 * 1e-3);
            if env.vibration.unwrap().strain_at(cand).abs() > 0.002 {
                t = cand;
                break;
            }
        }
        let s = env.state_at(t);
        assert!(s.vib_strain().abs() > 0.001);
        let net = env.apply(&base_net(), &s);
        let z = net.main.profile.impedances();
        // Center perturbed, ends untouched.
        assert!((z[32] - 50.0).abs() > 0.01);
        assert!((z[0] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn env_state_is_cacheable() {
        use std::collections::HashSet;
        let env = Environment::vibrating();
        let mut set = HashSet::new();
        for i in 0..1000 {
            set.insert(env.state_at(Seconds(i as f64 * 1e-4)));
        }
        // Quantization collapses the continuum into a bounded set of keys.
        assert!(set.len() < 700, "distinct states: {}", set.len());
    }

    #[test]
    fn aging_scales_impedance() {
        let env = Environment {
            aging_per_year: 1e-3,
            age_years: 5.0,
            ..Environment::room()
        };
        let s = env.state_at(Seconds(0.0));
        assert!((s.z_scale() - 1.005).abs() < 1e-6);
    }
}
