//! Frequency-domain (S-parameter) view of a network, for cross-validating
//! the time-domain scattering engine against closed-form EM results.
//!
//! `S11(f) = FFT(reflected) / FFT(incident)` — the input reflection
//! coefficient a vector network analyzer would report. The paper's related
//! work (Wei et al.) extracted IIPs with a VNA; DIVOT's contribution is
//! doing the equivalent *in situ*. This module reconstructs the VNA view
//! from the engine's time-domain output, and its tests pin the engine to
//! analytic transmission-line theory.

use crate::scatter::{Network, SimConfig};
use divot_dsp::fft::{bin_frequency, fft_real, magnitude};

/// One S11 sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct S11Point {
    /// Frequency in Hz.
    pub frequency: f64,
    /// |S11| (linear).
    pub magnitude: f64,
}

/// Compute |S11| of the network over `(0, max_frequency]`, as seen from
/// the driver, using the engine's edge response.
///
/// Bins where the drive spectrum has fallen below 0.1 % of its peak are
/// excluded (the stimulus carries no energy there, so the ratio is
/// meaningless — physically, the edge's rise time band-limits the
/// measurement, exactly as it band-limits the iTDR).
pub fn s11_spectrum(network: &Network, cfg: &SimConfig, max_frequency: f64) -> Vec<S11Point> {
    let reflected = network.edge_response(cfg);
    let ticks = reflected.len();
    let incident = cfg.drive_samples(&network.main, ticks);
    let dt = reflected.dt();

    // Differentiate both records first (the standard TDR→S-parameter
    // step): the step responses are truncated by the record length, but
    // their derivatives are compact pulses fully inside it, so the ratio
    // is free of truncation bias.
    let diff = |xs: &[f64]| -> Vec<f64> {
        let mut d = Vec::with_capacity(xs.len());
        d.push(xs[0]);
        for w in xs.windows(2) {
            d.push(w[1] - w[0]);
        }
        d
    };
    let spec_r = fft_real(&diff(reflected.samples()));
    let spec_i = fft_real(&diff(&incident));
    let n = spec_r.len();
    let peak_drive = spec_i.iter().map(|&b| magnitude(b)).fold(0.0, f64::max);

    let mut out = Vec::new();
    for k in 1..n / 2 {
        let f = bin_frequency(k, n, dt);
        if f > max_frequency {
            break;
        }
        let drive_mag = magnitude(spec_i[k]);
        if drive_mag < 1e-3 * peak_drive {
            continue;
        }
        out.push(S11Point {
            frequency: f,
            magnitude: magnitude(spec_r[k]) / drive_mag,
        });
    }
    out
}

/// Interpolate |S11| at one frequency (nearest bin).
///
/// # Panics
///
/// Panics if the spectrum is empty.
pub fn s11_at(spectrum: &[S11Point], frequency: f64) -> f64 {
    assert!(!spectrum.is_empty(), "empty spectrum");
    spectrum
        .iter()
        .min_by(|a, b| {
            (a.frequency - frequency)
                .abs()
                .partial_cmp(&(b.frequency - frequency).abs())
                .expect("finite frequencies")
        })
        .expect("non-empty")
        .magnitude
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iip::IipProfile;
    use crate::scatter::TxLine;
    use crate::termination::{ChipInput, Termination};
    use crate::units::{Farads, Meters, Ohms, Seconds};

    fn lossless(term: Termination) -> TxLine {
        let mut line = TxLine::new(IipProfile::uniform(Ohms(50.0), Meters(0.25), 256), term);
        line.loss_db_per_m = 0.0;
        line
    }

    fn cfg() -> SimConfig {
        SimConfig {
            rise_time: Seconds(60e-12),
            duration_factor: 4.0,
            ..SimConfig::default()
        }
    }

    #[test]
    fn matched_line_has_near_zero_s11() {
        let spec = s11_spectrum(&lossless(Termination::Matched).network(), &cfg(), 3e9);
        for p in &spec {
            assert!(
                p.magnitude < 1e-9,
                "f={} |S11|={}",
                p.frequency,
                p.magnitude
            );
        }
    }

    #[test]
    fn resistive_termination_gives_flat_s11() {
        // |S11| = |R−Z|/(R+Z) at every frequency for an ideal resistor on a
        // lossless line.
        let spec = s11_spectrum(
            &lossless(Termination::Resistive(Ohms(75.0))).network(),
            &cfg(),
            3e9,
        );
        let expect = 25.0 / 125.0;
        for p in &spec {
            assert!(
                (p.magnitude - expect).abs() < 0.01,
                "f={} |S11|={} want {expect}",
                p.frequency,
                p.magnitude
            );
        }
    }

    #[test]
    fn open_and_short_are_total_reflectors() {
        for term in [Termination::Open, Termination::Short] {
            let spec = s11_spectrum(&lossless(term).network(), &cfg(), 2e9);
            for p in &spec {
                assert!(
                    (p.magnitude - 1.0).abs() < 0.02,
                    "{term:?} f={} |S11|={}",
                    p.frequency,
                    p.magnitude
                );
            }
        }
    }

    #[test]
    fn rc_chip_termination_matches_analytic_reflection() {
        // Γ(ω) = ((R−Z) − jωZRC) / ((R+Z) + jωZRC): the engine's
        // backward-Euler reflector must track the closed form well below
        // the simulation's Nyquist rate.
        let r = 60.0;
        let c = 1.5e-12;
        let z = 50.0;
        let chip = ChipInput {
            resistance: Ohms(r),
            capacitance: Farads(c),
        };
        let spec = s11_spectrum(&lossless(Termination::Chip(chip)).network(), &cfg(), 3e9);
        for &f in &[0.2e9, 0.5e9, 1.0e9, 2.0e9] {
            let w = 2.0 * std::f64::consts::PI * f;
            let num = ((r - z).powi(2) + (w * z * r * c).powi(2)).sqrt();
            let den = ((r + z).powi(2) + (w * z * r * c).powi(2)).sqrt();
            let analytic = num / den;
            let measured = s11_at(&spec, f);
            assert!(
                (measured - analytic).abs() < 0.03,
                "f={f}: measured {measured} analytic {analytic}"
            );
        }
    }

    #[test]
    fn single_step_with_matched_load_gives_flat_s11_at_rho() {
        // One reflector only: |S11(f)| = |ρ| at every in-band frequency.
        let mut z = vec![50.0; 256];
        for zi in z.iter_mut().skip(128) {
            *zi = 55.0;
        }
        let mut line = TxLine::new(
            IipProfile::new(z, Meters(0.25 / 256.0)),
            Termination::Resistive(Ohms(55.0)),
        );
        line.loss_db_per_m = 0.0;
        let spec = s11_spectrum(&line.network(), &cfg(), 2e9);
        let rho = 5.0 / 105.0;
        for p in &spec {
            assert!(
                (p.magnitude - rho).abs() < 0.15 * rho,
                "f={} |S11|={} want {rho}",
                p.frequency,
                p.magnitude
            );
        }
    }

    #[test]
    fn two_reflectors_produce_interference_comb() {
        // A +ρ step at the midpoint and a −ρ termination mismatch half a
        // line later interfere: |S11(f)| oscillates, cancelling near DC
        // (the DC input resistance equals Z₁) and peaking near ~2ρ.
        let mut z = vec![50.0; 256];
        for zi in z.iter_mut().skip(128) {
            *zi = 55.0;
        }
        let mut line = TxLine::new(
            IipProfile::new(z, Meters(0.25 / 256.0)),
            Termination::Resistive(Ohms(50.0)),
        );
        line.loss_db_per_m = 0.0;
        let spec = s11_spectrum(&line.network(), &cfg(), 3e9);
        let rho = 5.0 / 105.0;
        let max = spec.iter().map(|p| p.magnitude).fold(0.0, f64::max);
        let min = spec
            .iter()
            .map(|p| p.magnitude)
            .fold(f64::INFINITY, f64::min);
        assert!(max > 1.4 * rho, "constructive peaks: max={max} rho={rho}");
        assert!(max < 2.3 * rho, "bounded by 2ρ: max={max}");
        assert!(min < 0.3 * rho, "comb must have nulls: min={min}");
    }

    #[test]
    fn fabricated_line_s11_is_small_but_structured() {
        let process = crate::iip::FabricationProcess::paper_prototype();
        let profile = process.sample_profile(Meters(0.25), 256, 3, 0);
        let mut line = TxLine::new(profile, Termination::Matched);
        line.loss_db_per_m = 0.0;
        let spec = s11_spectrum(&line.network(), &cfg(), 3e9);
        let max = spec.iter().map(|p| p.magnitude).fold(0.0, f64::max);
        assert!(max > 1e-4, "IIP must show in S11: {max}");
        assert!(max < 0.15, "but stays a small reflection: {max}");
    }
}
