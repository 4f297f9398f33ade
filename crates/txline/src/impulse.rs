//! The LTI impulse-response fast path: one scattering run, arbitrarily
//! many drive shapes.
//!
//! The Tx-line network with linear terminations is a linear time-invariant
//! system in the launched wave: the engine's state update is linear in
//! `(f, b, drive)` and its coefficients (reflection tables, attenuation,
//! junction scattering, the termination's first-order filter) are constant
//! per tick. The back-reflection for *any* drive is therefore the discrete
//! convolution of the network's unit-impulse response with the drive
//! samples. [`Network::impulse_response`] runs the optimized kernel once
//! with a unit impulse; [`ImpulseResponse::render`] then synthesizes the
//! edge response of any [`SimConfig`] that shares the system-side
//! parameters (source impedance — part of the network seen by the wave)
//! by FFT convolution via `divot_dsp::fft`, at a tiny fraction of a kernel
//! run's cost.
//!
//! This is what lets [`ResponseCache`](crate::response::ResponseCache) key
//! the expensive simulation on environmental state only and treat drive
//! changes (amplitude, rise time, edge shape — what-if drive studies,
//! per-lane drive trims) as cheap re-renders instead of wholesale
//! invalidations.

use crate::scatter::{EdgeShape, Engine, Network, SimConfig, TxLine};
use crate::units::Ohms;
use divot_dsp::fft::{fft_real_padded, ifft_in_place, Complex};
use divot_dsp::waveform::Waveform;
use std::sync::OnceLock;

/// Longest settled-drive transient (in ticks) rendered by the direct
/// step-decomposition path; longer transients fall back to the FFT. 256
/// ticks covers sub-nanosecond rise times on the paper grid (~3 ps/tick)
/// while keeping the direct path well under the two-FFT cost.
pub const DIRECT_RENDER_MAX_TRANSIENT: usize = 256;

/// The unit-impulse back-reflection of one network (under one source
/// impedance), with its step response precomputed and its spectrum built
/// on first use.
///
/// Obtained from [`Network::impulse_response`]; consumed by
/// [`ImpulseResponse::render`].
#[derive(Debug, Clone)]
pub struct ImpulseResponse {
    /// Impulse-response samples, one per engine tick.
    h: Vec<f64>,
    /// Prefix sums of `h` — the step response. Lets a drive that settles
    /// to a constant render as `tail · step + (short transient ⊛ h)`, far
    /// cheaper than a full-length FFT convolution.
    cumulative: Vec<f64>,
    /// FFT of `h` at `fft_size`, computed on the first FFT render (only a
    /// drive that does not settle within [`DIRECT_RENDER_MAX_TRANSIENT`]
    /// ticks needs it) so each later render costs one forward and one
    /// inverse transform.
    spectrum: OnceLock<Vec<Complex>>,
    /// Power-of-two transform size covering `h.len() + drive.len() − 1`
    /// for any drive up to `h.len()` samples (no circular aliasing).
    fft_size: usize,
    /// Engine tick (seconds/sample) of the simulated grid.
    dt: f64,
    /// Number of main-line segments of the simulated network.
    segments: usize,
    /// Launch impedance (first segment) — the drive divider's `Z₀`.
    z_source: f64,
    /// The source impedance the kernel ran under. A different source
    /// impedance changes the system itself (`ρ_source`), not just the
    /// drive, so renders require an exact match.
    source_impedance: Ohms,
}

impl Network {
    /// Run the scattering kernel **once** with a unit impulse and return
    /// the reusable [`ImpulseResponse`].
    ///
    /// The run is sized by `cfg` exactly like [`Network::edge_response`]
    /// (`cfg.ticks_for`), and the kernel sees `cfg.source_impedance` — the
    /// one drive parameter that is part of the system rather than the
    /// stimulus. Amplitude, rise time, and edge shape do not matter here;
    /// they are supplied later, per render.
    pub fn impulse_response(&self, cfg: &SimConfig) -> ImpulseResponse {
        let mut engine = Engine::new(self, cfg);
        let ticks = engine.ticks();
        let mut impulse = vec![0.0; ticks];
        impulse[0] = 1.0;
        let h = engine.run(&impulse).into_samples();
        let cumulative = h
            .iter()
            .scan(0.0, |acc, &x| {
                *acc += x;
                Some(*acc)
            })
            .collect();
        ImpulseResponse {
            h,
            cumulative,
            spectrum: OnceLock::new(),
            fft_size: (2 * ticks.max(1)).next_power_of_two(),
            dt: self.main.tick().0,
            segments: self.main.profile.len(),
            z_source: self.main.profile.z_at_source(),
            source_impedance: cfg.source_impedance,
        }
    }
}

impl SimConfig {
    /// The shortest variant of this configuration (only `duration_factor`
    /// changes) whose run on `line` covers the first `ticks` samples of
    /// the back-reflection — or `self` unchanged when that run would not
    /// be shorter, or when the drive has not reached its final value by
    /// that run's last tick and by tick [`DIRECT_RENDER_MAX_TRANSIENT`].
    ///
    /// Either way the returned configuration's run, direct or rendered
    /// through [`ImpulseResponse::render`], is bitwise the first samples
    /// of this configuration's: the engine is causal, so a shorter run is
    /// a prefix of the longer one, and render sample `n` reads only
    /// `h[..=n]`, the drive's transient and its settled tail, which the
    /// two drives share exactly when both have reached the tail.
    pub fn covering(&self, line: &TxLine, ticks: usize) -> SimConfig {
        let (segments, dt) = (line.profile.len(), line.tick().0);
        let fixed = SimConfig {
            duration_factor: 0.0,
            ..*self
        }
        .ticks_for_grid(segments, dt);
        let short = SimConfig {
            // Half a tick of slack keeps the product's rounding from
            // flooring one tick short.
            duration_factor: (ticks.saturating_sub(fixed) as f64 + 0.5) / (2.0 * segments as f64),
            ..*self
        };
        let run = short.ticks_for_grid(segments, dt);
        assert!(run >= ticks, "a {run}-tick run cannot cover {ticks} ticks");
        // Linear and RaisedCosine edges clamp to exactly `at(1.0)` from
        // `u = 1` on; an Exponential edge only approaches its tail.
        let settled = |t: usize| {
            self.shape != EdgeShape::Exponential && t as f64 * dt / self.rise_time.0 >= 1.0
        };
        if run < self.ticks_for_grid(segments, dt)
            && settled(run - 1)
            && settled(DIRECT_RENDER_MAX_TRANSIENT)
        {
            short
        } else {
            *self
        }
    }
}

impl ImpulseResponse {
    /// Number of simulated ticks the stored impulse response covers.
    pub fn ticks(&self) -> usize {
        self.h.len()
    }

    /// Engine tick (seconds per sample) of the stored grid.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// The raw unit-impulse back-reflection samples.
    pub fn samples(&self) -> &[f64] {
        &self.h
    }

    /// Whether [`render`](Self::render) can synthesize `cfg`'s edge
    /// response from this impulse response: the source impedance must
    /// match the one the kernel ran under (it is part of the system), and
    /// the stored run must be at least as long as `cfg` requires.
    pub fn supports(&self, cfg: &SimConfig) -> bool {
        cfg.source_impedance == self.source_impedance && self.render_ticks(cfg) <= self.h.len()
    }

    /// Number of output ticks a render of `cfg` produces — what a direct
    /// [`Network::edge_response`] under `cfg` would simulate.
    pub fn render_ticks(&self, cfg: &SimConfig) -> usize {
        cfg.ticks_for_grid(self.segments, self.dt)
    }

    /// Synthesize the edge response for `cfg` by convolving the stored
    /// impulse response with `cfg`'s drive samples — no kernel run.
    ///
    /// Returns `None` when [`supports`](Self::supports) is false (source
    /// impedance differs, or `cfg` needs a longer run than was simulated);
    /// the caller should fall back to a fresh
    /// [`Network::impulse_response`]. The result matches a direct
    /// simulation to convolution round-off (≲1e-12 of the drive amplitude
    /// — pinned by the proptests in `tests/scatter_equiv.rs`).
    ///
    /// Two synthesis paths, picked per drive: an edge that settles to an
    /// exactly constant value within [`DIRECT_RENDER_MAX_TRANSIENT`] ticks
    /// (Linear / RaisedCosine shapes always do, right after their rise)
    /// splits into `tail · step-response + (short transient ⊛ h)` — a
    /// prefix-sum lookup plus an `O(rise_ticks · n)` direct convolution.
    /// Anything else (e.g. an asymptotic Exponential edge) takes the
    /// general FFT convolution against the impulse spectrum.
    pub fn render(&self, cfg: &SimConfig) -> Option<Waveform> {
        if !self.supports(cfg) {
            return None;
        }
        let out_ticks = self.render_ticks(cfg);
        let drive = cfg.drive_samples_with(self.z_source, self.dt, out_ticks);
        let tail = *drive.last()?;
        let transient = drive.iter().rposition(|&v| v != tail).map_or(0, |p| p + 1);
        let samples = if transient <= DIRECT_RENDER_MAX_TRANSIENT {
            self.render_direct(&drive, tail, transient)
        } else {
            self.render_fft(&drive)
        };
        Some(Waveform::new(0.0, self.dt, samples))
    }

    /// Step-decomposition render: `drive = tail·u[n] + e[n]` with `e`
    /// supported on the first `transient` ticks, so
    /// `y[n] = tail·cumsum(h)[n] + Σ_m e[m]·h[n−m]`.
    fn render_direct(&self, drive: &[f64], tail: f64, transient: usize) -> Vec<f64> {
        let mut y = Vec::with_capacity(drive.len());
        for n in 0..drive.len() {
            let mut acc = tail * self.cumulative[n];
            for (m, &d) in drive.iter().enumerate().take(transient.min(n + 1)) {
                acc += (d - tail) * self.h[n - m];
            }
            y.push(acc);
        }
        y
    }

    /// General render: multiply the drive's spectrum against the impulse
    /// spectrum (transformed here on the first call) and inverse-transform.
    fn render_fft(&self, drive: &[f64]) -> Vec<f64> {
        let spectrum = self
            .spectrum
            .get_or_init(|| fft_real_padded(&self.h, self.fft_size));
        let mut spec = fft_real_padded(drive, self.fft_size);
        for (d, h) in spec.iter_mut().zip(spectrum) {
            *d = (d.0 * h.0 - d.1 * h.1, d.0 * h.1 + d.1 * h.0);
        }
        ifft_in_place(&mut spec);
        spec.iter().take(drive.len()).map(|&(re, _)| re).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iip::{FabricationProcess, IipProfile};
    use crate::scatter::{StubSpec, Tap};
    use crate::termination::{ChipInput, Termination};
    use crate::units::{Meters, Ohms, Seconds, Volts};

    fn paper_line(segments: usize, seed: u64) -> TxLine {
        let profile =
            FabricationProcess::paper_prototype().sample_profile(Meters(0.25), segments, seed, 0);
        TxLine::new(profile, Termination::Chip(ChipInput::typical_sdram()))
    }

    fn max_abs_diff(a: &Waveform, b: &Waveform) -> f64 {
        assert_eq!(a.len(), b.len());
        a.samples()
            .iter()
            .zip(b.samples())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn render_matches_direct_simulation() {
        let net = paper_line(256, 3).network();
        let cfg = SimConfig::default();
        let ir = net.impulse_response(&cfg);
        let direct = net.edge_response(&cfg);
        let rendered = ir.render(&cfg).expect("same config is supported");
        assert_eq!(rendered.len(), direct.len());
        assert!(
            max_abs_diff(&rendered, &direct) < 1e-11,
            "diff={}",
            max_abs_diff(&rendered, &direct)
        );
    }

    #[test]
    fn one_impulse_serves_many_drives() {
        let net = paper_line(192, 7).network();
        let base = SimConfig::default();
        let ir = net.impulse_response(&base);
        for (amp, rise, shape) in [
            (0.9, 150e-12, EdgeShape::RaisedCosine),
            (1.8, 100e-12, EdgeShape::Linear),
            (0.5, 60e-12, EdgeShape::Exponential),
        ] {
            let cfg = SimConfig {
                amplitude: Volts(amp),
                rise_time: Seconds(rise),
                shape,
                ..base
            };
            let direct = net.edge_response(&cfg);
            let rendered = ir.render(&cfg).expect("drive-only change is supported");
            assert!(
                max_abs_diff(&rendered, &direct) < 1e-11,
                "({amp},{rise:e},{shape:?}): diff={}",
                max_abs_diff(&rendered, &direct)
            );
        }
    }

    #[test]
    fn render_covers_tapped_networks() {
        let net = Network {
            main: paper_line(160, 9),
            taps: vec![Tap {
                position: 0.4,
                stub: StubSpec::oscilloscope_tap(),
            }],
        };
        let cfg = SimConfig::default();
        let ir = net.impulse_response(&cfg);
        let direct = net.edge_response(&cfg);
        let rendered = ir.render(&cfg).unwrap();
        assert!(max_abs_diff(&rendered, &direct) < 1e-11);
    }

    #[test]
    fn source_impedance_change_is_not_supported() {
        let net = paper_line(96, 1).network();
        let base = SimConfig::default();
        let ir = net.impulse_response(&base);
        let other = SimConfig {
            source_impedance: Ohms(40.0),
            ..base
        };
        assert!(!ir.supports(&other));
        assert!(ir.render(&other).is_none());
    }

    #[test]
    fn longer_run_is_not_supported_shorter_is() {
        let net = paper_line(96, 2).network();
        let base = SimConfig::default();
        let ir = net.impulse_response(&base);
        let longer = SimConfig {
            duration_factor: base.duration_factor * 2.0,
            ..base
        };
        assert!(!ir.supports(&longer));
        let shorter = SimConfig {
            duration_factor: 2.2,
            ..base
        };
        assert!(ir.supports(&shorter));
        let rendered = ir.render(&shorter).unwrap();
        let direct = net.edge_response(&shorter);
        assert_eq!(rendered.len(), direct.len());
        assert!(max_abs_diff(&rendered, &direct) < 1e-11);
    }

    #[test]
    fn direct_and_fft_render_paths_agree() {
        let net = paper_line(128, 5).network();
        let cfg = SimConfig::default();
        let ir = net.impulse_response(&cfg);
        let out_ticks = ir.render_ticks(&cfg);
        let drive = cfg.drive_samples_with(ir.z_source, ir.dt(), out_ticks);
        let tail = *drive.last().unwrap();
        let transient = drive.iter().rposition(|&v| v != tail).map_or(0, |p| p + 1);
        assert!(
            transient <= DIRECT_RENDER_MAX_TRANSIENT,
            "default config should qualify for the direct path"
        );
        let direct = ir.render_direct(&drive, tail, transient);
        let fft = ir.render_fft(&drive);
        for (i, (a, b)) in direct.iter().zip(&fft).enumerate() {
            assert!((a - b).abs() < 1e-11, "sample {i}: {a} vs {b}");
        }
    }

    fn assert_bitwise_prefix(short: &Waveform, full: &Waveform) {
        assert!(short.len() < full.len());
        for (i, (a, b)) in short.samples().iter().zip(full.samples()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "sample {i}");
        }
    }

    #[test]
    fn covering_run_is_a_bitwise_prefix_of_the_full_run() {
        let line = paper_line(256, 4);
        let tapped = Network {
            main: line.clone(),
            taps: vec![Tap {
                position: 0.3,
                stub: StubSpec::oscilloscope_tap(),
            }],
        };
        let cfg = SimConfig::default();
        for net in [line.network(), tapped] {
            for ticks in [400, 585, 1000] {
                let short = cfg.covering(&line, ticks);
                assert_eq!(short.ticks_for(&line), ticks, "the shortest covering run");
                let full = net.impulse_response(&cfg);
                let cut = net.impulse_response(&short);
                assert_bitwise_prefix(
                    &Waveform::new(0.0, cut.dt(), cut.samples().to_vec()),
                    &Waveform::new(0.0, full.dt(), full.samples().to_vec()),
                );
                assert_bitwise_prefix(&cut.render(&short).unwrap(), &full.render(&cfg).unwrap());
                assert_bitwise_prefix(&net.edge_response(&short), &net.edge_response(&cfg));
            }
        }
    }

    #[test]
    fn covering_falls_back_to_the_full_run() {
        let line = paper_line(256, 4);
        let cfg = SimConfig::default();
        let full = cfg.ticks_for(&line);
        // The horizon reaches the end of the run.
        assert_eq!(cfg.covering(&line, full), cfg);
        assert_eq!(cfg.covering(&line, full + 100), cfg);
        // The edge only approaches its tail.
        let exponential = SimConfig {
            shape: EdgeShape::Exponential,
            ..cfg
        };
        assert_eq!(exponential.covering(&line, 500), exponential);
        // The edge is still rising at the covering run's last tick.
        let slow = SimConfig {
            rise_time: Seconds(line.tick().0 * 400.0),
            ..cfg
        };
        assert_eq!(slow.covering(&line, 300), slow);
        // The edge settles only past the direct render's transient.
        let slower = SimConfig {
            rise_time: Seconds(line.tick().0 * (DIRECT_RENDER_MAX_TRANSIENT as f64 + 10.0)),
            ..cfg
        };
        assert_eq!(slower.covering(&line, 900), slower);
        assert_ne!(cfg.covering(&line, 900), cfg);
    }

    #[test]
    fn impulse_response_of_matched_uniform_line_is_silent() {
        let mut line = TxLine::new(
            IipProfile::uniform(Ohms(50.0), Meters(0.25), 64),
            Termination::Matched,
        );
        line.loss_db_per_m = 0.0;
        let ir = line.network().impulse_response(&SimConfig::default());
        assert!(ir.samples().iter().all(|&s| s.abs() < 1e-12));
    }
}
