//! The Impedance Inhomogeneity Pattern and its fabrication-process model.
//!
//! EM theory gives every Tx-line a characteristic impedance set by its
//! geometry and materials; manufacturing non-uniformity makes that impedance
//! vary with distance, yielding a unique, unclonable profile — the IIP
//! (paper §I). We synthesize IIPs from a process model with two parts:
//!
//! 1. a **stochastic component**: a stationary Ornstein–Uhlenbeck process
//!    over distance (etching/copper-roughness and resin-distribution
//!    variation are correlated over a characteristic length, then
//!    decorrelate), unique per line — the fingerprint;
//! 2. a **deterministic component** shared by all lines built the same way:
//!    connector/launch discontinuities at both ends. These make *impostor*
//!    lines partially similar (they share the connectors and termination),
//!    which is why Fig. 7(a)'s impostor distribution sits well above zero.

use crate::units::{Meters, Ohms};
use divot_dsp::rng::{DivotRng, OrnsteinUhlenbeck, OuCoeffs};

/// Design-level precomputation of [`FabricationProcess::sample_profile`]:
/// everything the sampler derives from `(process, length, segments)` alone
/// — the grid spacing, the OU ripple shape (an `exp`), and the connector
/// bump window — none of which consumes randomness. One instance serves
/// every line of every board built to the same design, so cohort
/// fabrication pays the design work once (see
/// [`DesignPrecompute`](crate::board::DesignPrecompute)).
#[derive(Debug, Clone, PartialEq)]
pub struct LinePrecompute {
    dx: f64,
    segments: usize,
    ou: OuCoeffs,
    /// `0.5 + shape(i)` of the half-cosine connector window, per bump
    /// segment from the line end inward.
    bump_gain: Vec<f64>,
}

impl LinePrecompute {
    /// The grid spacing the profile is sampled on.
    pub fn dx(&self) -> f64 {
        self.dx
    }

    /// The number of segments the precompute was built for.
    pub fn segments(&self) -> usize {
        self.segments
    }
}

/// Statistical description of the PCB fabrication process that produces
/// Tx-lines, i.e. the prior from which IIPs are drawn.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricationProcess {
    /// Nominal characteristic impedance (e.g. 50 Ω).
    pub z0: Ohms,
    /// Relative standard deviation of the impedance deviation
    /// (σ_Z / Z₀); typical controlled-impedance PCB tolerance is a few
    /// percent board-to-board, with ~0.3–0.5 % point-to-point ripple.
    pub relative_sigma: f64,
    /// Correlation length of the impedance ripple along the line (meters).
    pub correlation_length: Meters,
    /// Nominal amplitude of the connector/launch discontinuity at each
    /// end, as a relative impedance excursion. The connector *design* is
    /// shared by all lines from this process.
    pub connector_bump: f64,
    /// Physical length of each connector discontinuity (meters).
    pub connector_length: Meters,
    /// Relative per-line spread of the realized connector bump amplitude —
    /// hand assembly (solder fillet size, seating depth) varies, so the
    /// shared design lands slightly differently on every line.
    pub connector_variation: f64,
}

impl FabricationProcess {
    /// The process used for the paper's custom six-line prototype PCB:
    /// 50 Ω nominal, 1.2 % ripple with 1.5 cm correlation length,
    /// SMA-launch style connector bumps of 2 % over 2 mm with 25 %
    /// assembly spread.
    pub fn paper_prototype() -> Self {
        Self {
            z0: Ohms(50.0),
            relative_sigma: 0.012,
            correlation_length: Meters(0.015),
            connector_bump: 0.02,
            connector_length: Meters(0.002),
            connector_variation: 0.25,
        }
    }

    /// Draw a fresh IIP of `segments` segments covering `length`, for the
    /// line identified by `(seed, line_index)`.
    ///
    /// Each `(seed, line_index)` pair yields a distinct, reproducible
    /// profile — the "unclonable" part; the connector bumps are identical
    /// across lines from the same process.
    ///
    /// # Panics
    ///
    /// Panics if `segments == 0` or `length <= 0`.
    pub fn sample_profile(
        &self,
        length: Meters,
        segments: usize,
        seed: u64,
        line_index: u64,
    ) -> IipProfile {
        self.sample_profile_with(&self.precompute(length, segments), seed, line_index)
    }

    /// Precompute the design-level (randomness-free) part of
    /// [`sample_profile`](Self::sample_profile) for `(length, segments)`.
    ///
    /// # Panics
    ///
    /// Panics if `segments == 0` or `length <= 0`.
    pub fn precompute(&self, length: Meters, segments: usize) -> LinePrecompute {
        assert!(segments > 0, "need at least one segment");
        assert!(length.0 > 0.0, "length must be positive");
        let dx = length.0 / segments as f64;
        let ou = OuCoeffs::new(self.relative_sigma, self.correlation_length.0, dx);
        let bump_segs = ((self.connector_length.0 / dx).round() as usize).max(1);
        let bump_gain = (0..bump_segs)
            .map(|i| {
                // Half-cosine bump shape so the discontinuity is
                // band-limited.
                let frac = (i as f64 + 0.5) / bump_segs as f64;
                let shape = 0.5 * (1.0 - (std::f64::consts::PI * (2.0 * frac - 1.0)).cos().abs());
                0.5 + shape
            })
            .collect();
        LinePrecompute {
            dx,
            segments,
            ou,
            bump_gain,
        }
    }

    /// [`sample_profile`](Self::sample_profile) against a shared
    /// [`LinePrecompute`]: bitwise identical for a precompute built from
    /// the same `(process, length, segments)`, but the per-line pass only
    /// draws randomness — it repeats none of the design arithmetic.
    pub fn sample_profile_with(
        &self,
        pre: &LinePrecompute,
        seed: u64,
        line_index: u64,
    ) -> IipProfile {
        let rng = DivotRng::derive(seed, 0x11F0_0000 | line_index);
        let mut ou = OrnsteinUhlenbeck::with_coeffs(pre.ou, rng);
        let mut z: Vec<f64> = (0..pre.segments)
            .map(|_| self.z0.0 * (1.0 + ou.next_sample()))
            .collect();
        let mut asm_rng = DivotRng::derive(seed, 0xA55E_0000 | line_index);
        self.apply_connector_bumps(pre, &mut z, &mut asm_rng);
        IipProfile {
            z,
            segment_length: Meters(pre.dx),
        }
    }

    fn apply_connector_bumps(&self, pre: &LinePrecompute, z: &mut [f64], asm_rng: &mut DivotRng) {
        let n = z.len();
        // Each end's realized bump amplitude varies with assembly.
        let amp_near = self.connector_bump * (1.0 + asm_rng.normal(0.0, self.connector_variation));
        let amp_far = self.connector_bump * (1.0 + asm_rng.normal(0.0, self.connector_variation));
        for (i, &gain) in pre.bump_gain.iter().take(n).enumerate() {
            z[i] *= 1.0 + amp_near * gain;
            z[n - 1 - i] *= 1.0 + amp_far * gain;
        }
    }
}

/// The impedance-vs-distance profile of one Tx-line: `z[k]` is the
/// characteristic impedance of segment `k`, each of physical length
/// [`IipProfile::segment_length`].
#[derive(Debug, Clone, PartialEq)]
pub struct IipProfile {
    z: Vec<f64>,
    segment_length: Meters,
}

impl IipProfile {
    /// Build a profile from explicit per-segment impedances.
    ///
    /// # Panics
    ///
    /// Panics if `z` is empty, any impedance is non-positive, or
    /// `segment_length <= 0`.
    pub fn new(z: Vec<f64>, segment_length: Meters) -> Self {
        assert!(!z.is_empty(), "profile must have at least one segment");
        assert!(
            z.iter().all(|&v| v > 0.0 && v.is_finite()),
            "impedances must be positive and finite"
        );
        assert!(segment_length.0 > 0.0, "segment length must be positive");
        Self { z, segment_length }
    }

    /// Build a perfectly uniform profile (no inhomogeneity).
    pub fn uniform(z0: Ohms, length: Meters, segments: usize) -> Self {
        assert!(segments > 0, "need at least one segment");
        Self::new(vec![z0.0; segments], Meters(length.0 / segments as f64))
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.z.len()
    }

    /// Whether the profile is empty (never true for a constructed profile).
    pub fn is_empty(&self) -> bool {
        self.z.is_empty()
    }

    /// Per-segment impedances (ohms).
    pub fn impedances(&self) -> &[f64] {
        &self.z
    }

    /// Characteristic impedance of the first segment — what the driver
    /// launches into. The Thevenin drive divider and the source reflection
    /// coefficient both depend on exactly this value, so it has a named
    /// accessor instead of `impedances()[0]` scattered across call sites.
    pub fn z_at_source(&self) -> f64 {
        self.z[0]
    }

    /// Mutable per-segment impedances, for attack/environment transforms.
    pub fn impedances_mut(&mut self) -> &mut [f64] {
        &mut self.z
    }

    /// Physical length of each segment.
    pub fn segment_length(&self) -> Meters {
        self.segment_length
    }

    /// Total physical length of the line.
    pub fn length(&self) -> Meters {
        Meters(self.segment_length.0 * self.z.len() as f64)
    }

    /// Mean impedance over the line.
    pub fn mean_impedance(&self) -> Ohms {
        Ohms(self.z.iter().sum::<f64>() / self.z.len() as f64)
    }

    /// Impedance *contrast*: standard deviation of the profile divided by
    /// its mean — the strength of the fingerprint.
    pub fn contrast(&self) -> f64 {
        let m = self.mean_impedance().0;
        let var = self.z.iter().map(|&z| (z - m) * (z - m)).sum::<f64>() / self.z.len() as f64;
        var.sqrt() / m
    }

    /// Reflection coefficient at the interface *entering* segment `k` from
    /// segment `k−1` (`ρ = (Z_k − Z_{k−1}) / (Z_k + Z_{k−1})`). Interface 0
    /// is computed against `source_z` (the driver's output impedance).
    ///
    /// # Panics
    ///
    /// Panics if `k > len()` or `source_z <= 0`.
    pub fn reflection_at(&self, k: usize, source_z: Ohms) -> f64 {
        assert!(source_z.0 > 0.0, "source impedance must be positive");
        assert!(k < self.z.len(), "interface index out of range");
        let z_prev = if k == 0 { source_z.0 } else { self.z[k - 1] };
        (self.z[k] - z_prev) / (self.z[k] + z_prev)
    }

    /// Scale every segment impedance by `factor` (used by the temperature
    /// model: higher Dk ⇒ uniformly lower impedance).
    ///
    /// # Panics
    ///
    /// Panics if `factor <= 0`.
    pub fn scale_impedance(&mut self, factor: f64) {
        assert!(factor > 0.0, "scale factor must be positive");
        for z in &mut self.z {
            *z *= factor;
        }
    }

    /// An attacker's best-effort physical clone of this profile.
    ///
    /// Even with the enrolled fingerprint in hand (the paper argues the
    /// EPROM needs no secrecy), a cloner is limited by their own
    /// fabrication: they can only *place* impedance features at
    /// `resolution` granularity, and each placed feature lands with
    /// `tolerance` relative error (their fab's impedance-control
    /// precision — no better than the process ripple that created the
    /// original fingerprint). This method models that best effort:
    /// block-average the target profile at the placement resolution, then
    /// perturb every block by the fabrication tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance < 0` or `resolution <= 0`.
    pub fn clone_with_tolerance(
        &self,
        tolerance: f64,
        resolution: Meters,
        rng: &mut DivotRng,
    ) -> IipProfile {
        assert!(tolerance >= 0.0, "tolerance must be non-negative");
        assert!(resolution.0 > 0.0, "resolution must be positive");
        let block = ((resolution.0 / self.segment_length.0).round() as usize).max(1);
        let mut z = Vec::with_capacity(self.z.len());
        let mut i = 0;
        while i < self.z.len() {
            let end = (i + block).min(self.z.len());
            let target: f64 = self.z[i..end].iter().sum::<f64>() / (end - i) as f64;
            let achieved = target * (1.0 + rng.normal(0.0, tolerance));
            for _ in i..end {
                z.push(achieved);
            }
            i = end;
        }
        IipProfile {
            z,
            segment_length: self.segment_length,
        }
    }

    /// Add a localized impedance bump: `z[k] *= 1 + amp·w(k)` where `w` is
    /// a raised-cosine window centered at `center` (fraction of the line,
    /// 0..1) with full width `width` (fraction of the line).
    ///
    /// Used by the magnetic-probe and vibration models.
    pub fn add_bump(&mut self, center: f64, width: f64, amp: f64) {
        let n = self.z.len() as f64;
        let c = center * n;
        let half = (width * n / 2.0).max(0.5);
        let lo = ((c - half).floor().max(0.0)) as usize;
        let hi = ((c + half).ceil() as usize).min(self.z.len());
        for k in lo..hi {
            let u = (k as f64 + 0.5 - c) / half;
            if u.abs() <= 1.0 {
                let w = 0.5 * (1.0 + (std::f64::consts::PI * u).cos());
                self.z[k] *= 1.0 + amp * w;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn process() -> FabricationProcess {
        FabricationProcess::paper_prototype()
    }

    #[test]
    fn profiles_are_reproducible() {
        let p = process();
        let a = p.sample_profile(Meters(0.25), 512, 7, 0);
        let b = p.sample_profile(Meters(0.25), 512, 7, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn shared_precompute_matches_direct_sampling() {
        let p = process();
        let pre = p.precompute(Meters(0.25), 512);
        assert_eq!(pre.segments(), 512);
        assert!((pre.dx() - 0.25 / 512.0).abs() < 1e-18);
        for line in 0..3u64 {
            let direct = p.sample_profile(Meters(0.25), 512, 7, line);
            let shared = p.sample_profile_with(&pre, 7, line);
            assert_eq!(direct, shared);
        }
    }

    #[test]
    fn different_lines_differ() {
        let p = process();
        let a = p.sample_profile(Meters(0.25), 512, 7, 0);
        let b = p.sample_profile(Meters(0.25), 512, 7, 1);
        assert_ne!(a.impedances(), b.impedances());
    }

    #[test]
    fn profile_statistics_match_process() {
        let p = process();
        let prof = p.sample_profile(Meters(2.0), 8192, 3, 0);
        let mean = prof.mean_impedance().0;
        assert!((mean - 50.0).abs() < 0.5, "mean={mean}");
        // Contrast near the process sigma (connector bumps add a little);
        // with ~133 independent correlation lengths over 2 m the sample
        // contrast scatters ±~15 % around σ = 0.012 across realizations.
        let c = prof.contrast();
        assert!(c > 0.008 && c < 0.016, "contrast={c}");
    }

    #[test]
    fn connector_bumps_present_on_every_line_but_vary() {
        let p = process();
        let a = p.sample_profile(Meters(0.25), 512, 7, 0);
        let b = p.sample_profile(Meters(0.25), 512, 7, 1);
        // Both lines carry an elevated launch bump (same design)...
        let bump_a = a.impedances()[0] / a.mean_impedance().0;
        let bump_b = b.impedances()[0] / b.mean_impedance().0;
        assert!(bump_a > 1.003 && bump_b > 1.003, "{bump_a} {bump_b}");
        // ...but assembly variation makes the realized amplitudes differ.
        assert!((bump_a - bump_b).abs() > 1e-4);
    }

    #[test]
    fn uniform_profile_has_zero_contrast() {
        let prof = IipProfile::uniform(Ohms(50.0), Meters(0.25), 100);
        assert_eq!(prof.contrast(), 0.0);
        assert_eq!(prof.len(), 100);
        assert!((prof.length().0 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn reflection_coefficients() {
        let prof = IipProfile::new(vec![50.0, 60.0, 40.0], Meters(0.001));
        assert_eq!(prof.reflection_at(0, Ohms(50.0)), 0.0);
        assert!((prof.reflection_at(1, Ohms(50.0)) - 10.0 / 110.0).abs() < 1e-12);
        assert!((prof.reflection_at(2, Ohms(50.0)) + 20.0 / 100.0).abs() < 1e-12);
    }

    #[test]
    fn scale_impedance_scales_mean() {
        let mut prof = IipProfile::uniform(Ohms(50.0), Meters(0.1), 10);
        prof.scale_impedance(0.98);
        assert!((prof.mean_impedance().0 - 49.0).abs() < 1e-9);
    }

    #[test]
    fn bump_is_local_and_smooth() {
        let mut prof = IipProfile::uniform(Ohms(50.0), Meters(0.25), 200);
        prof.add_bump(0.5, 0.05, 0.02);
        let z = prof.impedances();
        // Peak at the center, untouched far away.
        assert!(z[100] > 50.9);
        assert_eq!(z[10], 50.0);
        assert_eq!(z[190], 50.0);
        // Smooth edges: neighbors partially raised.
        assert!(z[97] > 50.0 && z[97] < z[100]);
    }

    #[test]
    fn bump_at_edges_is_clipped_safely() {
        let mut prof = IipProfile::uniform(Ohms(50.0), Meters(0.25), 100);
        prof.add_bump(0.0, 0.1, 0.05);
        prof.add_bump(1.0, 0.1, 0.05);
        assert!(prof.impedances()[0] > 50.0);
        assert!(prof.impedances()[99] > 50.0);
    }

    #[test]
    fn perfect_clone_at_zero_tolerance_and_fine_resolution() {
        let p = process();
        let prof = p.sample_profile(Meters(0.25), 256, 5, 0);
        let mut rng = DivotRng::seed_from_u64(1);
        let clone = prof.clone_with_tolerance(0.0, prof.segment_length(), &mut rng);
        assert_eq!(clone.impedances(), prof.impedances());
    }

    #[test]
    fn coarse_resolution_flattens_detail() {
        let p = process();
        let prof = p.sample_profile(Meters(0.25), 256, 5, 0);
        let mut rng = DivotRng::seed_from_u64(2);
        // Placement blocks of 5 cm wipe out the 1.5 cm correlation detail.
        let clone = prof.clone_with_tolerance(0.0, Meters(0.05), &mut rng);
        assert!(clone.contrast() < prof.contrast());
        // Within each block the clone is constant.
        let z = clone.impedances();
        assert_eq!(z[0], z[1]);
    }

    #[test]
    fn tolerance_adds_fab_noise() {
        let p = process();
        let prof = p.sample_profile(Meters(0.25), 256, 5, 0);
        let mut rng = DivotRng::seed_from_u64(3);
        let clone = prof.clone_with_tolerance(0.012, prof.segment_length(), &mut rng);
        assert_ne!(clone.impedances(), prof.impedances());
        // Mean impedance preserved to within the tolerance scale.
        assert!((clone.mean_impedance().0 - prof.mean_impedance().0).abs() < 0.5);
    }

    #[test]
    #[should_panic(expected = "impedances must be positive")]
    fn rejects_nonpositive_impedance() {
        let _ = IipProfile::new(vec![50.0, 0.0], Meters(0.001));
    }

    #[test]
    #[should_panic(expected = "interface index out of range")]
    fn reflection_out_of_range_panics() {
        let prof = IipProfile::uniform(Ohms(50.0), Meters(0.1), 4);
        let _ = prof.reflection_at(4, Ohms(50.0));
    }
}
