//! Time-domain bounce (lattice) simulation of wave propagation on an
//! inhomogeneous Tx-line network.
//!
//! This is the physical process a TDR observes (paper Fig. 1). The line is a
//! chain of short segments, each with its own characteristic impedance from
//! the [`IipProfile`] type; at every impedance step a
//! travelling wave partially reflects (`ρ = (Z₂−Z₁)/(Z₂+Z₁)`) and partially
//! transmits (`1+ρ`). The engine tracks the forward and backward wave in
//! every segment, advancing one segment-traversal per tick, which is the
//! standard numerically exact solution of the lossy 1-D wave equation in
//! piecewise-uniform media.
//!
//! Wire-taps are 3-port ideal parallel junctions with a stub line hanging
//! off the main line; terminations may be reactive (R ∥ C chip inputs) via
//! stateful [`Reflector`] state machines.
//!
//! The recorded output is the backward wave arriving at the source each
//! tick — the back-reflection waveform whose shape *is* the line's IIP
//! signature, observed through the launched edge.
//!
//! # Kernel design
//!
//! [`Engine::run`] is the optimized kernel every measurement funnels
//! through: reflection coefficients and their `1±ρ` companions are
//! precomputed into flat tables in [`Engine::new`] (no divisions in the
//! hot loop), and the interface walk is split into contiguous tap-free
//! spans separated by tap junctions so the span sweep is branch-free and
//! auto-vectorizable, with a dedicated no-tap fast path for the untampered
//! network. The naive kernel survives as [`Engine::run_reference`] and the
//! two are bitwise identical (same IEEE-754 operations in the same order).
//! On top of the kernel, [`crate::impulse`] exploits linearity to reuse
//! one simulation across arbitrarily many drive shapes.

use crate::iip::IipProfile;
use crate::termination::{Reflector, Termination};
use crate::units::{Meters, Ohms, Seconds, Volts, PCB_VELOCITY_M_PER_S};
use divot_dsp::waveform::Waveform;

/// A complete Tx-line: its IIP, propagation velocity, loss, and far-end
/// termination.
#[derive(Debug, Clone, PartialEq)]
pub struct TxLine {
    /// The impedance-vs-distance profile (the fingerprint).
    pub profile: IipProfile,
    /// Propagation velocity in m/s (≈15 cm/ns on FR-4).
    pub velocity: f64,
    /// Dielectric + conductor loss in dB per meter.
    pub loss_db_per_m: f64,
    /// The far-end load.
    pub termination: Termination,
}

impl TxLine {
    /// A line with PCB-typical velocity and loss over the given profile,
    /// terminated by `termination`.
    pub fn new(profile: IipProfile, termination: Termination) -> Self {
        Self {
            profile,
            velocity: PCB_VELOCITY_M_PER_S,
            loss_db_per_m: 2.0,
            termination,
        }
    }

    /// Wrap this line as a tap-free [`Network`].
    pub fn network(&self) -> Network {
        Network {
            main: self.clone(),
            taps: Vec::new(),
        }
    }

    /// One-way propagation delay over the whole line.
    pub fn one_way_delay(&self) -> Seconds {
        Seconds(self.profile.length().0 / self.velocity)
    }

    /// The engine tick: the traversal time of one segment.
    pub fn tick(&self) -> Seconds {
        Seconds(self.profile.segment_length().0 / self.velocity)
    }
}

/// A stub line soldered onto the main line (the wire-tap model).
#[derive(Debug, Clone, PartialEq)]
pub struct StubSpec {
    /// Physical stub length (the tap wire to the eavesdropping instrument).
    pub length: Meters,
    /// Stub characteristic impedance (a hand-soldered wire is far from
    /// controlled impedance — typically 100–200 Ω over a ground plane).
    pub z0: Ohms,
    /// What the stub is connected to (an oscilloscope input, usually
    /// 50 Ω resistive or 1 MΩ ∥ pF probe).
    pub termination: Termination,
}

impl StubSpec {
    /// A typical oscilloscope tap: 8 cm wire at ~120 Ω into a 50 Ω scope.
    pub fn oscilloscope_tap() -> Self {
        Self {
            length: Meters(0.08),
            z0: Ohms(120.0),
            termination: Termination::Resistive(Ohms(50.0)),
        }
    }
}

/// A tap junction on the main line.
#[derive(Debug, Clone, PartialEq)]
pub struct Tap {
    /// Position along the main line as a fraction in `(0, 1)`.
    pub position: f64,
    /// The attached stub.
    pub stub: StubSpec,
}

/// A main line plus any attached taps — what the scattering engine solves.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    /// The protected Tx-line.
    pub main: TxLine,
    /// Foreign stubs attached by an attacker (empty when untampered).
    pub taps: Vec<Tap>,
}

impl Network {
    /// Simulate the back-reflection waveform for the drive signal described
    /// by `cfg` (an edge), on this network.
    ///
    /// The result is sampled at the engine tick (`segment_length/velocity`,
    /// ~3 ps for the default 512-segment 25 cm line) and spans
    /// `cfg.duration_factor` round trips.
    pub fn edge_response(&self, cfg: &SimConfig) -> Waveform {
        let mut engine = Engine::new(self, cfg);
        let drive = cfg.drive_samples(&self.main, engine.ticks);
        engine.run(&drive)
    }
}

/// The shape of a launched voltage edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeShape {
    /// Linear ramp over the rise time.
    Linear,
    /// Raised-cosine (smoothest band-limited) edge.
    RaisedCosine,
    /// Exponential settling with time constant = rise_time/2.2 (10–90 %).
    Exponential,
}

impl EdgeShape {
    /// Normalized edge value at normalized time `u = t/rise_time` (clamped
    /// to `[0, 1]` outside the rise for the non-exponential shapes).
    pub fn at(&self, u: f64) -> f64 {
        match self {
            EdgeShape::Linear => u.clamp(0.0, 1.0),
            EdgeShape::RaisedCosine => {
                let u = u.clamp(0.0, 1.0);
                0.5 * (1.0 - (std::f64::consts::PI * u).cos())
            }
            EdgeShape::Exponential => {
                if u <= 0.0 {
                    0.0
                } else {
                    1.0 - (-2.2 * u).exp()
                }
            }
        }
    }
}

/// Driver and simulation parameters for one edge-response run.
///
/// ```
/// use divot_txline::scatter::SimConfig;
/// use divot_txline::units::Volts;
///
/// // The defaults model a 0.9 V swing, 50 Ω source, 150 ps edge. Override
/// // individual fields for what-if drive studies:
/// let hot = SimConfig { amplitude: Volts(1.8), ..SimConfig::default() };
/// assert_eq!(hot.source_impedance, SimConfig::default().source_impedance);
/// assert!(hot.amplitude.0 > SimConfig::default().amplitude.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Output impedance of the driving transmitter.
    pub source_impedance: Ohms,
    /// Full voltage swing of the driver.
    pub amplitude: Volts,
    /// 0–100 % rise time of the edge.
    pub rise_time: Seconds,
    /// Edge shape.
    pub shape: EdgeShape,
    /// Simulated duration as a multiple of the line's round-trip time
    /// (values ≥ 2.2 capture the termination echo and its first multiples).
    pub duration_factor: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            source_impedance: Ohms(50.0),
            amplitude: Volts(0.9),
            rise_time: Seconds(150e-12),
            shape: EdgeShape::RaisedCosine,
            duration_factor: 2.6,
        }
    }
}

impl SimConfig {
    /// The incident-wave samples launched into the line, at the engine tick
    /// rate. The Thevenin divider scales the driver swing by
    /// `Z₀/(Z_s+Z₀)`.
    pub fn drive_samples(&self, line: &TxLine, ticks: usize) -> Vec<f64> {
        self.drive_samples_with(line.profile.z_at_source(), line.tick().0, ticks)
    }

    /// [`drive_samples`](Self::drive_samples) for an explicit launch
    /// impedance and tick length — the form used by the impulse-response
    /// synthesis path, which holds the grid parameters but not the line.
    pub fn drive_samples_with(&self, z_source: f64, dt: f64, ticks: usize) -> Vec<f64> {
        let divider = z_source / (self.source_impedance.0 + z_source);
        let a = self.amplitude.0 * divider;
        (0..ticks)
            .map(|t| a * self.shape.at(t as f64 * dt / self.rise_time.0))
            .collect()
    }

    /// Number of engine ticks this config simulates for `line`.
    pub fn ticks_for(&self, line: &TxLine) -> usize {
        self.ticks_for_grid(line.profile.len(), line.tick().0)
    }

    /// [`ticks_for`](Self::ticks_for) for an explicit segment count and
    /// tick length.
    pub fn ticks_for_grid(&self, segments: usize, dt: f64) -> usize {
        let rise_ticks = (self.rise_time.0 / dt).ceil() as usize;
        (2.0 * segments as f64 * self.duration_factor) as usize + rise_ticks + 64
    }
}

/// One 3-port parallel junction's scattering coefficients.
#[derive(Debug, Clone, Copy)]
struct Junction3 {
    // Reflection seen by each port (incident on that port).
    gamma: [f64; 3],
}

impl Junction3 {
    fn new(z: [f64; 3]) -> Self {
        let mut gamma = [0.0; 3];
        for i in 0..3 {
            let (a, b) = match i {
                0 => (z[1], z[2]),
                1 => (z[0], z[2]),
                _ => (z[0], z[1]),
            };
            let zp = a * b / (a + b);
            gamma[i] = (zp - z[i]) / (zp + z[i]);
        }
        Self { gamma }
    }

    /// Scatter incident waves `a = [a0, a1, a2]` into outgoing waves.
    fn scatter(&self, a: [f64; 3]) -> [f64; 3] {
        let mut out = [0.0; 3];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0.0 {
                continue;
            }
            let node_v = (1.0 + self.gamma[i]) * ai;
            for (j, o) in out.iter_mut().enumerate() {
                *o += if j == i { self.gamma[i] * ai } else { node_v };
            }
        }
        out
    }
}

struct StubState {
    // Forward (away from the junction) and backward waves per segment.
    f: Vec<f64>,
    b: Vec<f64>,
    atten: f64,
    reflector: Reflector,
}

/// One step of the optimized engine's per-tick execution plan: a
/// contiguous run of tap-free interfaces swept branch-free, or a single
/// tap junction. Built once in [`Engine::new`] (taps are sorted there), so
/// the hot loop never re-discovers where the taps are.
#[derive(Debug, Clone, Copy)]
enum PlanStep {
    /// Tap-free interfaces `lo..hi` (half-open).
    Span { lo: usize, hi: usize },
    /// The junction at `taps[tap]`.
    Tap { tap: usize },
}

/// The scattering engine for one network under one drive configuration.
///
/// Users normally call [`Network::edge_response`]; the engine is public so
/// benchmarks can measure it in isolation.
///
/// Two kernels are compiled: [`Engine::run`], the optimized kernel
/// (precomputed reflection tables, branch-free tap-span splitting), and
/// [`Engine::run_reference`], the direct transcription of the physics that
/// recomputes `ρ` per interface per tick. The optimized kernel performs
/// the same IEEE-754 operations in the same order, so the two are bitwise
/// identical; equivalence is pinned by unit tests here and by the
/// proptests in `tests/scatter_equiv.rs`.
pub struct Engine {
    z: Vec<f64>,
    // Precomputed reflection tables, indexed by interface: rho[i] is the
    // reflection entering segment i from segment i−1 (index 0 is padding
    // so the tables align with z/f/b). Computing these once in `new`
    // removes every division from the hot loop.
    rho: Vec<f64>,
    one_plus_rho: Vec<f64>,
    one_minus_rho: Vec<f64>,
    plan: Vec<PlanStep>,
    f: Vec<f64>,
    b: Vec<f64>,
    nf: Vec<f64>,
    nb: Vec<f64>,
    atten: f64,
    rho_source: f64,
    reflector: Reflector,
    // taps: (interface index, junction, stub)
    taps: Vec<(usize, Junction3, StubState)>,
    ticks: usize,
    dt: f64,
}

/// Branch-free sweep of one tap-free interface span: scatter the
/// attenuated incident waves through the precomputed reflection tables.
/// All slices have the same length; zipped iteration elides the bounds
/// checks so LLVM can unroll and vectorize the loop.
///
/// The arithmetic is expression-for-expression the reference kernel's
/// (`inc_l = a·f`, `inc_r = a·b`, then the `1±ρ` scattering form), so the
/// result is bitwise identical to [`Engine::run_reference`].
#[inline]
#[allow(clippy::too_many_arguments)]
fn sweep_span(
    a: f64,
    f_prev: &[f64],
    b_cur: &[f64],
    rho: &[f64],
    one_plus_rho: &[f64],
    one_minus_rho: &[f64],
    nf_cur: &mut [f64],
    nb_prev: &mut [f64],
) {
    let it = nf_cur
        .iter_mut()
        .zip(nb_prev)
        .zip(f_prev)
        .zip(b_cur)
        .zip(rho)
        .zip(one_plus_rho)
        .zip(one_minus_rho);
    for ((((((nf, nb), &fp), &bc), &r), &p), &m) in it {
        let inc_l = a * fp;
        let inc_r = a * bc;
        *nf = p * inc_l - r * inc_r;
        *nb = r * inc_l + m * inc_r;
    }
}

impl Engine {
    /// Build an engine for `network` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if a tap position is outside `(0, 1)` or lands on an end
    /// interface, or the stub would have no segments.
    pub fn new(network: &Network, cfg: &SimConfig) -> Self {
        let line = &network.main;
        let z = line.profile.impedances().to_vec();
        let k = z.len();
        let dt = line.tick().0;
        let seg_len = line.profile.segment_length().0;
        let atten = 10f64.powf(-line.loss_db_per_m * seg_len / 20.0);
        let z_src = line.profile.z_at_source();
        let rho_source = (cfg.source_impedance.0 - z_src) / (cfg.source_impedance.0 + z_src);
        let reflector = line.termination.reflector(Ohms(z[k - 1]), dt);

        let mut taps = Vec::new();
        for tap in &network.taps {
            assert!(
                tap.position > 0.0 && tap.position < 1.0,
                "tap position must be inside (0,1), got {}",
                tap.position
            );
            let iface = ((tap.position * k as f64).round() as usize).clamp(1, k - 1);
            // Stub segments at the same per-tick physical length.
            let stub_segs = ((tap.stub.length.0 / seg_len).round() as usize).max(1);
            let junction = Junction3::new([z[iface - 1], z[iface], tap.stub.z0.0]);
            let stub_reflector = tap.stub.termination.reflector(tap.stub.z0, dt);
            taps.push((
                iface,
                junction,
                StubState {
                    f: vec![0.0; stub_segs],
                    b: vec![0.0; stub_segs],
                    atten,
                    reflector: stub_reflector,
                },
            ));
        }
        // Sort taps by interface, and ensure at most one tap per interface.
        taps.sort_by_key(|(i, _, _)| *i);
        for w in taps.windows(2) {
            assert!(
                w[0].0 != w[1].0,
                "two taps cannot share interface {}",
                w[0].0
            );
        }
        let ticks = cfg.ticks_for(line);

        // Precompute the per-interface reflection tables once — the hot
        // loop then runs division-free.
        let mut rho = vec![0.0; k];
        let mut one_plus_rho = vec![0.0; k];
        let mut one_minus_rho = vec![0.0; k];
        for i in 1..k {
            let r = (z[i] - z[i - 1]) / (z[i] + z[i - 1]);
            rho[i] = r;
            one_plus_rho[i] = 1.0 + r;
            one_minus_rho[i] = 1.0 - r;
        }

        // Split the interface walk 1..k into tap-free spans separated by
        // tap junctions (taps are sorted above), so the per-tick loop
        // never tests for taps inside a span.
        let mut plan = Vec::with_capacity(2 * taps.len() + 1);
        let mut lo = 1;
        for (ti, (iface, _, _)) in taps.iter().enumerate() {
            if *iface > lo {
                plan.push(PlanStep::Span { lo, hi: *iface });
            }
            plan.push(PlanStep::Tap { tap: ti });
            lo = *iface + 1;
        }
        if lo < k {
            plan.push(PlanStep::Span { lo, hi: k });
        }

        Self {
            f: vec![0.0; k],
            b: vec![0.0; k],
            nf: vec![0.0; k],
            nb: vec![0.0; k],
            z,
            rho,
            one_plus_rho,
            one_minus_rho,
            plan,
            atten,
            rho_source,
            reflector,
            taps,
            ticks,
            dt,
        }
    }

    /// Number of ticks [`Engine::run`] will simulate.
    pub fn ticks(&self) -> usize {
        self.ticks
    }

    /// Reset all wave state (main-line and stub waves, termination filter
    /// state) so the engine can be reused for an independent run without
    /// reallocating.
    pub fn reset(&mut self) {
        self.f.fill(0.0);
        self.b.fill(0.0);
        self.nf.fill(0.0);
        self.nb.fill(0.0);
        self.reflector.reset();
        for (_, _, stub) in &mut self.taps {
            stub.f.fill(0.0);
            stub.b.fill(0.0);
            stub.reflector.reset();
        }
    }

    /// Drive sample at tick `t`: slices shorter than the run are extended
    /// by *holding the last sample* (physically right for a step edge —
    /// the driver stays at its settled level), and an empty drive is all
    /// zeros.
    #[inline]
    fn drive_at(drive: &[f64], t: usize) -> f64 {
        drive
            .get(t)
            .copied()
            .unwrap_or_else(|| drive.last().copied().unwrap_or(0.0))
    }

    /// Run the simulation, driving the source with `drive` (incident-wave
    /// amplitudes per tick; slices shorter than the run are extended by
    /// *holding the last sample* — physically right for a step edge, whose
    /// driver stays at its settled level) and recording the backward wave
    /// arriving at the source each tick.
    ///
    /// This is the optimized kernel: reflection coefficients come from
    /// tables precomputed in [`Engine::new`] and tap junctions are visited
    /// via the span plan instead of a per-interface branch. It is bitwise
    /// identical to [`Engine::run_reference`].
    pub fn run(&mut self, drive: &[f64]) -> Waveform {
        if self.taps.is_empty() {
            self.run_clean(drive)
        } else {
            self.run_tapped(drive)
        }
    }

    /// The no-tap fast path: the untampered network is the common case
    /// (every enrollment, every clean monitor tick), and with no junctions
    /// the whole interface walk is one tight sweep.
    fn run_clean(&mut self, drive: &[f64]) -> Waveform {
        let k = self.z.len();
        let a = self.atten;
        let mut out = Vec::with_capacity(self.ticks);

        for t in 0..self.ticks {
            let drive_t = Self::drive_at(drive, t);

            // Source interface: the arriving backward wave is the detector
            // signal; part of it re-reflects off the source impedance.
            let arriving = a * self.b[0];
            out.push(arriving);
            self.nf[0] = drive_t + self.rho_source * arriving;

            // Internal interfaces 1..k in one branch-free sweep.
            sweep_span(
                a,
                &self.f[..k - 1],
                &self.b[1..],
                &self.rho[1..],
                &self.one_plus_rho[1..],
                &self.one_minus_rho[1..],
                &mut self.nf[1..],
                &mut self.nb[..k - 1],
            );

            // Termination interface.
            let inc_end = a * self.f[k - 1];
            self.nb[k - 1] = self.reflector.step(inc_end);

            std::mem::swap(&mut self.f, &mut self.nf);
            std::mem::swap(&mut self.b, &mut self.nb);
        }
        Waveform::new(0.0, self.dt, out)
    }

    /// The tapped path: walk the precomputed plan — tap-free spans swept
    /// exactly like the clean path, tap junctions scattered in between.
    fn run_tapped(&mut self, drive: &[f64]) -> Waveform {
        let k = self.z.len();
        let a = self.atten;
        let mut out = Vec::with_capacity(self.ticks);

        for t in 0..self.ticks {
            let drive_t = Self::drive_at(drive, t);

            let arriving = a * self.b[0];
            out.push(arriving);
            self.nf[0] = drive_t + self.rho_source * arriving;

            for si in 0..self.plan.len() {
                match self.plan[si] {
                    PlanStep::Span { lo, hi } => sweep_span(
                        a,
                        &self.f[lo - 1..hi - 1],
                        &self.b[lo..hi],
                        &self.rho[lo..hi],
                        &self.one_plus_rho[lo..hi],
                        &self.one_minus_rho[lo..hi],
                        &mut self.nf[lo..hi],
                        &mut self.nb[lo - 1..hi - 1],
                    ),
                    PlanStep::Tap { tap } => {
                        let (iface, junction, stub) = &mut self.taps[tap];
                        let i = *iface;
                        let inc_l = a * self.f[i - 1];
                        let inc_r = a * self.b[i];
                        let inc_s = stub.atten * stub.b[0];
                        let outw = junction.scatter([inc_l, inc_r, inc_s]);
                        self.nb[i - 1] = outw[0];
                        self.nf[i] = outw[1];
                        // Advance the stub internals (uniform, so pure
                        // delay) and its termination.
                        let ks = stub.f.len();
                        let arriving_end = stub.atten * stub.f[ks - 1];
                        let refl_end = stub.reflector.step(arriving_end);
                        for j in (1..ks).rev() {
                            stub.f[j] = stub.atten * stub.f[j - 1];
                        }
                        stub.f[0] = outw[2];
                        for j in 0..ks - 1 {
                            stub.b[j] = stub.atten * stub.b[j + 1];
                        }
                        stub.b[ks - 1] = refl_end;
                    }
                }
            }

            let inc_end = a * self.f[k - 1];
            self.nb[k - 1] = self.reflector.step(inc_end);

            std::mem::swap(&mut self.f, &mut self.nf);
            std::mem::swap(&mut self.b, &mut self.nb);
        }
        Waveform::new(0.0, self.dt, out)
    }

    /// The naive reference kernel: recomputes `ρ = (Z₂−Z₁)/(Z₂+Z₁)` per
    /// interface per tick and checks for a tap inside the interface loop —
    /// a direct transcription of the physics. Kept (and exported) as the
    /// ground truth the optimized [`Engine::run`] is pinned against in
    /// tests and measured against in `crates/bench/benches/scatter.rs`.
    ///
    /// Drive slices shorter than the run are extended by holding the last
    /// sample, exactly as in [`Engine::run`].
    pub fn run_reference(&mut self, drive: &[f64]) -> Waveform {
        let k = self.z.len();
        let a = self.atten;
        let mut out = Vec::with_capacity(self.ticks);

        for t in 0..self.ticks {
            let drive_t = Self::drive_at(drive, t);

            let arriving = a * self.b[0];
            out.push(arriving);
            self.nf[0] = drive_t + self.rho_source * arriving;

            // Internal interfaces 1..k (tap junctions handled separately).
            let mut tap_iter = self.taps.iter_mut().peekable();
            for i in 1..k {
                let inc_l = a * self.f[i - 1];
                let inc_r = a * self.b[i];
                if let Some((iface, junction, stub)) = tap_iter.peek_mut() {
                    if *iface == i {
                        let inc_s = stub.atten * stub.b[0];
                        let outw = junction.scatter([inc_l, inc_r, inc_s]);
                        self.nb[i - 1] = outw[0];
                        self.nf[i] = outw[1];
                        let ks = stub.f.len();
                        let arriving_end = stub.atten * stub.f[ks - 1];
                        let refl_end = stub.reflector.step(arriving_end);
                        for j in (1..ks).rev() {
                            stub.f[j] = stub.atten * stub.f[j - 1];
                        }
                        stub.f[0] = outw[2];
                        for j in 0..ks - 1 {
                            stub.b[j] = stub.atten * stub.b[j + 1];
                        }
                        stub.b[ks - 1] = refl_end;
                        tap_iter.next();
                        continue;
                    }
                }
                let rho = (self.z[i] - self.z[i - 1]) / (self.z[i] + self.z[i - 1]);
                self.nf[i] = (1.0 + rho) * inc_l - rho * inc_r;
                self.nb[i - 1] = rho * inc_l + (1.0 - rho) * inc_r;
            }

            let inc_end = a * self.f[k - 1];
            self.nb[k - 1] = self.reflector.step(inc_end);

            std::mem::swap(&mut self.f, &mut self.nf);
            std::mem::swap(&mut self.b, &mut self.nb);
        }
        Waveform::new(0.0, self.dt, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iip::IipProfile;
    use crate::units::Farads;

    fn uniform_line(term: Termination) -> TxLine {
        let mut line = TxLine::new(IipProfile::uniform(Ohms(50.0), Meters(0.25), 256), term);
        line.loss_db_per_m = 0.0;
        line
    }

    fn fast_cfg() -> SimConfig {
        SimConfig {
            rise_time: Seconds(30e-12),
            ..SimConfig::default()
        }
    }

    #[test]
    fn matched_uniform_line_reflects_nothing() {
        let net = uniform_line(Termination::Matched).network();
        let w = net.edge_response(&SimConfig::default());
        assert!(w.peak() < 1e-12, "peak={}", w.peak());
    }

    #[test]
    fn open_line_echoes_the_full_step_at_round_trip() {
        let line = uniform_line(Termination::Open);
        let round_trip = 2.0 * line.one_way_delay().0;
        let net = line.network();
        let cfg = fast_cfg();
        let w = net.edge_response(&cfg);
        // Incident amplitude = 0.9 * 50/(50+50) = 0.45 V; the echo arrives
        // at t = round trip with +1 reflection.
        let before = w.sample_at(round_trip * 0.9);
        let after = w.sample_at(round_trip + 3.0 * cfg.rise_time.0);
        assert!(before.abs() < 1e-12);
        assert!((after - 0.45).abs() < 1e-3, "after={after}");
    }

    #[test]
    fn short_line_echoes_negative() {
        let line = uniform_line(Termination::Short);
        let round_trip = 2.0 * line.one_way_delay().0;
        let cfg = fast_cfg();
        let w = line.network().edge_response(&cfg);
        let after = w.sample_at(round_trip + 3.0 * cfg.rise_time.0);
        assert!((after + 0.45).abs() < 1e-3, "after={after}");
    }

    #[test]
    fn resistive_termination_scales_echo() {
        let line = uniform_line(Termination::Resistive(Ohms(75.0)));
        let round_trip = 2.0 * line.one_way_delay().0;
        let cfg = fast_cfg();
        let w = line.network().edge_response(&cfg);
        let after = w.sample_at(round_trip + 3.0 * cfg.rise_time.0);
        assert!((after - 0.45 * 0.2).abs() < 1e-3, "after={after}");
    }

    #[test]
    fn loss_attenuates_echo() {
        let mut line = uniform_line(Termination::Open);
        line.loss_db_per_m = 4.0;
        let round_trip = 2.0 * line.one_way_delay().0;
        let cfg = fast_cfg();
        let w = line.network().edge_response(&cfg);
        let after = w.sample_at(round_trip + 3.0 * cfg.rise_time.0);
        // 4 dB/m over 0.5 m round trip = 2 dB ≈ ×0.794.
        assert!((after - 0.45 * 0.794).abs() < 5e-3, "after={after}");
    }

    #[test]
    fn single_impedance_step_reflects_at_its_distance() {
        // 50 Ω for the first half, 55 Ω for the second: one echo at the
        // midpoint round-trip time with ρ = 5/105.
        let mut z = vec![50.0; 256];
        for zi in z.iter_mut().skip(128) {
            *zi = 55.0;
        }
        let mut line = TxLine::new(
            IipProfile::new(z, Meters(0.25 / 256.0)),
            Termination::Resistive(Ohms(55.0)),
        );
        line.loss_db_per_m = 0.0;
        let cfg = fast_cfg();
        let w = line.network().edge_response(&cfg);
        let mid_rt = line.one_way_delay().0; // round trip to midpoint
        let rho = 5.0 / 105.0;
        let expect = 0.45 * rho;
        let at_echo = w.sample_at(mid_rt + 3.0 * cfg.rise_time.0);
        assert!(
            (at_echo - expect).abs() < 2e-4,
            "got {at_echo} want {expect}"
        );
        // Before the echo: nothing.
        assert!(w.sample_at(mid_rt * 0.8).abs() < 1e-12);
    }

    #[test]
    fn chip_termination_produces_capacitive_dip() {
        let chip = crate::termination::ChipInput {
            resistance: Ohms(60.0),
            capacitance: Farads(2e-12),
        };
        let line = uniform_line(Termination::Chip(chip));
        let round_trip = 2.0 * line.one_way_delay().0;
        let cfg = fast_cfg();
        let w = line.network().edge_response(&cfg);
        // Just after the echo arrives the reflection dips negative
        // (capacitor looks like a short), then settles positive.
        let dip = w.window(round_trip, round_trip + 100e-12);
        let settled = w.sample_at(round_trip + 1.5e-9);
        assert!(dip.samples().iter().cloned().fold(0.0f64, f64::min) < -0.05);
        assert!((settled - 0.45 * (10.0 / 110.0)).abs() < 5e-3);
    }

    #[test]
    fn tap_reflects_and_adds_stub_echo() {
        let line = uniform_line(Termination::Matched);
        let clean = line.network().edge_response(&fast_cfg());
        let tapped = Network {
            main: line.clone(),
            taps: vec![Tap {
                position: 0.5,
                stub: StubSpec::oscilloscope_tap(),
            }],
        };
        let w = tapped.edge_response(&fast_cfg());
        let mid_rt = line.one_way_delay().0;
        // Clean line: silent. Tapped line: a strong negative reflection at
        // the junction (parallel load drops the impedance).
        assert!(clean.peak() < 1e-12);
        let echo = w.sample_at(mid_rt + 3.0 * fast_cfg().rise_time.0);
        assert!(
            echo < -0.02,
            "junction echo should be strongly negative: {echo}"
        );
    }

    #[test]
    fn energy_is_bounded_by_drive() {
        // Passivity sanity: reflected energy can't exceed incident energy.
        let line = uniform_line(Termination::Open);
        let w = line.network().edge_response(&fast_cfg());
        assert!(w.peak() <= 0.45 * 1.0001);
    }

    #[test]
    fn inhomogeneous_line_backscatter_is_small_but_nonzero() {
        let process = crate::iip::FabricationProcess::paper_prototype();
        let profile = process.sample_profile(Meters(0.25), 512, 11, 0);
        let line = TxLine::new(
            profile,
            Termination::Chip(crate::termination::ChipInput::typical_sdram()),
        );
        let w = line.network().edge_response(&SimConfig::default());
        // Backscatter from the distributed IIP before the termination echo:
        let one_way = line.one_way_delay().0;
        let early = w.window(0.6e-9, 2.0 * one_way * 0.9);
        assert!(
            early.peak() > 1e-5,
            "IIP backscatter exists: {}",
            early.peak()
        );
        assert!(early.peak() < 0.05, "but is weak: {}", early.peak());
    }

    #[test]
    fn responses_are_deterministic() {
        let process = crate::iip::FabricationProcess::paper_prototype();
        let profile = process.sample_profile(Meters(0.25), 256, 11, 0);
        let line = TxLine::new(profile, Termination::Matched);
        let a = line.network().edge_response(&fast_cfg());
        let b = line.network().edge_response(&fast_cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn lti_scaling_holds() {
        // Double the drive amplitude ⇒ exactly double the response.
        let process = crate::iip::FabricationProcess::paper_prototype();
        let profile = process.sample_profile(Meters(0.25), 256, 13, 0);
        let line = TxLine::new(profile, Termination::Resistive(Ohms(60.0)));
        let cfg1 = fast_cfg();
        let mut cfg2 = cfg1;
        cfg2.amplitude = Volts(cfg1.amplitude.0 * 2.0);
        let w1 = line.network().edge_response(&cfg1);
        let w2 = line.network().edge_response(&cfg2);
        for (a, b) in w1.samples().iter().zip(w2.samples()) {
            assert!((2.0 * a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn edge_shapes_are_normalized() {
        for shape in [
            EdgeShape::Linear,
            EdgeShape::RaisedCosine,
            EdgeShape::Exponential,
        ] {
            assert!(shape.at(0.0).abs() < 1e-12);
            assert!(shape.at(5.0) > 0.98);
            // Monotone over the rise.
            let mut prev = -1.0;
            for i in 0..=20 {
                let v = shape.at(i as f64 / 20.0);
                assert!(v >= prev);
                prev = v;
            }
        }
    }

    #[test]
    fn optimized_kernel_is_bitwise_identical_to_reference_clean() {
        // A lossy inhomogeneous line into a reactive chip termination —
        // every clean-path feature at once.
        let process = crate::iip::FabricationProcess::paper_prototype();
        let profile = process.sample_profile(Meters(0.25), 512, 11, 0);
        let line = TxLine::new(
            profile,
            Termination::Chip(crate::termination::ChipInput::typical_sdram()),
        );
        let net = line.network();
        let cfg = SimConfig::default();
        let drive = cfg.drive_samples(&line, Engine::new(&net, &cfg).ticks());
        let opt = Engine::new(&net, &cfg).run(&drive);
        let reference = Engine::new(&net, &cfg).run_reference(&drive);
        assert_eq!(opt, reference);
    }

    #[test]
    fn optimized_kernel_is_bitwise_identical_to_reference_tapped() {
        let process = crate::iip::FabricationProcess::paper_prototype();
        let profile = process.sample_profile(Meters(0.25), 256, 13, 0);
        let line = TxLine::new(
            profile,
            Termination::Chip(crate::termination::ChipInput::typical_sdram()),
        );
        let net = Network {
            main: line.clone(),
            taps: vec![
                Tap {
                    position: 0.3,
                    stub: StubSpec::oscilloscope_tap(),
                },
                Tap {
                    position: 0.72,
                    stub: StubSpec {
                        length: Meters(0.05),
                        z0: Ohms(150.0),
                        termination: Termination::Chip(
                            crate::termination::ChipInput::typical_sdram(),
                        ),
                    },
                },
            ],
        };
        let cfg = fast_cfg();
        let drive = cfg.drive_samples(&line, Engine::new(&net, &cfg).ticks());
        let opt = Engine::new(&net, &cfg).run(&drive);
        let reference = Engine::new(&net, &cfg).run_reference(&drive);
        assert_eq!(opt, reference);
    }

    #[test]
    fn reset_makes_engine_reusable() {
        let process = crate::iip::FabricationProcess::paper_prototype();
        let profile = process.sample_profile(Meters(0.25), 128, 17, 0);
        let line = TxLine::new(
            profile,
            Termination::Chip(crate::termination::ChipInput::typical_sdram()),
        );
        let net = line.network();
        let cfg = fast_cfg();
        let mut engine = Engine::new(&net, &cfg);
        let drive = cfg.drive_samples(&line, engine.ticks());
        let first = engine.run(&drive);
        engine.reset();
        let second = engine.run(&drive);
        assert_eq!(first, second);
    }

    #[test]
    fn short_drive_slices_hold_the_last_sample() {
        // A one-sample drive of 0.45 V behaves exactly like a settled step
        // at 0.45 V — the hold-last extension, not zero-extension.
        let line = uniform_line(Termination::Open);
        let net = line.network();
        let cfg = fast_cfg();
        let mut engine = Engine::new(&net, &cfg);
        let ticks = engine.ticks();
        let held = engine.run(&[0.45]);
        let mut full = Engine::new(&net, &cfg);
        let explicit = full.run(&vec![0.45; ticks]);
        assert_eq!(held, explicit);
        // And the round-trip echo confirms the drive persisted.
        let round_trip = 2.0 * line.one_way_delay().0;
        assert!((held.sample_at(round_trip + 50e-12) - 0.45).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "tap position must be inside (0,1)")]
    fn tap_position_validated() {
        let line = uniform_line(Termination::Matched);
        let net = Network {
            main: line,
            taps: vec![Tap {
                position: 1.5,
                stub: StubSpec::oscilloscope_tap(),
            }],
        };
        let _ = net.edge_response(&SimConfig::default());
    }
}
