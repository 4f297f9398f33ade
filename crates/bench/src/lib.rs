//! Experiment harness shared by the figure-regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one figure or quantitative claim
//! of the DIVOT paper (see `DESIGN.md` §3 for the index). This library
//! holds the common plumbing: building the prototype bench (board +
//! channels + iTDRs), collecting genuine/impostor similarity scores in
//! parallel, and printing histogram/table output in a stable,
//! machine-greppable format.

use divot_analog::frontend::FrontEndConfig;
use divot_core::channel::BusChannel;
use divot_core::exec::ExecPolicy;
use divot_core::itdr::{AcqMode, Itdr, ItdrConfig};
use divot_dsp::stats::Histogram;
use divot_dsp::waveform::Waveform;
use divot_txline::board::{Board, BoardConfig};
use divot_txline::env::Environment;

/// A reproducible experiment test bench: one fabricated board and the
/// instrument settings used to measure it.
#[derive(Debug, Clone)]
pub struct Bench {
    /// The fabricated board.
    pub board: Board,
    /// The front-end configuration for every channel.
    pub frontend: FrontEndConfig,
    /// The instrument configuration.
    pub itdr: ItdrConfig,
    /// The ambient environment.
    pub environment: Environment,
    /// Master experiment seed.
    pub seed: u64,
}

impl Bench {
    /// The paper's prototype bench (six 25 cm lines, paper iTDR config).
    pub fn paper_prototype(seed: u64) -> Self {
        Self {
            board: Board::fabricate(&BoardConfig::paper_prototype(), seed),
            frontend: FrontEndConfig::default(),
            itdr: ItdrConfig::paper(),
            environment: Environment::room(),
            seed,
        }
    }

    /// A channel bound to line `i` of the board under the bench
    /// environment.
    pub fn channel(&self, i: usize) -> BusChannel {
        let mut ch = BusChannel::new(
            self.board.line(i).clone(),
            self.frontend,
            self.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9),
        );
        ch.set_environment(self.environment);
        ch
    }

    /// The instrument.
    pub fn itdr(&self) -> Itdr {
        Itdr::new(self.itdr)
    }

    /// The same bench with the instrument switched to `mode`.
    pub fn with_acq_mode(mut self, mode: AcqMode) -> Self {
        self.itdr = self.itdr.with_acq_mode(mode);
        self
    }

    /// Measure `count` IIPs on each line (fanning lines across cores
    /// under [`ExecPolicy::auto`]) and return them per line.
    pub fn measure_all(&self, count: usize) -> Vec<Vec<Waveform>> {
        self.measure_all_spaced(count, 0.0)
    }

    /// Like [`Bench::measure_all`], but advances each channel's experiment
    /// clock by `gap_seconds` between measurements — spreading the batch
    /// across a time-varying environment (an oven swing, a vibration
    /// chirp).
    pub fn measure_all_spaced(&self, count: usize, gap_seconds: f64) -> Vec<Vec<Waveform>> {
        self.measure_all_spaced_with(count, gap_seconds, ExecPolicy::auto())
    }

    /// [`Bench::measure_all_spaced`] under an explicit execution policy.
    /// Measurements on one line are inherently sequential (channel state),
    /// so parallelism fans out across lines; results are identical either
    /// way because every line derives its own seed from the bench seed.
    pub fn measure_all_spaced_with(
        &self,
        count: usize,
        gap_seconds: f64,
        policy: ExecPolicy,
    ) -> Vec<Vec<Waveform>> {
        policy.run_indexed(self.board.line_count(), |i| {
            let mut ch = self.channel(i);
            let itdr = self.itdr();
            (0..count)
                .map(|_| {
                    let wf = itdr.measure_with(&mut ch, ExecPolicy::Serial);
                    if gap_seconds > 0.0 {
                        ch.advance(divot_txline::units::Seconds(gap_seconds));
                    }
                    wf
                })
                .collect::<Vec<_>>()
        })
    }
}

/// The flags shared by every bench binary, parsed strictly: unknown
/// flags, missing values, and bad `--acq-mode` values are errors, so a
/// typo (`--serail`, `--acq-mode=analitic`) can't silently benchmark the
/// wrong configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// `--quick`: small smoke-test batch (binaries that support it).
    pub quick: bool,
    /// `--acq-mode <trial|analytic>`: acquisition engine
    /// ([`AcqMode::Trial`] when absent).
    pub acq_mode: AcqMode,
    /// `--telemetry <path.jsonl>`: write structured events to this file.
    pub telemetry: Option<String>,
    /// `--metrics-summary`: print the metric registry at exit.
    pub metrics_summary: bool,
    /// `--trace <path.jsonl>`: write sampled request trace spans to
    /// this file (a dedicated sink — traces never interleave with
    /// `--telemetry` events).
    pub trace: Option<String>,
    /// `--trace-sample <n>`: trace one request in `n` (default 16;
    /// `1` traces everything).
    pub trace_sample: u64,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self {
            quick: false,
            acq_mode: AcqMode::Trial,
            telemetry: None,
            metrics_summary: false,
            trace: None,
            trace_sample: 16,
        }
    }
}

impl BenchArgs {
    /// Parse flags from an argument list (program name already
    /// stripped). Pure: no globals touched, no process exit — the
    /// testable core of [`BenchCli::parse`].
    ///
    /// # Errors
    ///
    /// Returns a one-line message on an unknown flag, a flag missing its
    /// value, a value handed to a boolean flag, or an unparsable
    /// `--acq-mode`.
    pub fn parse_from<I>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f.to_owned(), Some(v.to_owned())),
                None => (arg, None),
            };
            let has_inline = inline.is_some();
            let switch = |target: &mut bool| {
                if has_inline {
                    Err(format!("{flag} takes no value"))
                } else {
                    *target = true;
                    Ok(())
                }
            };
            match flag.as_str() {
                "--quick" => switch(&mut out.quick)?,
                "--metrics-summary" => switch(&mut out.metrics_summary)?,
                "--acq-mode" => {
                    let v = inline
                        .or_else(|| it.next())
                        .ok_or("--acq-mode requires a value (trial|analytic)")?;
                    out.acq_mode = v.parse().map_err(|e: String| format!("--acq-mode: {e}"))?;
                }
                "--telemetry" => {
                    out.telemetry = Some(
                        inline
                            .or_else(|| it.next())
                            .ok_or("--telemetry requires a file path")?,
                    );
                }
                "--trace" => {
                    out.trace = Some(
                        inline
                            .or_else(|| it.next())
                            .ok_or("--trace requires a file path")?,
                    );
                }
                "--trace-sample" => {
                    let v = inline
                        .or_else(|| it.next())
                        .ok_or("--trace-sample requires a value")?;
                    out.trace_sample =
                        v.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            format!("--trace-sample: `{v}` is not a positive integer")
                        })?;
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(out)
    }
}

/// The usage line printed when argument parsing fails.
pub const USAGE: &str = "usage: <bench-binary> [--quick] \
    [--acq-mode <trial|analytic>] [--telemetry <path.jsonl>] [--metrics-summary] \
    [--trace <path.jsonl>] [--trace-sample <n>]";

/// The shared bench command line, activated: telemetry installed as the
/// process default when `--telemetry`/`--metrics-summary` ask for it.
///
/// Bind the value for the whole of `main`: dropping it prints the
/// metric summary (under `--metrics-summary`) and flushes the event
/// sink, so telemetry written during the run actually lands on disk.
#[derive(Debug)]
pub struct BenchCli {
    /// The parsed flags.
    pub args: BenchArgs,
}

impl BenchCli {
    /// Parse the process arguments; on any error print the message plus
    /// [`USAGE`] to stderr and exit with status 2.
    pub fn parse() -> Self {
        match BenchArgs::parse_from(std::env::args().skip(1)) {
            Ok(args) => Self::activate(args),
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Apply parsed flags to the process: install the global telemetry
    /// when requested (exits with status 2 if the `--telemetry` file
    /// cannot be created).
    fn activate(args: BenchArgs) -> Self {
        if args.telemetry.is_some() || args.metrics_summary {
            let telemetry = match &args.telemetry {
                Some(path) => match divot_telemetry::EventSink::to_file(path) {
                    Ok(sink) => divot_telemetry::Telemetry::with_sink(sink),
                    Err(e) => {
                        eprintln!("error: --telemetry {path}: {e}");
                        std::process::exit(2);
                    }
                },
                None => divot_telemetry::Telemetry::new(),
            };
            // First install wins; a pre-installed default (tests) is fine.
            let _ = divot_telemetry::install(telemetry);
        }
        if let Some(path) = &args.trace {
            match divot_telemetry::Tracer::to_file(path, args.trace_sample) {
                Ok(tracer) => {
                    let _ = divot_telemetry::install_tracer(tracer);
                }
                Err(e) => {
                    eprintln!("error: --trace {path}: {e}");
                    std::process::exit(2);
                }
            }
        }
        Self { args }
    }

    /// The acquisition mode in force.
    pub fn acq_mode(&self) -> AcqMode {
        self.args.acq_mode
    }

    /// Whether `--quick` was given.
    pub fn quick(&self) -> bool {
        self.args.quick
    }

    /// Finish the run: consume the CLI (running its [`Drop`] — metric
    /// summary and telemetry flush — *before* the status is decided) and
    /// map the claim tally to the process exit code. Binaries with
    /// [`print_claim`] checks end `main` with `cli.finish()` so a MISSED
    /// claim fails CI instead of printing and exiting 0.
    #[must_use = "return this from main so MISSED claims fail the process"]
    pub fn finish(self) -> std::process::ExitCode {
        drop(self);
        let missed = claims_missed();
        if missed > 0 {
            eprintln!("error: {missed} paper claim(s) MISSED");
            std::process::ExitCode::FAILURE
        } else {
            std::process::ExitCode::SUCCESS
        }
    }
}

impl Drop for BenchCli {
    fn drop(&mut self) {
        if let Err(e) = divot_telemetry::flush_tracer() {
            eprintln!("warning: trace sink: {e}");
        }
        let Some(t) = divot_telemetry::global() else {
            return;
        };
        if self.args.metrics_summary {
            banner("metrics");
            print!("{}", t.registry().render_text());
        }
        if let Some(sink) = t.sink() {
            if let Err(e) = sink.flush() {
                eprintln!("warning: telemetry sink: {e}");
            }
        }
    }
}

/// Genuine and impostor similarity score sets.
#[derive(Debug, Clone, Default)]
pub struct ScoreSets {
    /// Same-line pair scores.
    pub genuine: Vec<f64>,
    /// Different-line pair scores.
    pub impostor: Vec<f64>,
}

/// Compute genuine and impostor scores from *randomly sampled* pairs:
/// genuine pairs are drawn within each line across the whole batch (so
/// under a time-varying environment they span different conditions, as the
/// paper's within-group pairing does), impostor pairs across lines.
pub fn collect_scores_sampled(
    measurements: &[Vec<Waveform>],
    pairs_per_line: usize,
    seed: u64,
) -> ScoreSets {
    let mut rng = divot_dsp::rng::DivotRng::derive(seed, 0x5C0E);
    let mut sets = ScoreSets::default();
    for per_line in measurements {
        if per_line.len() < 2 {
            continue;
        }
        for _ in 0..pairs_per_line {
            let a = rng.index(per_line.len());
            let mut b = rng.index(per_line.len());
            while b == a {
                b = rng.index(per_line.len());
            }
            sets.genuine.push(divot_dsp::similarity::similarity(
                &per_line[a],
                &per_line[b],
            ));
        }
    }
    let lines = measurements.len();
    if lines >= 2 {
        let impostor_pairs = pairs_per_line * lines * 2;
        for _ in 0..impostor_pairs {
            let la = rng.index(lines);
            let mut lb = rng.index(lines);
            while lb == la {
                lb = rng.index(lines);
            }
            let a = &measurements[la][rng.index(measurements[la].len())];
            let b = &measurements[lb][rng.index(measurements[lb].len())];
            sets.impostor.push(divot_dsp::similarity::similarity(a, b));
        }
    }
    sets
}

/// Compute genuine (within-line consecutive pairs) and impostor
/// (cross-line same-index pairs) similarity scores from per-line
/// measurement sets.
pub fn collect_scores(measurements: &[Vec<Waveform>]) -> ScoreSets {
    let mut sets = ScoreSets::default();
    for per_line in measurements {
        for pair in per_line.windows(2) {
            sets.genuine
                .push(divot_dsp::similarity::similarity(&pair[0], &pair[1]));
        }
    }
    for (a_idx, a) in measurements.iter().enumerate() {
        for b in measurements.iter().skip(a_idx + 1) {
            let n = a.len().min(b.len());
            for k in 0..n {
                sets.impostor
                    .push(divot_dsp::similarity::similarity(&a[k], &b[k]));
            }
        }
    }
    sets
}

/// Everything produced by one Fig.-9-style tamper experiment.
#[derive(Debug, Clone)]
pub struct TamperExperiment {
    /// The enrolled (clean) reference IIP.
    pub reference: Waveform,
    /// A second clean measurement (the dotted "no attack" traces).
    pub clean_repeat: Waveform,
    /// The measurement taken with the attack in place.
    pub attacked: Waveform,
    /// The calibrated detector used for the decision.
    pub detector: divot_core::tamper::TamperDetector,
    /// Scan of the clean repeat (noise floor trace).
    pub clean_report: divot_core::tamper::TamperReport,
    /// Scan of the attacked measurement.
    pub attack_report: divot_core::tamper::TamperReport,
}

/// Run one tamper experiment on line 0 of the bench: enroll, calibrate the
/// detector, apply `attack`, re-measure, and scan.
pub fn run_tamper_experiment(
    bench: &Bench,
    attack: &divot_txline::attack::Attack,
    averaging: usize,
) -> TamperExperiment {
    let mut ch = bench.channel(0);
    let itdr = bench.itdr();
    let fp = itdr.enroll(&mut ch, averaging);
    let cleans: Vec<_> = (0..4)
        .map(|_| itdr.measure_averaged(&mut ch, averaging))
        .collect();
    let detector = divot_core::tamper::TamperDetector::calibrated(
        divot_core::tamper::TamperPolicy::default(),
        fp.iip(),
        &cleans,
        4.0,
    );
    let clean_repeat = itdr.measure_averaged(&mut ch, averaging);
    ch.apply_attack(attack);
    let attacked = itdr.measure_averaged(&mut ch, averaging);
    let clean_report = detector.scan(fp.iip(), &clean_repeat);
    let attack_report = detector.scan(fp.iip(), &attacked);
    TamperExperiment {
        reference: fp.iip().clone(),
        clean_repeat,
        attacked,
        detector,
        clean_report,
        attack_report,
    }
}

/// Print an IIP / error waveform as `label | time_ns value` rows
/// (subsampled to at most `max_rows`).
pub fn print_waveform(label: &str, w: &Waveform, max_rows: usize) {
    let stride = (w.len() / max_rows.max(1)).max(1);
    for (t, v) in w.iter().step_by(stride) {
        println!("{label} | {:.4} {:.6e}", t * 1e9, v);
    }
}

/// Print a histogram as `label | bin_center count density` rows.
pub fn print_histogram(label: &str, scores: &[f64], lo: f64, hi: f64, bins: usize) {
    let mut h = Histogram::new(lo, hi, bins);
    h.push_all(scores);
    let dens = h.densities();
    for (i, (center, count)) in h.iter().enumerate() {
        println!("{label} | {center:.5} {count} {:.4}", dens[i]);
    }
}

/// Print a `key = value` result row (the stable format EXPERIMENTS.md
/// quotes).
pub fn print_metric(key: &str, value: impl std::fmt::Display) {
    println!("{key} = {value}");
}

/// Number of paper-claim checks that MISSED so far in this process.
static CLAIMS_MISSED: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Print a paper-claim row (`key = HOLDS` / `key = MISSED`) and record a
/// miss, so [`BenchCli::finish`] can turn it into a nonzero exit status.
/// Every figure-reproduction sanity check goes through here: a regression
/// that flips a claim fails the run instead of scrolling past.
pub fn print_claim(key: &str, holds: bool) {
    print_metric(key, if holds { "HOLDS" } else { "MISSED" });
    if !holds {
        CLAIMS_MISSED.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

/// How many [`print_claim`] checks have MISSED so far.
pub fn claims_missed() -> usize {
    CLAIMS_MISSED.load(std::sync::atomic::Ordering::Relaxed)
}

/// Print a section banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_channels_are_reproducible() {
        let bench = Bench {
            itdr: ItdrConfig::fast(),
            ..Bench::paper_prototype(7)
        };
        let mut a = bench.channel(0);
        let mut b = bench.channel(0);
        let itdr = bench.itdr();
        assert_eq!(itdr.measure(&mut a), itdr.measure(&mut b));
    }

    #[test]
    fn measure_all_matches_across_policies() {
        let bench = Bench {
            itdr: ItdrConfig::fast(),
            ..Bench::paper_prototype(11)
        };
        let s = bench.measure_all_spaced_with(2, 1e-3, ExecPolicy::Serial);
        let p = bench.measure_all_spaced_with(2, 1e-3, ExecPolicy::Parallel);
        assert_eq!(s, p);
    }

    fn parse(args: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::parse_from(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parse_accepts_every_shared_flag() {
        let args = parse(&[
            "--quick",
            "--acq-mode",
            "analytic",
            "--telemetry",
            "/tmp/t.jsonl",
            "--metrics-summary",
            "--trace",
            "/tmp/trace.jsonl",
            "--trace-sample",
            "8",
        ])
        .unwrap();
        assert!(args.quick && args.metrics_summary);
        assert_eq!(args.acq_mode, AcqMode::Analytic);
        assert_eq!(args.telemetry.as_deref(), Some("/tmp/t.jsonl"));
        assert_eq!(args.trace.as_deref(), Some("/tmp/trace.jsonl"));
        assert_eq!(args.trace_sample, 8);

        // `=` forms and defaults.
        let args = parse(&[
            "--acq-mode=trial",
            "--telemetry=x.jsonl",
            "--trace=y.jsonl",
            "--trace-sample=1",
        ])
        .unwrap();
        assert_eq!(args.acq_mode, AcqMode::Trial);
        assert_eq!(args.telemetry.as_deref(), Some("x.jsonl"));
        assert_eq!(args.trace.as_deref(), Some("y.jsonl"));
        assert_eq!(args.trace_sample, 1);
        assert!(!args.quick && !args.metrics_summary);
        assert_eq!(parse(&[]).unwrap(), BenchArgs::default());
        assert_eq!(parse(&[]).unwrap().trace_sample, 16, "1-in-16 default");
    }

    #[test]
    fn parse_rejects_typos_and_missing_values() {
        assert!(parse(&["--serail"]).unwrap_err().contains("unknown flag"));
        assert!(parse(&["extra"]).unwrap_err().contains("unknown flag"));
        assert!(parse(&["--acq-mode"])
            .unwrap_err()
            .contains("requires a value"));
        assert!(parse(&["--telemetry"])
            .unwrap_err()
            .contains("requires a file path"));
        assert!(parse(&["--acq-mode", "analitic"])
            .unwrap_err()
            .contains("--acq-mode"));
        assert!(parse(&["--trace"])
            .unwrap_err()
            .contains("requires a file path"));
        assert!(parse(&["--trace-sample"])
            .unwrap_err()
            .contains("requires a value"));
        assert!(parse(&["--trace-sample", "0"])
            .unwrap_err()
            .contains("positive integer"));
        assert!(parse(&["--trace-sample", "many"])
            .unwrap_err()
            .contains("positive integer"));
        assert!(parse(&["--serial"]).unwrap_err().contains("unknown flag"));
        assert!(parse(&["--quick=yes"])
            .unwrap_err()
            .contains("takes no value"));
    }

    #[test]
    fn missed_claims_are_tallied() {
        let before = claims_missed();
        print_claim("test_claim_holds", true);
        assert_eq!(claims_missed(), before, "a HOLDS must not count");
        print_claim("test_claim_missed", false);
        assert!(claims_missed() > before, "a MISSED must count");
    }

    #[test]
    fn collect_scores_counts_pairs() {
        // 2 lines × 3 measurements: 2×2 genuine pairs, 3 impostor pairs.
        let wf = |k: f64| Waveform::from_fn(0.0, 1.0, 8, |t| (t * k).sin());
        let m = vec![
            vec![wf(1.0), wf(1.01), wf(0.99)],
            vec![wf(5.0), wf(5.01), wf(4.99)],
        ];
        let s = collect_scores(&m);
        assert_eq!(s.genuine.len(), 4);
        assert_eq!(s.impostor.len(), 3);
        assert!(s.genuine.iter().all(|&x| x > 0.9));
    }
}
