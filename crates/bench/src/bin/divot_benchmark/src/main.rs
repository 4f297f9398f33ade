//! `divot_benchmark`: the fleet attestation service as shipped — one
//! `FleetService` behind the reactor — driven over loopback by a
//! two-thread, two-connection generator speaking the public wire
//! protocol. See `README.md` for the workloads, metrics and the layer →
//! metric predictions.
//!
//! ```text
//! divot_benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                 [--spans DIR] [--json PATH] [--quick]
//! divot_benchmark [--claim WORKLOAD.METRIC] --compare PARENT.json... -- CHANGE.json...
//! ```
//!
//! Every metric prints as `<workload>.<metric> = <value> <unit>`; the
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Any correctness failure exits
//! nonzero.

mod conn;
mod heap;
mod hist;
mod json;
mod load;
mod oracle;
mod report;
mod run;
mod trace;
mod workload;

use json::Json;
use report::{compare, def, load_records, spread, Verdict};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Spec, Stream, Workload};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

const USAGE: &str = "usage: divot_benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--spans DIR] [--json PATH] [--quick]
       divot_benchmark [--claim WORKLOAD.METRIC] --compare PARENT.json... -- CHANGE.json...
workloads: verify_fresh verify_replay enroll_churn intake_scan (default: all four)";

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: PathBuf,
    json: Option<PathBuf>,
    quick: bool,
    serial: bool,
    claim: Option<String>,
    compare: Option<(Vec<String>, Vec<String>)>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            workload: None,
            seed: 2020,
            seconds: 30.0,
            trace: false,
            spans: PathBuf::from(".bench_build"),
            json: None,
            quick: false,
            serial: false,
            claim: None,
            compare: None,
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    args.workload =
                        Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
                }
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                        return Err("--seconds must be in (0, 3600]".into());
                    }
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, got {v}")),
                    }
                }
                "--spans" => args.spans = PathBuf::from(value()?),
                "--json" => args.json = Some(PathBuf::from(value()?)),
                "--quick" => args.quick = true,
                "--serial" => args.serial = true,
                "--claim" => args.claim = Some(value()?),
                "--compare" => {
                    let rest: Vec<String> = it.by_ref().collect();
                    let split = rest
                        .iter()
                        .position(|a| a == "--")
                        .ok_or("--compare needs PARENT.json... -- CHANGE.json...")?;
                    args.compare = Some((rest[..split].to_vec(), rest[split + 1..].to_vec()));
                }
                "--help" | "-h" => return Err(String::new()),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(args)
    }

    /// The flags a per-workload child process inherits.
    fn child_flags(&self) -> Vec<String> {
        let mut out = vec![
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            self.seconds.to_string(),
            "--trace".into(),
            u8::from(self.trace).to_string(),
            "--spans".into(),
            self.spans.display().to_string(),
        ];
        if self.quick {
            out.push("--quick".into());
        }
        out
    }
}

/// The benchmark measures the service as shipped: settings that change
/// its worker count or force serial acquisition make the numbers
/// incomparable, so the run refuses them.
fn refusal(args: &Args) -> Option<String> {
    if args.serial {
        return Some("--serial forces serial acquisition".into());
    }
    ["DIVOT_THREADS", "DIVOT_SERIAL"]
        .into_iter()
        .find(|v| std::env::var_os(v).is_some())
        .map(|v| format!("{v} is set"))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((parents, changes)) = &args.compare {
        return compare_main(args.claim.as_deref(), parents, changes);
    }
    if let Some(why) = refusal(&args) {
        eprintln!("error: refusing to run: {why}; unset it to measure the shipped configuration");
        return ExitCode::from(2);
    }
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

fn unit_of(name: &str) -> &'static str {
    def(name).map_or("", |d| d.unit)
}

/// Run one workload in this process and report it.
fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let spec = Spec::new(workload, args.seconds, args.quick);
    let stream = Stream::new(&spec, args.seed);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# divot_benchmark workload={} seed={} seconds={} trace={} quick={} nproc={nproc}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick,
    );
    let started = std::time::Instant::now();
    let result = if args.trace {
        run::traced(&stream)
    } else {
        run::untraced(&stream)
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    let name = workload.name();
    for &(metric, value) in &outcome.metrics {
        println!("{name}.{metric} = {value} {}", unit_of(metric));
    }
    for (metric, text) in &outcome.extra {
        println!("{name}.{metric} = {text}");
    }
    let tally = &outcome.tally;
    println!(
        "{name}.failed_frac = {} fraction ({} failed of {} attempted: {} shed, {} errors, {} mismatches)",
        tally.failed() as f64 / tally.attempted.max(1) as f64,
        tally.failed(),
        tally.attempted,
        tally.sheds,
        tally.errors,
        tally.mismatches,
    );
    for note in &tally.notes {
        eprintln!("{name}: {note}");
    }
    if let Some(spans) = &outcome.spans {
        let path = args.spans.join(format!("divot-spans-{name}.jsonl"));
        match spans.write_jsonl(&path) {
            Ok(()) => println!("{name}.spans_written = {}", path.display()),
            Err(e) => {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let correct = tally.failed() == 0;
    let settings = [
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("quick", Json::Bool(args.quick)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed() as f64)),
        ("correct", Json::Bool(correct)),
    ];
    outcome
        .record
        .settings
        .extend(settings.map(|(k, v)| (k.to_owned(), v)));
    outcome
        .record
        .durations
        .insert("total".into(), started.elapsed().as_secs_f64());
    if let Some(path) = &args.json {
        let doc = Json::obj([
            ("host", report::host()),
            ("runs", Json::Arr(vec![outcome.record.to_json()])),
        ]);
        if let Err(e) = std::fs::write(path, doc.render() + "\n") {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let metrics = Json::obj(outcome.metrics.iter().map(|&(metric, value)| {
        (
            metric,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit_of(metric).into())),
            ]),
        )
    }));
    println!(
        "{}",
        summary(correct, tally.attempted, tally.failed(), metrics).render()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn summary(correct: bool, attempted: u64, failed: u64, metrics: Json) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ])
}

/// Run every workload, each in a child process of its own (fresh peak
/// RSS, fresh telemetry), and fold their results into one summary.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: locating this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    let mut runs = Vec::new();
    for w in Workload::ALL {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w.name()]).args(args.child_flags());
        let part = args
            .json
            .as_ref()
            .map(|p| p.with_extension(format!("{}.json", w.name())));
        if let Some(part) = &part {
            cmd.arg("--json").arg(part);
        }
        let out = match cmd.stderr(std::process::Stdio::inherit()).output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: running {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().and_then(|l| Json::parse(l).ok());
        let Some(last) = last.filter(|_| out.status.success() || out.status.code() == Some(1))
        else {
            eprintln!("error: {} printed no result ({})", w.name(), out.status);
            return ExitCode::FAILURE;
        };
        correct &= last.get("correct") == Some(&Json::Bool(true));
        attempted += last.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        failed += last.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        if let Some(Json::Obj(m)) = last.get("metrics") {
            metrics.extend(
                m.iter()
                    .map(|(k, v)| (format!("{}.{k}", w.name()), v.clone())),
            );
        }
        if let Some(part) = part {
            let text = std::fs::read_to_string(&part).unwrap_or_default();
            if let Ok(doc) = Json::parse(&text) {
                runs.extend(
                    doc.get("runs")
                        .map(Json::as_arr)
                        .unwrap_or_default()
                        .iter()
                        .cloned(),
                );
            }
            let _ = std::fs::remove_file(&part);
        }
    }
    if let Some(path) = &args.json {
        let doc = Json::obj([("host", report::host()), ("runs", Json::Arr(runs))]);
        if let Err(e) = std::fs::write(path, doc.render() + "\n") {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{}",
        summary(correct, attempted, failed, Json::obj(metrics)).render()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--compare`: parent runs against change runs, one verdict per
/// `(workload, metric)`; exits nonzero on a regression or an unmet claim.
fn compare_main(claim: Option<&str>, parents: &[String], changes: &[String]) -> ExitCode {
    let (parent, change) = match (load_records(parents), load_records(changes)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut bad = false;
    for ((workload, metric), pv) in &parent {
        let Some(cv) = change.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let Some(d) = def(metric).filter(|d| d.bound.is_some()) else {
            continue;
        };
        let key = format!("{workload}.{metric}");
        let claimed = claim == Some(key.as_str());
        let c = compare(key, d, pv, cv, claimed);
        bad |= matches!(c.verdict, Verdict::Regressed | Verdict::NotMet);
        println!(
            "compare.{} = {:?} (parent median {} {u} spread {:.4}, change median {} {u} spread {:.4}, \
             bound {}, change won {}/{} pairs)",
            c.key,
            c.verdict,
            c.parent,
            spread(pv),
            c.change,
            spread(cv),
            d.bound.unwrap_or(0.0),
            c.wins.0,
            c.wins.1,
            u = d.unit,
        );
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
