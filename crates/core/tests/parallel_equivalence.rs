//! Serial/parallel equivalence: the acquisition engine's scheduling must
//! be observationally irrelevant. Every test builds two identical
//! channels under a fixed seed, runs one serially and one with the
//! parallel fan-out, and compares results *bitwise* (`f64::to_bits`).

use divot_analog::frontend::FrontEndConfig;
use divot_core::channel::BusChannel;
use divot_core::exec::ExecPolicy;
use divot_core::itdr::{Itdr, ItdrConfig};
use divot_txline::board::{Board, BoardConfig};
use divot_txline::env::Environment;

fn channel(seed: u64) -> BusChannel {
    let board = Board::fabricate(&BoardConfig::paper_prototype(), 77);
    BusChannel::new(board.line(0).clone(), FrontEndConfig::default(), seed)
}

fn assert_bitwise_eq(a: &divot_dsp::waveform::Waveform, b: &divot_dsp::waveform::Waveform) {
    assert_eq!(a.len(), b.len(), "lengths differ");
    for (i, (x, y)) in a.samples().iter().zip(b.samples()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "sample {i} differs: {x} vs {y}");
    }
}

#[test]
fn single_measurement_is_bitwise_identical() {
    let itdr = Itdr::new(ItdrConfig::fast());
    let s = itdr.measure_with(&mut channel(3), ExecPolicy::Serial);
    let p = itdr.measure_with(&mut channel(3), ExecPolicy::Parallel);
    assert_bitwise_eq(&s, &p);
}

#[test]
fn averaged_measurement_is_bitwise_identical() {
    let itdr = Itdr::new(ItdrConfig::fast());
    let s = itdr.measure_averaged_with(&mut channel(4), 8, ExecPolicy::Serial);
    let p = itdr.measure_averaged_with(&mut channel(4), 8, ExecPolicy::Parallel);
    assert_bitwise_eq(&s, &p);
}

#[test]
fn paper_config_enrollment_is_bitwise_identical() {
    // The acceptance criterion: enrollment with the paper configuration.
    let itdr = Itdr::new(ItdrConfig::paper());
    let s = itdr.enroll_with(&mut channel(5), 2, ExecPolicy::Serial);
    let p = itdr.enroll_with(&mut channel(5), 2, ExecPolicy::Parallel);
    assert_eq!(s.enrollment_count(), p.enrollment_count());
    assert_bitwise_eq(s.iip(), p.iip());
}

#[test]
fn dynamic_environment_is_bitwise_identical() {
    // Vibration makes the response state change between repeats, so this
    // also pins down that context checkout (and thus cache fills) happen
    // at the same clock instants under both policies.
    let itdr = Itdr::new(ItdrConfig::fast());
    let mut cs = channel(6);
    let mut cp = channel(6);
    cs.set_environment(Environment::vibrating());
    cp.set_environment(Environment::vibrating());
    let s = itdr.measure_averaged_with(&mut cs, 6, ExecPolicy::Serial);
    let p = itdr.measure_averaged_with(&mut cp, 6, ExecPolicy::Parallel);
    assert_eq!(cs.cached_responses(), cp.cached_responses());
    assert_bitwise_eq(&s, &p);
}

#[test]
fn analytic_mode_enrollment_is_bitwise_identical() {
    // The analytic fast path derives its binomial streams from
    // `(ctx.seed, point)` exactly like the trial path derives its noise
    // streams, so scheduling must stay observationally irrelevant there
    // too — including at the paper configuration.
    use divot_core::itdr::AcqMode;
    let itdr = Itdr::new(ItdrConfig::paper().with_acq_mode(AcqMode::Analytic));
    let s = itdr.enroll_with(&mut channel(8), 2, ExecPolicy::Serial);
    let p = itdr.enroll_with(&mut channel(8), 2, ExecPolicy::Parallel);
    assert_bitwise_eq(s.iip(), p.iip());
}

#[test]
fn telemetry_on_vs_off_is_bitwise_identical() {
    // The divot-telemetry determinism contract: instrumentation is
    // observe-only, so installing the global registry + event sink must
    // not change a single bit of any fingerprint, similarity score, or
    // EER — in either acquisition mode. The baseline runs before the
    // process-wide install (OnceLock, first call wins), the comparison
    // after.
    use divot_core::itdr::AcqMode;
    use divot_dsp::roc::RocCurve;
    use divot_dsp::similarity::similarity;

    let fingerprint = |mode: AcqMode| {
        let itdr = Itdr::new(ItdrConfig::paper().with_acq_mode(mode));
        itdr.enroll_with(&mut channel(9), 2, ExecPolicy::Parallel)
    };
    let eer = |mode: AcqMode| {
        // A miniature fig-7 batch: two lines, four measurements each,
        // consecutive genuine pairs and same-index impostor pairs.
        let itdr = Itdr::new(ItdrConfig::fast().with_acq_mode(mode));
        let board = Board::fabricate(&BoardConfig::paper_prototype(), 77);
        let per_line: Vec<Vec<_>> = (0..2)
            .map(|line| {
                let mut ch = BusChannel::new(
                    board.line(line).clone(),
                    FrontEndConfig::default(),
                    40 + line as u64,
                );
                (0..4)
                    .map(|_| itdr.measure_with(&mut ch, ExecPolicy::Parallel))
                    .collect()
            })
            .collect();
        let genuine: Vec<f64> = per_line
            .iter()
            .flat_map(|ms| ms.windows(2).map(|p| similarity(&p[0], &p[1])))
            .collect();
        let impostor: Vec<f64> = (0..4)
            .map(|k| similarity(&per_line[0][k], &per_line[1][k]))
            .collect();
        RocCurve::from_scores(&genuine, &impostor).eer()
    };

    assert!(
        divot_telemetry::global().is_none(),
        "this test must be the one installing the global telemetry"
    );
    let base_trial = fingerprint(AcqMode::Trial);
    let base_analytic = fingerprint(AcqMode::Analytic);
    let base_eer_trial = eer(AcqMode::Trial);
    let base_eer_analytic = eer(AcqMode::Analytic);

    let sink = divot_telemetry::EventSink::to_writer(Box::new(std::io::sink()));
    divot_telemetry::install(divot_telemetry::Telemetry::with_sink(sink)).expect("first install");

    let on_trial = fingerprint(AcqMode::Trial);
    let on_analytic = fingerprint(AcqMode::Analytic);
    assert_bitwise_eq(base_trial.iip(), on_trial.iip());
    assert_bitwise_eq(base_analytic.iip(), on_analytic.iip());
    assert_eq!(base_eer_trial.to_bits(), eer(AcqMode::Trial).to_bits());
    assert_eq!(
        base_eer_analytic.to_bits(),
        eer(AcqMode::Analytic).to_bits()
    );

    // The comparison runs really were instrumented — the identity above
    // is not vacuous.
    let t = divot_telemetry::global().expect("installed above");
    assert!(t.registry().counter("itdr.measurements").get() > 0);
    assert!(t.registry().counter("itdr.analytic.points").get() > 0);
}

#[test]
fn policies_leave_identical_channel_state() {
    let itdr = Itdr::new(ItdrConfig::fast());
    let mut cs = channel(7);
    let mut cp = channel(7);
    itdr.measure_averaged_with(&mut cs, 3, ExecPolicy::Serial);
    itdr.measure_averaged_with(&mut cp, 3, ExecPolicy::Parallel);
    assert_eq!(cs.now().0.to_bits(), cp.now().0.to_bits());
    // The next measurement still agrees — no hidden divergence.
    let s = itdr.measure_with(&mut cs, ExecPolicy::Serial);
    let p = itdr.measure_with(&mut cp, ExecPolicy::Parallel);
    assert_bitwise_eq(&s, &p);
}
