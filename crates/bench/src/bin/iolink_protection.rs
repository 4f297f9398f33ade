//! Regenerates the §VI extension claim on the serial-link model: DIVOT
//! "holds the promise to work on any communication link" — here an NRZ
//! serial link probed through its own traffic (§II-E triggering), with
//! frame-level exposure accounting under an eavesdropping tap.
//!
//! Run: `cargo run --release -p divot-bench --bin iolink_protection`

use divot_bench::{banner, print_claim, print_metric, BenchCli};
use divot_core::itdr::AcqMode;
use divot_core::monitor::MonitorConfig;
use divot_iolink::link::LinkConfig;
use divot_iolink::sim::{LinkScenarioEvent, LinkSim, LinkSimConfig};
use divot_txline::attack::Attack;

fn config(acq_mode: AcqMode, poll_every_frames: u64, seed: u64) -> LinkSimConfig {
    let defaults = LinkConfig::default();
    LinkSimConfig {
        link: LinkConfig {
            poll_every_frames,
            monitor: MonitorConfig {
                average_count: 4,
                fails_to_alarm: 2,
                ..MonitorConfig::default()
            },
            itdr: defaults.itdr.with_acq_mode(acq_mode),
            ..defaults
        },
        frames: 2048,
        payload_len: 256,
        seed,
    }
}

fn main() -> std::process::ExitCode {
    let cli = BenchCli::parse();
    let acq_mode = cli.acq_mode();
    print_metric("acq_mode", acq_mode.label());
    banner("clean link throughput (2048 frames, 256 B payloads)");
    let clean = LinkSim::new(config(acq_mode, 64, 5)).run();
    print_metric(
        "delivered",
        format!("{}/{}", clean.delivered, clean.attempted),
    );
    print_metric("exposed", clean.exposed);

    banner("eavesdropping tap at frame 1024: exposure vs polling cadence");
    println!("poll_every_frames | detection_latency_frames | exposed_frames | exposed_bytes");
    for poll in [16u64, 64, 256, 1024] {
        let mut sim = LinkSim::new(config(acq_mode, poll, 6));
        sim.set_scenario(vec![LinkScenarioEvent::Attack {
            at_frame: 1024,
            attack: Attack::paper_wiretap(),
        }]);
        let stats = sim.run();
        let latency = stats
            .detection_latency_frames()
            .map(|f| f.to_string())
            .unwrap_or_else(|| "never".into());
        println!(
            "{poll} | {latency} | {} | {}",
            stats.exposed,
            stats.exposed * 256
        );
    }

    banner("unmonitored link under the same tap");
    let mut naked = LinkSim::new(config(acq_mode, u64::MAX, 6));
    naked.set_scenario(vec![LinkScenarioEvent::Attack {
        at_frame: 1024,
        attack: Attack::paper_wiretap(),
    }]);
    let stats = naked.run();
    print_metric("exposed_frames", stats.exposed);
    print_claim("exposure_is_unbounded", stats.exposed > 1000);

    banner("magnetic (non-contact) probe on the link");
    let mut sim = LinkSim::new(config(acq_mode, 64, 7));
    sim.set_scenario(vec![LinkScenarioEvent::Attack {
        at_frame: 512,
        attack: Attack::paper_magnetic_probe(),
    }]);
    let stats = sim.run();
    print_metric("attack_frame", format!("{:?}", stats.attack_frame));
    print_metric("halt_frame", format!("{:?}", stats.halt_frame));
    print_metric(
        "probe_detection_latency_frames",
        stats
            .detection_latency_frames()
            .map(|f| f.to_string())
            .unwrap_or_else(|| "never".into()),
    );
    print_claim(
        "non_contact_probe_detected",
        stats.detection_latency_frames().is_some(),
    );

    cli.finish()
}
