//! The wire transcript pin, pipelined determinism, and connection
//! isolation.
//!
//! A serial v2 conversation must answer with exactly the reply bytes of
//! the checked-in transcript (`tests/golden/reactor_v2_transcript.hex`,
//! one hex-encoded reply payload per line). The transcript was recorded
//! while a thread-per-connection reference server still existed, and
//! both servers answered it byte for byte alike. Pipelined verdicts must
//! be bitwise stable across worker counts (the fleet determinism
//! contract lifted onto the wire), and a malformed connection must die
//! alone.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use divot_fleet::wire::{decode_event, encode_request_tagged, encode_response, write_frame};
use divot_fleet::{
    FleetConfig, FleetError, FleetService, FleetSimConfig, FleetTcpServer, PipelinedFleetClient,
    Request, Response, SimulatedFleet, WireEvent,
};

const SEED: u64 = 77;
const BUSES: usize = 4;
const GOLDEN: &str = include_str!("golden/reactor_v2_transcript.hex");

fn start_service(workers: usize) -> FleetService {
    // The cohort floor drops to the tiny test fleet so the script can
    // exercise the population-model path over the wire too.
    let mut config = FleetConfig::default().with_workers(workers);
    config.cohort = divot_cohort::CohortConfig {
        min_cohort: BUSES,
        ..divot_cohort::CohortConfig::default()
    };
    FleetService::start(
        config,
        SimulatedFleet::new(FleetSimConfig::fast(BUSES, SEED)),
    )
}

/// The pinned conversation: enrolls, verifies (one repeated — the cache
/// inline path), a scan, a snapshot, an unknown-device error, the cohort
/// and intake steps, and a frame with a bad version byte.
fn v2_script() -> Vec<Vec<u8>> {
    let mut requests: Vec<Request> = Vec::new();
    for i in 0..BUSES {
        requests.push(Request::Enroll {
            device: SimulatedFleet::device_name(i),
            nonce: 1,
        });
    }
    for k in 0..8u64 {
        requests.push(Request::Verify {
            device: SimulatedFleet::device_name((k % BUSES as u64) as usize),
            nonce: 500 + k,
        });
    }
    // Warm repeat: the reactor answers this from the verdict cache
    // inline; the bytes must not differ from the cold computation.
    requests.push(Request::Verify {
        device: SimulatedFleet::device_name(0),
        nonce: 500,
    });
    requests.push(Request::MonitorScan {
        device: SimulatedFleet::device_name(1),
        nonce: 42,
    });
    requests.push(Request::RegistrySnapshot);
    requests.push(Request::Verify {
        device: "bus-404".into(),
        nonce: 7,
    });
    // Cohort path: a scan before any model is a typed error; enrolling
    // the whole fleet installs a model; an undersized re-enroll is
    // rejected without clobbering it; the scan then reports per-board
    // verdicts; an unknown device in a scan is a typed error.
    let cohort: Vec<(String, u64)> = (0..BUSES)
        .map(|i| (SimulatedFleet::device_name(i), 21))
        .collect();
    requests.push(Request::IntakeScan {
        devices: cohort.clone(),
    });
    requests.push(Request::CohortEnroll {
        devices: cohort.clone(),
    });
    requests.push(Request::CohortEnroll {
        devices: cohort[..1].to_vec(),
    });
    requests.push(Request::IntakeScan {
        devices: (0..BUSES)
            .map(|i| (SimulatedFleet::device_name(i), 900))
            .collect(),
    });
    requests.push(Request::IntakeScan {
        devices: vec![("bus-404".into(), 5)],
    });
    let mut frames: Vec<Vec<u8>> = requests
        .iter()
        .enumerate()
        .map(|(id, r)| encode_request_tagged(id as u64, r, None))
        .collect();
    // Unknown wire version: a bare typed protocol error (there is no id
    // to answer under), and the connection lives on.
    frames.push(vec![0x99, 0x01, 0x02]);
    frames.push(encode_request_tagged(
        frames.len() as u64,
        &Request::RegistrySnapshot,
        None,
    ));
    frames
}

/// Read one length-prefixed frame off a blocking socket.
fn read_reply(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut payload)?;
    Ok(payload)
}

/// Run the script serially over one raw connection, returning every
/// reply payload.
fn run_script(addr: std::net::SocketAddr, script: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut replies = Vec::with_capacity(script.len());
    for frame in script {
        write_frame(&mut stream, frame).expect("write");
        replies.push(read_reply(&mut stream).expect("read"));
    }
    replies
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn transcript(replies: &[Vec<u8>]) -> String {
    replies.iter().map(|r| hex(r) + "\n").collect()
}

#[test]
fn serial_v2_conversation_matches_the_golden_transcript() {
    let svc = start_service(2);
    let server = FleetTcpServer::spawn(svc.client(), "127.0.0.1:0").expect("bind");
    let got = run_script(server.local_addr(), &v2_script());
    let want: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(
        got.len(),
        want.len(),
        "reply count diverged; full transcript:\n{}",
        transcript(&got)
    );
    for (i, (reply, line)) in got.iter().zip(&want).enumerate() {
        assert_eq!(
            hex(reply),
            *line,
            "reply {i} diverged from the golden transcript; full transcript:\n{}",
            transcript(&got)
        );
    }
    drop(server);
}

#[test]
fn pipelined_verdicts_are_bitwise_identical_across_worker_counts() {
    // The same 64-deep pipelined batch — duplicates included, so the
    // reactor's coalescing path is on it — must produce byte-identical
    // outcomes whether 1, 2, or 8 workers race on it, and must match a
    // serial one-at-a-time client on a twin service.
    let requests: Vec<Request> = (0..64u64)
        .map(|k| Request::Verify {
            device: SimulatedFleet::device_name((k % BUSES as u64) as usize),
            // Every fourth request is a duplicate of the previous one:
            // concurrent identical verifies coalesce in the reactor.
            nonce: 3000 + (k - u64::from(k % 4 == 3)),
        })
        .collect();
    let enroll_all = |client: &mut PipelinedFleetClient| {
        for i in 0..BUSES {
            client
                .call(
                    &Request::Enroll {
                        device: SimulatedFleet::device_name(i),
                        nonce: 1,
                    },
                    None,
                )
                .expect("enroll");
        }
    };

    let mut per_worker_count: Vec<Vec<Vec<u8>>> = Vec::new();
    for workers in [1usize, 2, 8] {
        let svc = start_service(workers);
        let server = FleetTcpServer::spawn(svc.client(), "127.0.0.1:0").expect("bind");
        let mut ctl = PipelinedFleetClient::connect(server.local_addr()).expect("connect");
        enroll_all(&mut ctl);
        let mut pipe = PipelinedFleetClient::connect(server.local_addr()).expect("connect");
        let batch: Vec<(Request, Option<Duration>)> =
            requests.iter().map(|r| (r.clone(), None)).collect();
        let ids = pipe.send_batch(&batch).expect("send batch");
        let mut replies: Vec<Option<Vec<u8>>> = vec![None; ids.len()];
        for _ in 0..ids.len() {
            match pipe.recv_event().expect("event") {
                WireEvent::Reply { id, outcome } => {
                    let slot = ids.iter().position(|&x| x == id).expect("known id");
                    assert!(replies[slot].is_none(), "duplicate reply for id {id}");
                    replies[slot] = Some(encode_response(&outcome));
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        per_worker_count.push(replies.into_iter().map(|r| r.expect("replied")).collect());
        drop(server);
        drop(svc);
    }
    let reference = &per_worker_count[0];
    for (w, got) in per_worker_count.iter().enumerate().skip(1) {
        for (i, (a, b)) in reference.iter().zip(got).enumerate() {
            assert_eq!(a, b, "request {i} diverged at worker-count index {w}");
        }
    }

    // Serial one-at-a-time reference on a twin service: same bits again.
    let svc = start_service(2);
    let server = FleetTcpServer::spawn(svc.client(), "127.0.0.1:0").expect("bind");
    let mut ctl = PipelinedFleetClient::connect(server.local_addr()).expect("connect");
    enroll_all(&mut ctl);
    for (i, request) in requests.iter().enumerate() {
        let outcome = ctl.call(request, None);
        assert_eq!(
            encode_response(&outcome),
            reference[i],
            "one-at-a-time reference diverged at request {i}"
        );
    }
}

#[test]
fn garbage_kills_only_the_offending_connection() {
    let svc = start_service(2);
    let server = FleetTcpServer::spawn(svc.client(), "127.0.0.1:0").expect("bind");
    let mut good = PipelinedFleetClient::connect(server.local_addr()).expect("connect");
    good.call(
        &Request::Enroll {
            device: SimulatedFleet::device_name(0),
            nonce: 1,
        },
        None,
    )
    .expect("enroll");

    // A connection announcing an impossible frame length gets a typed
    // error and a close...
    let mut evil = TcpStream::connect(server.local_addr()).expect("connect");
    evil.write_all(&u32::MAX.to_le_bytes()).expect("write");
    evil.flush().expect("flush");
    let reply = read_reply(&mut evil).expect("error frame before close");
    match decode_event(&reply).expect("a bare error frame decodes") {
        WireEvent::Error(err) => assert!(matches!(err, FleetError::Protocol(_)), "{err:?}"),
        other => panic!("expected a bare error, got {other:?}"),
    }
    let eof = read_reply(&mut evil);
    assert!(eof.is_err(), "oversized-length connection must be closed");

    // ...while the well-behaved connection keeps verifying.
    match good
        .call(
            &Request::Verify {
                device: SimulatedFleet::device_name(0),
                nonce: 9,
            },
            None,
        )
        .expect("good connection survives")
    {
        Response::Verdict { accepted, .. } => assert!(accepted),
        other => panic!("unexpected {other:?}"),
    }
    drop(server);
}
