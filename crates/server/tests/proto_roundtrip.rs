//! Wire-protocol codec contracts: every message round-trips, and no
//! byte stream — truncated, corrupted, or arbitrary — can make a
//! decoder panic.

use proptest::prelude::*;
use ssdx_hostif::AccessPattern;
use ssdx_server::proto::{ErrorCode, Request, Response, ServerMessage, Telemetry, WorkloadSpec};
use ssdx_server::PROTOCOL_VERSION;
use ssdx_sim::SimTime;

/// One of every request variant, with non-trivial field values.
fn all_requests() -> Vec<Request> {
    vec![
        Request::Hello {
            version: PROTOCOL_VERSION,
        },
        Request::CreateSession {
            config: "channels = 4\n".to_owned(),
            workload: WorkloadSpec::Basic {
                pattern: AccessPattern::RandomRead,
                block_size: 8192,
                command_count: 1000,
                footprint_bytes: 1 << 28,
                seed: 7,
            },
        },
        Request::CreateSession {
            config: String::new(),
            workload: WorkloadSpec::Zipfian {
                theta: 0.85,
                seed: 11,
                command_count: 64,
                block_size: 4096,
                footprint_bytes: 1 << 24,
                read_fraction: 0.25,
            },
        },
        Request::CreateSession {
            config: "x".to_owned(),
            workload: WorkloadSpec::Bursty {
                seed: 3,
                command_count: 256,
                block_size: 512,
                footprint_bytes: 1 << 20,
                read_fraction: 1.0,
                burst_len: 16,
                inter_arrival: SimTime::from_us(5),
                idle_gap: SimTime::from_ms(2),
            },
        },
        Request::CreateSession {
            config: "y".to_owned(),
            workload: WorkloadSpec::MixedSize {
                sizes: vec![(4096, 4), (65536, 1)],
                seed: 9,
                command_count: 128,
                footprint_bytes: 1 << 22,
                read_fraction: 0.0,
            },
        },
        Request::CreateSession {
            config: "z".to_owned(),
            workload: WorkloadSpec::Rmw {
                seed: 13,
                updates: 32,
                block_size: 4096,
                footprint_bytes: 1 << 21,
            },
        },
        Request::Step {
            session: 42,
            commands: u64::MAX,
        },
        Request::RunUntil {
            session: 1,
            deadline: SimTime::from_ms(100),
        },
        Request::Subscribe {
            session: 2,
            sample_every: 128,
        },
        Request::Unsubscribe { session: 2 },
        Request::CaptureSnapshot { session: 3 },
        Request::Fork { session: 4 },
        Request::FetchReport { session: 5 },
        Request::FetchTails { session: 6 },
        Request::CloseSession { session: u32::MAX },
        Request::Shutdown,
    ]
}

/// A real report from a tiny run, so the report codec sees live
/// histograms rather than zeroed ones. A command-count cutoff splits the
/// completions between the steady-state classes and the warmup, so neither
/// half is empty.
fn tiny_report() -> ssdx_core::PerfReport {
    let config = ssdx_core::SsdConfig::builder("proto-roundtrip")
        .topology(1, 1, 1)
        .seed(5)
        .build()
        .expect("valid test config");
    let workload = ssdx_hostif::Workload::builder(AccessPattern::RandomWrite)
        .command_count(64)
        .footprint_bytes(1 << 22)
        .seed(5)
        .build();
    let mut ssd = ssdx_core::Ssd::try_new(config).expect("valid test device");
    let mut session = ssd.session(&workload);
    session.steady_state(ssdx_core::SteadyStateCutoff::Commands(16));
    let report = session.finish();
    let steady = report.class_latency.count();
    assert!(steady > 0 && steady < report.latency.count());
    report
}

/// Asserts two responses are identical. `PerfReport` has no `PartialEq`
/// and its `Debug` (the golden byte-identity surface) leaves
/// `class_latency` out, so reports also compare both histograms directly.
fn assert_same_response(actual: &Response, expected: &Response) {
    assert_eq!(format!("{actual:?}"), format!("{expected:?}"));
    if let (Response::Report { report: a, .. }, Response::Report { report: b, .. }) =
        (actual, expected)
    {
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.class_latency, b.class_latency);
    }
}

/// One of every response variant.
fn all_responses() -> Vec<Response> {
    let report = tiny_report();
    vec![
        Response::HelloAck {
            version: PROTOCOL_VERSION,
        },
        Response::SessionCreated { session: 17 },
        Response::Progress {
            session: 17,
            executed: 64,
            now: SimTime::from_us(321),
            completed: 64,
            remaining: 0,
        },
        Response::Subscribed { session: 17 },
        Response::Unsubscribed { session: 17 },
        Response::SnapshotImage {
            session: 17,
            image: vec![0xDE, 0xAD, 0xBE, 0xEF],
        },
        Response::Forked {
            parent: 17,
            session: 18,
        },
        Response::Tails {
            session: 17,
            tails: report.tails().to_vec(),
        },
        Response::Report {
            session: 17,
            report: Box::new(report),
        },
        Response::Closed { session: 17 },
        Response::ShuttingDown,
        Response::Error {
            code: ErrorCode::BadWorkload,
            message: "theta out of range".to_owned(),
        },
    ]
}

/// One of every telemetry variant.
fn all_telemetry() -> Vec<Telemetry> {
    let config = ssdx_core::SsdConfig::builder("proto-telemetry")
        .topology(1, 1, 1)
        .build()
        .expect("valid test config");
    let workload = ssdx_hostif::Workload::builder(AccessPattern::SequentialWrite)
        .command_count(4)
        .seed(1)
        .build();
    let mut ssd = ssdx_core::Ssd::try_new(config).expect("valid test device");
    let mut session = ssd.session(&workload);
    let record = session.step().expect("the tiny run has completions");
    let snapshot = session.snapshot();
    vec![
        Telemetry::Completion { session: 9, record },
        Telemetry::Utilization {
            session: 9,
            snapshot,
        },
        Telemetry::Dropped {
            session: 9,
            dropped: 1234,
        },
    ]
}

#[test]
fn every_request_round_trips() {
    for request in all_requests() {
        let bytes = request.encode();
        let back = Request::decode(&bytes).expect("round trip decodes");
        assert_eq!(back, request, "request round trip");
    }
}

#[test]
fn every_response_round_trips() {
    for response in all_responses() {
        let bytes = response.encode();
        let back = Response::decode(&bytes).expect("round trip decodes");
        assert_same_response(&back, &response);
        // The channel dispatcher must agree on the tag.
        match ServerMessage::decode(&bytes).expect("dispatch decodes") {
            ServerMessage::Response(r) => assert_same_response(&r, &response),
            ServerMessage::Telemetry(t) => panic!("response decoded as telemetry: {t:?}"),
        }
    }
}

#[test]
fn every_telemetry_round_trips() {
    for telemetry in all_telemetry() {
        let bytes = telemetry.encode();
        let back = Telemetry::decode(&bytes).expect("round trip decodes");
        assert_eq!(back, telemetry, "telemetry round trip");
        match ServerMessage::decode(&bytes).expect("dispatch decodes") {
            ServerMessage::Telemetry(t) => assert_eq!(t, telemetry),
            ServerMessage::Response(r) => panic!("telemetry decoded as response: {r:?}"),
        }
    }
}

#[test]
fn every_strict_prefix_of_a_valid_encoding_errors() {
    let mut encodings: Vec<Vec<u8>> = Vec::new();
    encodings.extend(all_requests().iter().map(Request::encode));
    encodings.extend(all_responses().iter().map(Response::encode));
    encodings.extend(all_telemetry().iter().map(Telemetry::encode));
    for bytes in &encodings {
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            assert!(
                Request::decode(prefix).is_err() || Response::decode(prefix).is_err(),
                "a strict prefix decoded under both decoders"
            );
            // The dispatcher must reject every strict prefix of its own
            // valid encodings (trailing bytes are caught by expect_end).
            assert!(
                ServerMessage::decode(prefix).is_err(),
                "a strict prefix of len {cut} (of {}) decoded",
                bytes.len()
            );
        }
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    for request in all_requests() {
        let mut bytes = request.encode();
        bytes.push(0x00);
        assert!(
            Request::decode(&bytes).is_err(),
            "trailing byte accepted for {request:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes never panic any decoder — they decode or they
    /// return an error.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let _ = Telemetry::decode(&bytes);
        let _ = ServerMessage::decode(&bytes);
    }

    /// Single-bit corruption of a valid frame never panics a decoder.
    #[test]
    fn bit_flips_never_panic(
        which in 0usize..16,
        byte_pos in 0usize..4096,
        bit in 0u8..8,
    ) {
        let requests = all_requests();
        let mut bytes = requests[which % requests.len()].encode();
        let idx = byte_pos % bytes.len();
        bytes[idx] ^= 1 << bit;
        let _ = Request::decode(&bytes);
        let _ = ServerMessage::decode(&bytes);
    }
}
