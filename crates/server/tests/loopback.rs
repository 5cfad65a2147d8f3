//! End-to-end tests over a real loopback socket: an ephemeral-port
//! server, the client library, and the acceptance criteria — remote
//! reports and snapshot images byte-identical to in-process runs however
//! requests interleave, fork independence, telemetry streaming, request
//! round trips free of Nagle stalls, and the ≥200-concurrent-session load
//! target with zero control-message loss.

use proptest::prelude::*;
use ssdx_core::{CommandRecord, PerfReport, SessionSnapshot};
use ssdx_hostif::AccessPattern;
use ssdx_server::frame::{read_frame, write_frame, MAX_FRAME_BYTES};
use ssdx_server::{
    Client, ClientError, ErrorCode, LoadgenConfig, Request, Response, Server, ServerConfig,
    ServerMessage, Telemetry, WorkloadSpec, PROTOCOL_VERSION,
};
use ssdx_sim::SimTime;
use std::net::TcpStream;
use std::time::Duration;

fn ephemeral_server() -> Server {
    Server::bind(ServerConfig {
        bind: "127.0.0.1:0".to_owned(),
        workers: 4,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral loopback port")
}

fn test_config_text() -> String {
    ssdx_core::SsdConfig::builder("loopback")
        .topology(2, 2, 1)
        .seed(3)
        .build()
        .expect("valid test config")
        .to_text()
}

fn test_spec() -> WorkloadSpec {
    WorkloadSpec::Basic {
        pattern: AccessPattern::RandomWrite,
        block_size: 4096,
        command_count: 256,
        footprint_bytes: 1 << 24,
        seed: 21,
    }
}

/// The same config + spec run entirely in-process, for byte-identity
/// comparisons against server-side runs.
fn in_process_report() -> PerfReport {
    let config = ssdx_core::SsdConfig::from_text(&test_config_text()).expect("round-trip config");
    let source = test_spec().build().expect("valid test spec");
    let mut ssd = ssdx_core::Ssd::try_new(config).expect("valid test device");
    ssd.simulate(source.as_ref())
}

/// Asserts two reports are identical: the golden `Debug` rendering, and
/// both histograms in full (`Debug` leaves `class_latency` out).
fn assert_same_report(actual: &PerfReport, expected: &PerfReport, what: &str) {
    assert_eq!(format!("{actual:?}"), format!("{expected:?}"), "{what}");
    assert_eq!(actual.latency, expected.latency, "{what}");
    assert_eq!(actual.class_latency, expected.class_latency, "{what}");
}

/// The in-process snapshot image of the same run after `completed`
/// commands, for byte-identity comparisons against `CaptureSnapshot`.
fn in_process_image(completed: u64) -> Vec<u8> {
    let config = ssdx_core::SsdConfig::from_text(&test_config_text()).expect("round-trip config");
    let source = test_spec().build().expect("valid test spec");
    let mut ssd = ssdx_core::Ssd::try_new(config).expect("valid test device");
    let mut session = ssd.session(source.as_ref());
    for _ in 0..completed {
        session.step();
    }
    session.capture().into_bytes()
}

#[test]
fn remote_report_is_byte_identical_to_in_process() {
    let server = ephemeral_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let session = client
        .create_session(&test_config_text(), &test_spec())
        .expect("create");
    let remote = client.fetch_report(session).expect("fetch report");
    assert_same_report(
        &remote,
        &in_process_report(),
        "remote report must be byte-identical to the in-process run",
    );
    client.close_session(session).expect("close");
    client.shutdown_server().expect("shutdown");
    server.wait().expect("clean exit");
}

#[test]
fn slicing_a_run_into_steps_does_not_change_the_report() {
    let server = ephemeral_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let session = client
        .create_session(&test_config_text(), &test_spec())
        .expect("create");
    // Advance in ragged slices: counted steps, then a deadline, then
    // more steps — the report must not care.
    let p = client.step(session, 17).expect("step");
    assert_eq!(p.completed, 17);
    let p = client
        .run_until(session, p.now + SimTime::from_us(50))
        .expect("run_until");
    assert!(p.completed >= 17);
    client.step(session, 3).expect("step");
    let remote = client.fetch_report(session).expect("fetch report");
    assert_same_report(
        &remote,
        &in_process_report(),
        "stepping must not perturb the final report",
    );
    client.shutdown_server().expect("shutdown");
    server.wait().expect("clean exit");
}

#[test]
fn a_fork_reports_identically_to_its_parent() {
    let server = ephemeral_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let parent = client
        .create_session(&test_config_text(), &test_spec())
        .expect("create");
    client.step(parent, 40).expect("advance the parent first");
    let child = client.fork(parent).expect("fork");
    assert_ne!(parent, child);
    let parent_report = client.fetch_report(parent).expect("parent report");
    let child_report = client.fetch_report(child).expect("child report");
    assert_same_report(
        &child_report,
        &parent_report,
        "a fork must finish exactly like its parent",
    );
    client.shutdown_server().expect("shutdown");
    server.wait().expect("clean exit");
}

#[test]
fn stepping_one_side_of_a_fork_never_moves_the_other() {
    let server = ephemeral_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let reference = in_process_report();
    let parent = client
        .create_session(&test_config_text(), &test_spec())
        .expect("create");
    client.step(parent, 40).expect("advance the parent first");
    let child = client.fork(parent).expect("fork");

    // The parent moves on; the child stays at the fork point.
    let child_before = client.fetch_report(child).expect("child report");
    assert_eq!(client.step(parent, 100).expect("step").completed, 140);
    let child_after = client.fetch_report(child).expect("child report");
    assert_same_report(&child_before, &reference, "child before the parent moves");
    assert_same_report(&child_after, &reference, "child after the parent moves");
    assert_eq!(client.step(child, 0).expect("probe").completed, 40);

    // The reverse: the child runs to the end; the parent stays put.
    let parent_before = client.fetch_report(parent).expect("parent report");
    let p = client.step(child, 1_000).expect("step the child out");
    assert_eq!((p.completed, p.remaining), (256, 0));
    let parent_after = client.fetch_report(parent).expect("parent report");
    assert_same_report(&parent_before, &reference, "parent before the child moves");
    assert_same_report(&parent_after, &reference, "parent after the child moves");
    assert_eq!(client.step(parent, 0).expect("probe").completed, 140);

    client.shutdown_server().expect("shutdown");
    server.wait().expect("clean exit");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any interleaving of `Step`, `CaptureSnapshot`, `FetchReport` and
    /// `Fork` over live sessions keeps every reply byte-identical to the
    /// in-process run: each image equals an in-process capture at the same
    /// cursor, and every report equals `Ssd::simulate`.
    #[test]
    fn interleaved_requests_stay_byte_identical_to_in_process(
        // (verb, step size, whether to drive the fork afterwards)
        ops in prop::collection::vec((0u8..4, 1u64..48, any::<bool>()), 4..20),
    ) {
        let server = ephemeral_server();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let reference = in_process_report();
        let first = client
            .create_session(&test_config_text(), &test_spec())
            .expect("create");
        // Every live session with its expected cursor; `current` is driven.
        let mut sessions = vec![(first, 0u64)];
        let mut current = 0;
        for (verb, n, follow) in ops {
            let (id, completed) = sessions[current];
            match verb {
                0 => {
                    let p = client.step(id, n).expect("step");
                    let expected = (completed + n).min(256);
                    prop_assert_eq!(p.completed, expected);
                    sessions[current].1 = expected;
                }
                1 => {
                    let image = client.capture_snapshot(id).expect("capture");
                    prop_assert!(image == in_process_image(completed), "image at {}", completed);
                }
                2 => {
                    let report = client.fetch_report(id).expect("report");
                    assert_same_report(&report, &reference, "mid-run report");
                }
                _ => {
                    let child = client.fork(id).expect("fork");
                    sessions.push((child, completed));
                    if follow {
                        current = sessions.len() - 1;
                    }
                }
            }
        }
        for (id, _) in sessions {
            let report = client.fetch_report(id).expect("final report");
            assert_same_report(&report, &reference, "final report");
            client.close_session(id).expect("close");
        }
        client.shutdown_server().expect("shutdown");
        server.wait().expect("clean exit");
    }
}

/// A Nagle stall costs every reply the client's delayed ACK (≥40 ms), so
/// 100 sequential one-command steps would take four seconds or more. A
/// one-second ceiling is generous for the sub-millisecond round trips the
/// service delivers.
#[test]
fn sequential_round_trips_do_not_stall() {
    let server = ephemeral_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let session = client
        .create_session(&test_config_text(), &test_spec())
        .expect("create");
    // ssdx-lint::allow(no-wall-clock): the round-trip time IS the assertion;
    // nothing simulated reads it.
    let started = std::time::Instant::now();
    for _ in 0..100 {
        client.step(session, 1).expect("step");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "100 Step(1) round trips took {elapsed:?}: a Nagle stall is back"
    );
    client.shutdown_server().expect("shutdown");
    server.wait().expect("clean exit");
}

#[test]
fn captured_snapshots_parse_as_snapshot_images() {
    let server = ephemeral_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let session = client
        .create_session(&test_config_text(), &test_spec())
        .expect("create");
    client.step(session, 10).expect("step");
    let image = client.capture_snapshot(session).expect("capture");
    let snapshot = ssdx_core::Snapshot::from_bytes(&image).expect("the image is a valid snapshot");
    assert_eq!(snapshot.version(), ssdx_core::SNAPSHOT_VERSION);
    client.shutdown_server().expect("shutdown");
    server.wait().expect("clean exit");
}

/// What an in-process step loop over the same config and spec returns for
/// its first `commands` commands, sampling a snapshot every `every`
/// completions: the loop a subscribed server session runs.
fn in_process_telemetry(commands: u64, every: u64) -> (Vec<CommandRecord>, Vec<SessionSnapshot>) {
    let config = ssdx_core::SsdConfig::from_text(&test_config_text()).expect("round-trip config");
    let source = test_spec().build().expect("valid test spec");
    let mut ssd = ssdx_core::Ssd::try_new(config).expect("valid test device");
    let mut session = ssd.session(source.as_ref());
    let (mut records, mut samples) = (Vec::new(), Vec::new());
    for _ in 0..commands {
        let Some(record) = session.step() else { break };
        records.push(record);
        if session.completed() % every == 0 {
            samples.push(session.snapshot());
        }
    }
    (records, samples)
}

#[test]
fn subscribed_telemetry_streams_completions_and_utilization() {
    let server = ephemeral_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let session = client
        .create_session(&test_config_text(), &test_spec())
        .expect("create");
    client.subscribe(session, 8).expect("subscribe");
    let progress = client.step(session, 32).expect("step");
    assert_eq!(progress.executed, 32);
    // Collect everything already in flight, then poll for the rest.
    let mut completions = Vec::new();
    let mut utilization = Vec::new();
    for t in client.take_telemetry() {
        client_push(t, session, &mut completions, &mut utilization);
    }
    while let Some(t) = client
        .poll_telemetry(Duration::from_millis(200))
        .expect("poll telemetry")
    {
        client_push(t, session, &mut completions, &mut utilization);
        if completions.len() >= 32 && utilization.len() >= 4 {
            break;
        }
    }
    assert_eq!(completions.len(), 32, "one completion event per command");
    assert_eq!(
        completions.iter().map(|r| r.index).collect::<Vec<u64>>(),
        (0..32).collect::<Vec<u64>>(),
        "completion indices arrive in order"
    );
    assert_eq!(
        utilization.len(),
        4,
        "a utilization sample every 8 completions over 32 commands"
    );
    // Every record and sample equals what the in-process loop returns.
    let (records, samples) = in_process_telemetry(32, 8);
    assert_eq!(completions, records, "completion records match in-process");
    assert_eq!(utilization, samples, "utilization samples match in-process");
    client.unsubscribe(session).expect("unsubscribe");
    client.step(session, 8).expect("step");
    assert!(
        client.take_telemetry().is_empty(),
        "no telemetry after unsubscribe"
    );
    client.shutdown_server().expect("shutdown");
    server.wait().expect("clean exit");
}

fn client_push(
    t: Telemetry,
    session: u32,
    completions: &mut Vec<CommandRecord>,
    utilization: &mut Vec<SessionSnapshot>,
) {
    match t {
        Telemetry::Completion { session: s, record } => {
            assert_eq!(s, session);
            completions.push(record);
        }
        Telemetry::Utilization {
            session: s,
            snapshot,
        } => {
            assert_eq!(s, session);
            utilization.push(snapshot);
        }
        Telemetry::Dropped { .. } => {}
    }
}

#[test]
fn server_side_errors_are_replies_not_disconnects() {
    let server = ephemeral_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // Unknown session.
    match client.step(999, 1) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownSession),
        other => panic!("expected an unknown-session error, got {other:?}"),
    }
    // Bad config text.
    match client.create_session("channels = 0\n", &test_spec()) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadConfig),
        other => panic!("expected a bad-config error, got {other:?}"),
    }
    // Bad workload parameters.
    let bad = WorkloadSpec::Zipfian {
        theta: 1.5,
        seed: 1,
        command_count: 16,
        block_size: 4096,
        footprint_bytes: 1 << 20,
        read_fraction: 0.5,
    };
    match client.create_session(&test_config_text(), &bad) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadWorkload),
        other => panic!("expected a bad-workload error, got {other:?}"),
    }
    // The connection survived all three rejections.
    let session = client
        .create_session(&test_config_text(), &test_spec())
        .expect("the connection still works");
    client.close_session(session).expect("close");
    client.shutdown_server().expect("shutdown");
    server.wait().expect("clean exit");
}

#[test]
fn loadgen_sustains_two_hundred_concurrent_sessions_with_zero_loss() {
    let server = ephemeral_server();
    let mut cfg = LoadgenConfig::new(server.local_addr().to_string());
    cfg.sessions = 200;
    cfg.connections = 8;
    cfg.rounds = 1;
    let report = ssdx_server::load::run(&cfg).expect("the load run succeeds");
    assert_eq!(report.sessions, 200);
    assert_eq!(
        report.requests, report.replies,
        "zero control-message loss under load"
    );
    assert!(report.commands > 0, "the fleet simulated real commands");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.shutdown_server().expect("shutdown");
    server.wait().expect("clean exit");
}

#[test]
fn shutdown_drains_other_connections_with_a_broadcast() {
    let server = ephemeral_server();
    let mut bystander = Client::connect(server.local_addr()).expect("connect bystander");
    let session = bystander
        .create_session(&test_config_text(), &test_spec())
        .expect("create");
    bystander.step(session, 5).expect("step");
    let mut closer = Client::connect(server.local_addr()).expect("connect closer");
    closer.shutdown_server().expect("shutdown");
    server.wait().expect("clean exit");
    // The bystander's next request cannot be served, but the broadcast
    // and socket close must surface as a clean error, not a hang.
    if let Ok(progress) = bystander.step(session, 1) {
        panic!("stepped a drained server: {progress:?}");
    }
}

/// The shutdown order of docs/OPERATIONS.md, seen by a connection whose
/// long run is in flight when another connection asks for shutdown: the
/// run's `Progress` reply, then the `ShuttingDown` broadcast, then a
/// clean close. Should the run end before the request arrives, the order
/// is the same.
#[test]
fn shutdown_broadcasts_only_after_in_flight_replies() {
    let server = ephemeral_server();
    let mut closer = Client::connect(server.local_addr()).expect("connect closer");
    let long_run = WorkloadSpec::Basic {
        pattern: AccessPattern::RandomWrite,
        block_size: 4096,
        command_count: 50_000,
        footprint_bytes: 1 << 24,
        seed: 5,
    };
    let session = closer
        .create_session(&test_config_text(), &long_run)
        .expect("create");

    let mut runner = TcpStream::connect(server.local_addr()).expect("connect runner");
    let mut send = |request: Request| write_frame(&mut runner, &request.encode()).expect("send");
    send(Request::Hello {
        version: PROTOCOL_VERSION,
    });
    send(Request::Subscribe {
        session,
        sample_every: 0,
    });
    send(Request::RunUntil {
        session,
        deadline: SimTime::MAX,
    });
    // Every frame the runner reads, control replies kept in order. Its
    // first telemetry frame shows the run has started.
    let mut control = Vec::new();
    let mut next_frame = |runner: &mut TcpStream| {
        let payload = read_frame(runner, MAX_FRAME_BYTES).expect("frames arrive whole")?;
        let message = ServerMessage::decode(&payload).expect("server frames decode");
        if let ServerMessage::Response(response) = &message {
            control.push(response.clone());
        }
        Some(message)
    };
    while let Some(ServerMessage::Response(_)) = next_frame(&mut runner) {}

    closer.shutdown_server().expect("shutdown");
    while next_frame(&mut runner).is_some() {}
    assert!(
        matches!(
            control[..],
            [
                Response::HelloAck { .. },
                Response::Subscribed { .. },
                Response::Progress { remaining: 0, .. },
                Response::ShuttingDown,
            ]
        ),
        "control replies out of order: {control:?}"
    );
    server.wait().expect("clean exit");
}
