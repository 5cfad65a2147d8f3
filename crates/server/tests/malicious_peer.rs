//! Hostile-peer tests: raw TCP streams sending frames the protocol
//! forbids. The server must fail each bad connection cleanly — an error
//! reply or a close — and keep serving well-behaved clients.

use ssdx_server::frame::{read_frame, write_frame, MAX_FRAME_BYTES};
use ssdx_server::proto::{Request, Response, ServerMessage};
use ssdx_server::{Client, ClientError, ErrorCode, Server, ServerConfig, PROTOCOL_VERSION};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn ephemeral_server() -> Server {
    Server::bind(ServerConfig {
        bind: "127.0.0.1:0".to_owned(),
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral loopback port")
}

fn raw_connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("raw connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    stream
}

/// Performs the handshake on a raw stream so later frames reach the
/// request dispatcher.
fn shake(stream: &mut TcpStream) {
    write_frame(
        stream,
        &Request::Hello {
            version: PROTOCOL_VERSION,
        }
        .encode(),
    )
    .expect("send hello");
    let payload = read_frame(stream, MAX_FRAME_BYTES)
        .expect("read ack")
        .expect("ack frame");
    match ServerMessage::decode(&payload).expect("decode ack") {
        ServerMessage::Response(Response::HelloAck { version }) => {
            assert_eq!(version, PROTOCOL_VERSION);
        }
        other => panic!("expected HelloAck, got {other:?}"),
    }
}

fn read_response(stream: &mut TcpStream) -> Option<Response> {
    let payload = read_frame(stream, MAX_FRAME_BYTES).ok()??;
    match ServerMessage::decode(&payload).expect("server frames always decode") {
        ServerMessage::Response(r) => Some(r),
        ServerMessage::Telemetry(t) => panic!("unexpected telemetry {t:?}"),
    }
}

/// The server is still healthy: a fresh well-behaved client can run a
/// session end to end.
fn assert_still_serving(server: &Server) {
    let mut client = Client::connect(server.local_addr()).expect("healthy connect");
    let config = ssdx_core::SsdConfig::builder("healthy")
        .topology(1, 1, 1)
        .build()
        .expect("valid config")
        .to_text();
    let spec = ssdx_server::WorkloadSpec::Basic {
        pattern: ssdx_hostif::AccessPattern::SequentialWrite,
        block_size: 4096,
        command_count: 16,
        footprint_bytes: 1 << 20,
        seed: 1,
    };
    let session = client.create_session(&config, &spec).expect("create");
    let report = client.fetch_report(session).expect("report");
    assert_eq!(report.commands, 16);
    client.close_session(session).expect("close");
}

#[test]
fn an_oversized_frame_closes_that_connection_only() {
    let server = ephemeral_server();
    let mut evil = raw_connect(&server);
    shake(&mut evil);
    // Declare a frame bigger than the server's cap, then stop. The
    // length prefix alone must get the connection closed — the server
    // never allocates for it.
    let declared = (MAX_FRAME_BYTES as u64 + 1).to_le_bytes();
    let mut prefix = Vec::new();
    let mut value = u64::from_le_bytes(declared);
    while value >= 0x80 {
        prefix.push((value as u8) | 0x80);
        value >>= 7;
    }
    prefix.push(value as u8);
    evil.write_all(&prefix).expect("send hostile length");
    evil.flush().expect("flush");
    // The server replies with a final error frame or just closes; either
    // way the stream ends rather than hanging.
    let mut sink = Vec::new();
    let _ = evil.read_to_end(&mut sink);
    assert_still_serving(&server);
    shutdown(server);
}

#[test]
fn an_unknown_request_tag_gets_an_error_reply_and_the_connection_lives() {
    let server = ephemeral_server();
    let mut peer = raw_connect(&server);
    shake(&mut peer);
    // 0xEE is no request tag. The frame itself is well-formed, so the
    // server must answer with MalformedRequest and keep reading.
    write_frame(&mut peer, &[0xEE, 1, 2, 3]).expect("send unknown tag");
    match read_response(&mut peer).expect("an error reply") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::MalformedRequest),
        other => panic!("expected an error reply, got {other:?}"),
    }
    // Same connection, now a valid request: it must still be served.
    write_frame(&mut peer, &Request::CloseSession { session: 7 }.encode())
        .expect("send a valid request");
    match read_response(&mut peer).expect("a reply") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownSession),
        other => panic!("expected unknown-session, got {other:?}"),
    }
    assert_still_serving(&server);
    shutdown(server);
}

#[test]
fn a_mid_frame_disconnect_is_cleaned_up() {
    let server = ephemeral_server();
    for _ in 0..3 {
        let mut peer = raw_connect(&server);
        shake(&mut peer);
        // Declare 100 bytes, send 3, vanish.
        peer.write_all(&[100, 0xAA, 0xBB, 0xCC])
            .expect("partial frame");
        drop(peer);
    }
    assert_still_serving(&server);
    shutdown(server);
}

#[test]
fn garbage_before_the_handshake_is_rejected() {
    let server = ephemeral_server();
    let mut peer = raw_connect(&server);
    // A syntactically valid frame whose payload is not a Hello.
    write_frame(&mut peer, &[0xFF, 0x00, 0x13, 0x37]).expect("send garbage");
    match read_response(&mut peer) {
        Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::MalformedRequest),
        Some(other) => panic!("expected an error reply, got {other:?}"),
        // An immediate close is also acceptable.
        None => {}
    }
    assert_still_serving(&server);
    shutdown(server);
}

#[test]
fn a_version_mismatch_is_refused_at_the_door() {
    let server = ephemeral_server();
    let mut peer = raw_connect(&server);
    write_frame(
        &mut peer,
        &Request::Hello {
            version: PROTOCOL_VERSION + 1,
        }
        .encode(),
    )
    .expect("send wrong version");
    match read_response(&mut peer).expect("a refusal reply") {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::VersionMismatch);
            assert!(
                message.contains(&PROTOCOL_VERSION.to_string()),
                "the refusal names the supported version: {message}"
            );
        }
        other => panic!("expected a version-mismatch error, got {other:?}"),
    }
    // The server closes after refusing.
    let mut sink = Vec::new();
    let _ = peer.read_to_end(&mut sink);
    assert!(sink.is_empty(), "nothing after the refusal");
    assert_still_serving(&server);
    shutdown(server);
}

#[test]
fn a_request_before_hello_is_refused() {
    let server = ephemeral_server();
    let mut peer = raw_connect(&server);
    write_frame(&mut peer, &Request::Shutdown.encode()).expect("send early request");
    match read_response(&mut peer).expect("a refusal reply") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::MalformedRequest),
        other => panic!("expected a refusal, got {other:?}"),
    }
    assert_still_serving(&server);
    shutdown(server);
}

#[test]
fn an_oversized_session_is_refused_not_fatal() {
    let server = ephemeral_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // 10^11 commands exceed the command cap, and `u64::MAX` updates of
    // two commands each do not even fit a count. Both are refused on the
    // same connection.
    let oversized = [
        ssdx_server::WorkloadSpec::Basic {
            pattern: ssdx_hostif::AccessPattern::SequentialWrite,
            block_size: 4096,
            command_count: 100_000_000_000,
            footprint_bytes: 1 << 20,
            seed: 1,
        },
        ssdx_server::WorkloadSpec::Rmw {
            seed: 1,
            updates: u64::MAX,
            block_size: 4096,
            footprint_bytes: 1 << 20,
        },
    ];
    for spec in &oversized {
        match client.create_session("", spec) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadWorkload),
            other => panic!("expected a bad-workload refusal, got {other:?}"),
        }
    }
    assert_still_serving(&server);
    shutdown(server);
}

#[test]
fn a_topology_beyond_the_die_limit_is_refused_not_fatal() {
    let server = ephemeral_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // 65536 × 65536 × 16 dies: the u32 product wraps to zero, so only a
    // check on the true product stops the platform build.
    let config = "channels = 65536\nways = 65536\ndies_per_way = 16\n";
    let spec = ssdx_server::WorkloadSpec::Basic {
        pattern: ssdx_hostif::AccessPattern::SequentialWrite,
        block_size: 4096,
        command_count: 16,
        footprint_bytes: 1 << 20,
        seed: 1,
    };
    match client.create_session(config, &spec) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadConfig),
        other => panic!("expected a bad-config refusal, got {other:?}"),
    }
    assert_still_serving(&server);
    shutdown(server);
}

#[test]
fn buffer_and_core_counts_that_size_huge_allocations_are_refused_not_fatal() {
    let server = ephemeral_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // Each count sizes one `Vec` when the platform is built; an allocation
    // that large aborts the process, which no `catch_unwind` can stop. The
    // third overflows the session's aggregate buffer capacity in `u64`.
    let configs = [
        "dram_buffers = 4294967295\n",
        "cpu_cores = 4294967295\n",
        "dram_buffers = 65536\ndram_buffer_capacity = 18446744073709551615\n",
    ];
    let spec = ssdx_server::WorkloadSpec::Basic {
        pattern: ssdx_hostif::AccessPattern::SequentialWrite,
        block_size: 4096,
        command_count: 16,
        footprint_bytes: 1 << 20,
        seed: 1,
    };
    for config in configs {
        match client.create_session(config, &spec) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadConfig),
            other => panic!("expected a bad-config refusal for {config:?}, got {other:?}"),
        }
    }
    assert_still_serving(&server);
    shutdown(server);
}

fn shutdown(server: Server) {
    let mut client = Client::connect(server.local_addr()).expect("connect for shutdown");
    client.shutdown_server().expect("shutdown");
    server.wait().expect("clean exit");
}
