//! The versioned `ssdx` wire protocol: request/response/telemetry messages
//! and their binary codecs.
//!
//! Every message is one frame payload (see [`crate::frame`]): a one-byte
//! tag followed by the variant's fields, encoded with
//! [`ssdx_sim::codec`]'s LEB128-varint [`Encoder`]/[`Decoder`]. Decoding is
//! total — any byte sequence produces either a message or a
//! [`DecodeError`], never a panic — and strict: trailing bytes after a
//! well-formed message are an error. The normative byte-level
//! specification lives in `docs/PROTOCOL.md`; this module is its
//! implementation.
//!
//! The protocol splits server→client traffic into two channels carried on
//! one TCP stream (the naia `ChannelMode` split):
//!
//! * **control** ([`Response`], tags `0x41..=0x4C`) — ordered, reliable:
//!   exactly one reply per [`Request`], never dropped;
//! * **telemetry** ([`Telemetry`], tags `0x61..=0x63`) — fire-and-forget:
//!   subscribed completion records and utilization snapshots that the
//!   server may drop (oldest first) when the subscriber falls behind, in
//!   which case a [`Telemetry::Dropped`] marker reports the gap.

use ssdx_core::{
    ClassHistograms, CommandClass, CommandRecord, LatencyHistogram, PerfReport, SessionSnapshot,
    TailSummary, UtilizationBreakdown,
};
use ssdx_hostif::{
    AccessPattern, BurstyWorkload, CommandSource, HostCommand, HostOp, MixedSizeWorkload,
    RmwWorkload, Workload, ZipfianWorkload,
};
use ssdx_sim::codec::{DecodeError, Decoder, Encoder};
use ssdx_sim::SimTime;
use std::sync::Arc;

/// Protocol revision spoken by this build.
///
/// A connection opens with [`Request::Hello`] carrying the client's
/// version; the server answers [`Response::HelloAck`] only on an exact
/// match and [`ErrorCode::VersionMismatch`] otherwise. Any change to a
/// message layout bumps this constant.
pub const PROTOCOL_VERSION: u32 = 2;

// ---------------------------------------------------------------------------
// Error codes
// ---------------------------------------------------------------------------

/// Machine-readable failure classes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The client's `Hello` version differs from [`PROTOCOL_VERSION`].
    VersionMismatch,
    /// The request frame did not decode, or arrived out of sequence
    /// (e.g. a second `Hello`, or a request before the handshake).
    MalformedRequest,
    /// The request named a session id this server does not hold.
    UnknownSession,
    /// `CreateSession` carried a config text the platform rejected.
    BadConfig,
    /// `CreateSession` carried a workload spec with invalid parameters.
    BadWorkload,
    /// The server is at its configured session capacity.
    SessionLimit,
    /// The session's simulation failed; the session has been discarded.
    /// Other sessions and the server itself are unaffected.
    SessionFailed,
    /// The server is shutting down and no longer accepts session work.
    ShuttingDown,
}

impl ErrorCode {
    /// All codes, in wire-value order.
    pub const ALL: [ErrorCode; 8] = [
        ErrorCode::VersionMismatch,
        ErrorCode::MalformedRequest,
        ErrorCode::UnknownSession,
        ErrorCode::BadConfig,
        ErrorCode::BadWorkload,
        ErrorCode::SessionLimit,
        ErrorCode::SessionFailed,
        ErrorCode::ShuttingDown,
    ];

    /// The byte this code encodes to.
    pub fn code(self) -> u8 {
        match self {
            ErrorCode::VersionMismatch => 1,
            ErrorCode::MalformedRequest => 2,
            ErrorCode::UnknownSession => 3,
            ErrorCode::BadConfig => 4,
            ErrorCode::BadWorkload => 5,
            ErrorCode::SessionLimit => 6,
            ErrorCode::SessionFailed => 7,
            ErrorCode::ShuttingDown => 8,
        }
    }

    /// Stable lowercase name (used in logs and the spec).
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::VersionMismatch => "version-mismatch",
            ErrorCode::MalformedRequest => "malformed-request",
            ErrorCode::UnknownSession => "unknown-session",
            ErrorCode::BadConfig => "bad-config",
            ErrorCode::BadWorkload => "bad-workload",
            ErrorCode::SessionLimit => "session-limit",
            ErrorCode::SessionFailed => "session-failed",
            ErrorCode::ShuttingDown => "shutting-down",
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<ErrorCode, DecodeError> {
        let raw = dec.get_u8()?;
        ErrorCode::ALL
            .into_iter()
            .find(|c| c.code() == raw)
            .ok_or_else(|| dec.invalid("error code"))
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

// ---------------------------------------------------------------------------
// Workload specs
// ---------------------------------------------------------------------------

/// Most commands one session's workload may hold: 2^24.
///
/// A session reads its commands from the generator one at a time, so the
/// cap does not bound memory. It bounds the work a single request can
/// demand: the pass over the stream that sizes a session at create time
/// (about half a second for a Zipfian stream at the cap), and the length
/// of the run. [`WorkloadSpec::build`] rejects larger workloads (an `Rmw`
/// update counts as its two commands) with [`ErrorCode::BadWorkload`].
pub const MAX_SESSION_COMMANDS: u64 = 1 << 24;

/// A self-contained, wire-encodable description of a command source.
///
/// `CreateSession` carries one of these instead of an opaque command list:
/// the server rebuilds the deterministic generator locally and the session
/// reads its commands from it one at a time, so a few dozen bytes describe
/// millions of commands, no session holds its stream in memory, and the
/// same spec + seed reproduces the same stream on any build (the
/// deterministic-replay contract in `docs/OPERATIONS.md`).
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// The four fixed access patterns of [`Workload`].
    Basic {
        /// Access pattern (SW/SR/RW/RR).
        pattern: AccessPattern,
        /// Payload bytes per command.
        block_size: u32,
        /// Number of commands.
        command_count: u64,
        /// Logical footprint in bytes.
        footprint_bytes: u64,
        /// RNG seed for the random patterns.
        seed: u64,
    },
    /// Skewed random traffic ([`ZipfianWorkload`]).
    Zipfian {
        /// Zipf skew, exclusive `(0, 1)`.
        theta: f64,
        /// RNG seed.
        seed: u64,
        /// Number of commands.
        command_count: u64,
        /// Payload bytes per command.
        block_size: u32,
        /// Logical footprint in bytes.
        footprint_bytes: u64,
        /// Fraction of reads, `[0, 1]`.
        read_fraction: f64,
    },
    /// On/off burst traffic ([`BurstyWorkload`]).
    Bursty {
        /// RNG seed.
        seed: u64,
        /// Number of commands.
        command_count: u64,
        /// Payload bytes per command.
        block_size: u32,
        /// Logical footprint in bytes.
        footprint_bytes: u64,
        /// Fraction of reads, `[0, 1]`.
        read_fraction: f64,
        /// Commands per burst (non-zero).
        burst_len: u64,
        /// Gap between commands inside a burst.
        inter_arrival: SimTime,
        /// Idle gap between bursts.
        idle_gap: SimTime,
    },
    /// Weighted block-size mix ([`MixedSizeWorkload`]).
    MixedSize {
        /// `(block_size, weight)` pairs; at least one non-zero weight.
        sizes: Vec<(u32, u32)>,
        /// RNG seed.
        seed: u64,
        /// Number of commands.
        command_count: u64,
        /// Logical footprint in bytes.
        footprint_bytes: u64,
        /// Fraction of reads, `[0, 1]`.
        read_fraction: f64,
    },
    /// Read-modify-write update pairs ([`RmwWorkload`]).
    Rmw {
        /// RNG seed.
        seed: u64,
        /// Number of read+write update pairs.
        updates: u64,
        /// Payload bytes per command.
        block_size: u32,
        /// Logical footprint in bytes.
        footprint_bytes: u64,
    },
}

impl WorkloadSpec {
    /// Validates the parameters and builds the command source, ready to
    /// hand to [`Ssd::into_session`](ssdx_core::Ssd::into_session).
    ///
    /// Validation mirrors the generator constructors' own `assert!`
    /// invariants so that a hostile or buggy client yields a protocol
    /// error ([`ErrorCode::BadWorkload`]) instead of a server-side panic,
    /// and caps the stream at [`MAX_SESSION_COMMANDS`]. Building generates
    /// no commands.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant.
    pub fn build(&self) -> Result<Arc<dyn CommandSource>, String> {
        let commands = match *self {
            WorkloadSpec::Basic { command_count, .. }
            | WorkloadSpec::Zipfian { command_count, .. }
            | WorkloadSpec::Bursty { command_count, .. }
            | WorkloadSpec::MixedSize { command_count, .. } => command_count,
            WorkloadSpec::Rmw { updates, .. } => updates.saturating_mul(2),
        };
        if commands > MAX_SESSION_COMMANDS {
            return Err(format!(
                "{commands} commands exceed the per-session cap of {MAX_SESSION_COMMANDS}"
            ));
        }
        fn check_block(block_size: u32, footprint_bytes: u64) -> Result<(), String> {
            if block_size == 0 {
                return Err("block size must be non-zero".into());
            }
            if footprint_bytes < block_size as u64 {
                return Err(format!(
                    "footprint ({footprint_bytes} B) cannot hold one {block_size} B block"
                ));
            }
            Ok(())
        }
        match *self {
            WorkloadSpec::Basic {
                pattern,
                block_size,
                command_count,
                footprint_bytes,
                seed,
            } => {
                check_block(block_size, footprint_bytes)?;
                Ok(Arc::new(
                    Workload::builder(pattern)
                        .block_size(block_size)
                        .command_count(command_count)
                        .footprint_bytes(footprint_bytes)
                        .seed(seed)
                        .build(),
                ))
            }
            WorkloadSpec::Zipfian {
                theta,
                seed,
                command_count,
                block_size,
                footprint_bytes,
                read_fraction,
            } => {
                if !(theta > 0.0 && theta < 1.0) {
                    return Err(format!("zipfian skew must be in (0, 1), got {theta}"));
                }
                check_block(block_size, footprint_bytes)?;
                Ok(Arc::new(
                    ZipfianWorkload::new(theta, seed)
                        .command_count(command_count)
                        .block_size(block_size)
                        .footprint_bytes(footprint_bytes)
                        .read_fraction(read_fraction),
                ))
            }
            WorkloadSpec::Bursty {
                seed,
                command_count,
                block_size,
                footprint_bytes,
                read_fraction,
                burst_len,
                inter_arrival,
                idle_gap,
            } => {
                check_block(block_size, footprint_bytes)?;
                if burst_len == 0 {
                    return Err("burst length must be non-zero".into());
                }
                Ok(Arc::new(
                    BurstyWorkload::new(seed)
                        .command_count(command_count)
                        .block_size(block_size)
                        .footprint_bytes(footprint_bytes)
                        .read_fraction(read_fraction)
                        .burst(burst_len, inter_arrival, idle_gap),
                ))
            }
            WorkloadSpec::MixedSize {
                ref sizes,
                seed,
                command_count,
                footprint_bytes,
                read_fraction,
            } => {
                if sizes.is_empty() {
                    return Err("the size mix must hold at least one size".into());
                }
                if sizes.iter().any(|&(bytes, _)| bytes == 0) {
                    return Err("block sizes must be non-zero".into());
                }
                if !sizes.iter().any(|&(_, weight)| weight > 0) {
                    return Err("at least one size needs a non-zero weight".into());
                }
                let largest = sizes
                    .iter()
                    .filter(|&&(_, w)| w > 0)
                    .map(|&(bytes, _)| bytes as u64)
                    .max()
                    .unwrap_or(1);
                if footprint_bytes < largest {
                    return Err(format!(
                        "footprint must hold the largest block size ({largest} B)"
                    ));
                }
                Ok(Arc::new(
                    MixedSizeWorkload::new(sizes.iter().copied(), seed)
                        .command_count(command_count)
                        .footprint_bytes(footprint_bytes)
                        .read_fraction(read_fraction),
                ))
            }
            WorkloadSpec::Rmw {
                seed,
                updates,
                block_size,
                footprint_bytes,
            } => {
                check_block(block_size, footprint_bytes)?;
                Ok(Arc::new(
                    RmwWorkload::new(seed)
                        .updates(updates)
                        .block_size(block_size)
                        .footprint_bytes(footprint_bytes),
                ))
            }
        }
    }

    fn encode(&self, enc: &mut Encoder) {
        match *self {
            WorkloadSpec::Basic {
                pattern,
                block_size,
                command_count,
                footprint_bytes,
                seed,
            } => {
                enc.put_u8(0);
                put_pattern(enc, pattern);
                enc.put_u32(block_size);
                enc.put_u64(command_count);
                enc.put_u64(footprint_bytes);
                enc.put_u64(seed);
            }
            WorkloadSpec::Zipfian {
                theta,
                seed,
                command_count,
                block_size,
                footprint_bytes,
                read_fraction,
            } => {
                enc.put_u8(1);
                enc.put_f64(theta);
                enc.put_u64(seed);
                enc.put_u64(command_count);
                enc.put_u32(block_size);
                enc.put_u64(footprint_bytes);
                enc.put_f64(read_fraction);
            }
            WorkloadSpec::Bursty {
                seed,
                command_count,
                block_size,
                footprint_bytes,
                read_fraction,
                burst_len,
                inter_arrival,
                idle_gap,
            } => {
                enc.put_u8(2);
                enc.put_u64(seed);
                enc.put_u64(command_count);
                enc.put_u32(block_size);
                enc.put_u64(footprint_bytes);
                enc.put_f64(read_fraction);
                enc.put_u64(burst_len);
                enc.put_time(inter_arrival);
                enc.put_time(idle_gap);
            }
            WorkloadSpec::MixedSize {
                ref sizes,
                seed,
                command_count,
                footprint_bytes,
                read_fraction,
            } => {
                enc.put_u8(3);
                enc.put_len(sizes.len());
                for &(bytes, weight) in sizes {
                    enc.put_u32(bytes);
                    enc.put_u32(weight);
                }
                enc.put_u64(seed);
                enc.put_u64(command_count);
                enc.put_u64(footprint_bytes);
                enc.put_f64(read_fraction);
            }
            WorkloadSpec::Rmw {
                seed,
                updates,
                block_size,
                footprint_bytes,
            } => {
                enc.put_u8(4);
                enc.put_u64(seed);
                enc.put_u64(updates);
                enc.put_u32(block_size);
                enc.put_u64(footprint_bytes);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<WorkloadSpec, DecodeError> {
        match dec.get_u8()? {
            0 => Ok(WorkloadSpec::Basic {
                pattern: get_pattern(dec)?,
                block_size: dec.get_u32()?,
                command_count: dec.get_u64()?,
                footprint_bytes: dec.get_u64()?,
                seed: dec.get_u64()?,
            }),
            1 => Ok(WorkloadSpec::Zipfian {
                theta: dec.get_f64()?,
                seed: dec.get_u64()?,
                command_count: dec.get_u64()?,
                block_size: dec.get_u32()?,
                footprint_bytes: dec.get_u64()?,
                read_fraction: dec.get_f64()?,
            }),
            2 => Ok(WorkloadSpec::Bursty {
                seed: dec.get_u64()?,
                command_count: dec.get_u64()?,
                block_size: dec.get_u32()?,
                footprint_bytes: dec.get_u64()?,
                read_fraction: dec.get_f64()?,
                burst_len: dec.get_u64()?,
                inter_arrival: dec.get_time()?,
                idle_gap: dec.get_time()?,
            }),
            3 => {
                let n = dec.get_len()?;
                let mut sizes = Vec::with_capacity(n);
                for _ in 0..n {
                    sizes.push((dec.get_u32()?, dec.get_u32()?));
                }
                Ok(WorkloadSpec::MixedSize {
                    sizes,
                    seed: dec.get_u64()?,
                    command_count: dec.get_u64()?,
                    footprint_bytes: dec.get_u64()?,
                    read_fraction: dec.get_f64()?,
                })
            }
            4 => Ok(WorkloadSpec::Rmw {
                seed: dec.get_u64()?,
                updates: dec.get_u64()?,
                block_size: dec.get_u32()?,
                footprint_bytes: dec.get_u64()?,
            }),
            _ => Err(dec.invalid("workload spec tag")),
        }
    }
}

// ---------------------------------------------------------------------------
// Requests (client → server, tags 0x01..=0x0C)
// ---------------------------------------------------------------------------

/// Client → server messages. One control [`Response`] answers each.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens the connection: carries the client's [`PROTOCOL_VERSION`].
    /// Must be the first frame; answered by [`Response::HelloAck`].
    Hello {
        /// The client's protocol version.
        version: u32,
    },
    /// Creates a session from a device config and a workload spec.
    CreateSession {
        /// Device configuration in [`ssdx_core::SsdConfig`] text form.
        config: String,
        /// The command stream to run.
        workload: WorkloadSpec,
    },
    /// Advances a session by at most `commands` completions.
    Step {
        /// Target session id.
        session: u32,
        /// Maximum completions to retire (0 is a no-op probe).
        commands: u64,
    },
    /// Advances a session until its clock reaches `deadline`.
    RunUntil {
        /// Target session id.
        session: u32,
        /// Simulated-time deadline.
        deadline: SimTime,
    },
    /// Attaches this connection's telemetry channel to a session.
    Subscribe {
        /// Target session id.
        session: u32,
        /// Emit a utilization snapshot every `sample_every` completions
        /// (0 = completions only, no utilization samples).
        sample_every: u64,
    },
    /// Detaches the session's telemetry subscriber.
    Unsubscribe {
        /// Target session id.
        session: u32,
    },
    /// Returns the session's current state as a portable snapshot image.
    CaptureSnapshot {
        /// Target session id.
        session: u32,
    },
    /// Forks the session: a new session continues from the same state
    /// while the parent stays untouched (what-if exploration).
    Fork {
        /// Parent session id.
        session: u32,
    },
    /// Runs the session to completion (on a fork — the session itself
    /// stays where it is) and returns the full performance report.
    FetchReport {
        /// Target session id.
        session: u32,
    },
    /// Like `FetchReport` but returns only the per-class tail summaries.
    FetchTails {
        /// Target session id.
        session: u32,
    },
    /// Discards a session and frees its resources.
    CloseSession {
        /// Target session id.
        session: u32,
    },
    /// Asks the server to drain in-flight work and exit.
    Shutdown,
}

impl Request {
    /// Encodes the request as one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match *self {
            Request::Hello { version } => {
                enc.put_u8(0x01);
                enc.put_u32(version);
            }
            Request::CreateSession {
                ref config,
                ref workload,
            } => {
                enc.put_u8(0x02);
                enc.put_str(config);
                workload.encode(&mut enc);
            }
            Request::Step { session, commands } => {
                enc.put_u8(0x03);
                enc.put_u32(session);
                enc.put_u64(commands);
            }
            Request::RunUntil { session, deadline } => {
                enc.put_u8(0x04);
                enc.put_u32(session);
                enc.put_time(deadline);
            }
            Request::Subscribe {
                session,
                sample_every,
            } => {
                enc.put_u8(0x05);
                enc.put_u32(session);
                enc.put_u64(sample_every);
            }
            Request::Unsubscribe { session } => {
                enc.put_u8(0x06);
                enc.put_u32(session);
            }
            Request::CaptureSnapshot { session } => {
                enc.put_u8(0x07);
                enc.put_u32(session);
            }
            Request::Fork { session } => {
                enc.put_u8(0x08);
                enc.put_u32(session);
            }
            Request::FetchReport { session } => {
                enc.put_u8(0x09);
                enc.put_u32(session);
            }
            Request::FetchTails { session } => {
                enc.put_u8(0x0A);
                enc.put_u32(session);
            }
            Request::CloseSession { session } => {
                enc.put_u8(0x0B);
                enc.put_u32(session);
            }
            Request::Shutdown => {
                enc.put_u8(0x0C);
            }
        }
        enc.finish()
    }

    /// Decodes one frame payload.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on an unknown tag, malformed fields or
    /// trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Request, DecodeError> {
        let mut dec = Decoder::new(bytes);
        let req = match dec.get_u8()? {
            0x01 => Request::Hello {
                version: dec.get_u32()?,
            },
            0x02 => Request::CreateSession {
                config: dec.get_str()?,
                workload: WorkloadSpec::decode(&mut dec)?,
            },
            0x03 => Request::Step {
                session: dec.get_u32()?,
                commands: dec.get_u64()?,
            },
            0x04 => Request::RunUntil {
                session: dec.get_u32()?,
                deadline: dec.get_time()?,
            },
            0x05 => Request::Subscribe {
                session: dec.get_u32()?,
                sample_every: dec.get_u64()?,
            },
            0x06 => Request::Unsubscribe {
                session: dec.get_u32()?,
            },
            0x07 => Request::CaptureSnapshot {
                session: dec.get_u32()?,
            },
            0x08 => Request::Fork {
                session: dec.get_u32()?,
            },
            0x09 => Request::FetchReport {
                session: dec.get_u32()?,
            },
            0x0A => Request::FetchTails {
                session: dec.get_u32()?,
            },
            0x0B => Request::CloseSession {
                session: dec.get_u32()?,
            },
            0x0C => Request::Shutdown,
            _ => return Err(dec.invalid("request tag")),
        };
        dec.expect_end()?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------------
// Responses (server → client control channel, tags 0x41..=0x4C)
// ---------------------------------------------------------------------------

/// Server → client control messages: exactly one per [`Request`], in
/// request order, never dropped.
///
/// Not `PartialEq` because [`PerfReport`] is not; compare round-trips
/// through the debug format, which is the report's golden byte-identity
/// surface anyway.
#[derive(Debug, Clone)]
pub enum Response {
    /// Accepts the handshake; carries the server's [`PROTOCOL_VERSION`].
    HelloAck {
        /// The server's protocol version.
        version: u32,
    },
    /// A session was created.
    SessionCreated {
        /// Id of the new session.
        session: u32,
    },
    /// Reply to `Step`/`RunUntil`: how far the session advanced.
    Progress {
        /// The session id echoed back.
        session: u32,
        /// Completions retired by this request.
        executed: u64,
        /// The session clock after the advance.
        now: SimTime,
        /// Completions retired over the session's lifetime.
        completed: u64,
        /// Commands still waiting in the source stream.
        remaining: u64,
    },
    /// Telemetry subscription installed.
    Subscribed {
        /// The session id echoed back.
        session: u32,
    },
    /// Telemetry subscription removed.
    Unsubscribed {
        /// The session id echoed back.
        session: u32,
    },
    /// A portable snapshot image of the session's current state.
    SnapshotImage {
        /// The session id echoed back.
        session: u32,
        /// [`ssdx_core::Snapshot`] bytes (parse with `Snapshot::from_bytes`).
        image: Vec<u8>,
    },
    /// A fork was created.
    Forked {
        /// The parent session id echoed back.
        parent: u32,
        /// Id of the new forked session.
        session: u32,
    },
    /// The full performance report of the completed run.
    Report {
        /// The session id echoed back.
        session: u32,
        /// The report, field-identical to an in-process run.
        report: Box<PerfReport>,
    },
    /// Per-class tail-latency summaries of the completed run.
    Tails {
        /// The session id echoed back.
        session: u32,
        /// One summary per [`CommandClass`], in `CommandClass::ALL` order.
        tails: Vec<TailSummary>,
    },
    /// The session was closed.
    Closed {
        /// The session id echoed back.
        session: u32,
    },
    /// Acknowledges `Shutdown`; also broadcast to every connection when
    /// the server begins draining.
    ShuttingDown,
    /// The request failed; the connection stays usable.
    Error {
        /// Failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Encodes the response as one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match *self {
            Response::HelloAck { version } => {
                enc.put_u8(0x41);
                enc.put_u32(version);
            }
            Response::SessionCreated { session } => {
                enc.put_u8(0x42);
                enc.put_u32(session);
            }
            Response::Progress {
                session,
                executed,
                now,
                completed,
                remaining,
            } => {
                enc.put_u8(0x43);
                enc.put_u32(session);
                enc.put_u64(executed);
                enc.put_time(now);
                enc.put_u64(completed);
                enc.put_u64(remaining);
            }
            Response::Subscribed { session } => {
                enc.put_u8(0x44);
                enc.put_u32(session);
            }
            Response::Unsubscribed { session } => {
                enc.put_u8(0x45);
                enc.put_u32(session);
            }
            Response::SnapshotImage { session, ref image } => {
                enc.put_u8(0x46);
                enc.put_u32(session);
                enc.put_len(image.len());
                enc.put_raw(image);
            }
            Response::Forked { parent, session } => {
                enc.put_u8(0x47);
                enc.put_u32(parent);
                enc.put_u32(session);
            }
            Response::Report {
                session,
                ref report,
            } => {
                enc.put_u8(0x48);
                enc.put_u32(session);
                put_report(&mut enc, report);
            }
            Response::Tails { session, ref tails } => {
                enc.put_u8(0x49);
                enc.put_u32(session);
                enc.put_len(tails.len());
                for t in tails {
                    put_tail(&mut enc, t);
                }
            }
            Response::Closed { session } => {
                enc.put_u8(0x4A);
                enc.put_u32(session);
            }
            Response::ShuttingDown => {
                enc.put_u8(0x4B);
            }
            Response::Error { code, ref message } => {
                enc.put_u8(0x4C);
                enc.put_u8(code.code());
                enc.put_str(message);
            }
        }
        enc.finish()
    }

    /// Decodes one frame payload.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on an unknown tag, malformed fields or
    /// trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Response, DecodeError> {
        let mut dec = Decoder::new(bytes);
        let resp = Response::decode_body(&mut dec)?;
        dec.expect_end()?;
        Ok(resp)
    }

    fn decode_body(dec: &mut Decoder<'_>) -> Result<Response, DecodeError> {
        Ok(match dec.get_u8()? {
            0x41 => Response::HelloAck {
                version: dec.get_u32()?,
            },
            0x42 => Response::SessionCreated {
                session: dec.get_u32()?,
            },
            0x43 => Response::Progress {
                session: dec.get_u32()?,
                executed: dec.get_u64()?,
                now: dec.get_time()?,
                completed: dec.get_u64()?,
                remaining: dec.get_u64()?,
            },
            0x44 => Response::Subscribed {
                session: dec.get_u32()?,
            },
            0x45 => Response::Unsubscribed {
                session: dec.get_u32()?,
            },
            0x46 => Response::SnapshotImage {
                session: dec.get_u32()?,
                image: {
                    let n = dec.get_len()?;
                    dec.get_raw(n)?.to_vec()
                },
            },
            0x47 => Response::Forked {
                parent: dec.get_u32()?,
                session: dec.get_u32()?,
            },
            0x48 => Response::Report {
                session: dec.get_u32()?,
                report: Box::new(get_report(dec)?),
            },
            0x49 => Response::Tails {
                session: dec.get_u32()?,
                tails: {
                    let n = dec.get_len()?;
                    let mut tails = Vec::with_capacity(n.min(16));
                    for _ in 0..n {
                        tails.push(get_tail(dec)?);
                    }
                    tails
                },
            },
            0x4A => Response::Closed {
                session: dec.get_u32()?,
            },
            0x4B => Response::ShuttingDown,
            0x4C => Response::Error {
                code: ErrorCode::decode(dec)?,
                message: dec.get_str()?,
            },
            _ => return Err(dec.invalid("response tag")),
        })
    }
}

// ---------------------------------------------------------------------------
// Telemetry (server → client lossy channel, tags 0x61..=0x63)
// ---------------------------------------------------------------------------

/// Server → client telemetry messages: fire-and-forget, droppable.
#[derive(Debug, Clone, PartialEq)]
pub enum Telemetry {
    /// One retired command (mirrors [`CommandRecord`]).
    Completion {
        /// Session the completion belongs to.
        session: u32,
        /// The completion record.
        record: CommandRecord,
    },
    /// A utilization sample (mirrors [`SessionSnapshot`]), emitted every
    /// `sample_every` completions of a subscription.
    Utilization {
        /// Session the sample belongs to.
        session: u32,
        /// The sampled session state.
        snapshot: SessionSnapshot,
    },
    /// The subscriber fell behind and the server dropped telemetry
    /// (oldest first). Control replies are never dropped.
    Dropped {
        /// Session whose telemetry was shed.
        session: u32,
        /// Number of messages dropped since the last marker.
        dropped: u64,
    },
}

impl Telemetry {
    /// Encodes the telemetry message as one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match *self {
            Telemetry::Completion {
                session,
                ref record,
            } => {
                enc.put_u8(0x61);
                enc.put_u32(session);
                put_record(&mut enc, record);
            }
            Telemetry::Utilization {
                session,
                ref snapshot,
            } => {
                enc.put_u8(0x62);
                enc.put_u32(session);
                put_session_snapshot(&mut enc, snapshot);
            }
            Telemetry::Dropped { session, dropped } => {
                enc.put_u8(0x63);
                enc.put_u32(session);
                enc.put_u64(dropped);
            }
        }
        enc.finish()
    }

    /// Decodes one frame payload.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on an unknown tag, malformed fields or
    /// trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Telemetry, DecodeError> {
        let mut dec = Decoder::new(bytes);
        let t = Telemetry::decode_body(&mut dec)?;
        dec.expect_end()?;
        Ok(t)
    }

    fn decode_body(dec: &mut Decoder<'_>) -> Result<Telemetry, DecodeError> {
        Ok(match dec.get_u8()? {
            0x61 => Telemetry::Completion {
                session: dec.get_u32()?,
                record: get_record(dec)?,
            },
            0x62 => Telemetry::Utilization {
                session: dec.get_u32()?,
                snapshot: get_session_snapshot(dec)?,
            },
            0x63 => Telemetry::Dropped {
                session: dec.get_u32()?,
                dropped: dec.get_u64()?,
            },
            _ => return Err(dec.invalid("telemetry tag")),
        })
    }
}

/// Any server → client frame: the tag byte selects the channel.
#[derive(Debug, Clone)]
pub enum ServerMessage {
    /// An ordered control reply.
    Response(Response),
    /// A lossy telemetry message.
    Telemetry(Telemetry),
}

impl ServerMessage {
    /// Decodes one server → client frame payload, dispatching on the tag.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on an unknown tag, malformed fields or
    /// trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<ServerMessage, DecodeError> {
        let mut dec = Decoder::new(bytes);
        match bytes.first() {
            Some(0x41..=0x4C) => {
                let r = Response::decode_body(&mut dec)?;
                dec.expect_end()?;
                Ok(ServerMessage::Response(r))
            }
            Some(0x61..=0x63) => {
                let t = Telemetry::decode_body(&mut dec)?;
                dec.expect_end()?;
                Ok(ServerMessage::Telemetry(t))
            }
            Some(_) => Err(dec.invalid("server message tag")),
            None => Err(DecodeError::UnexpectedEnd { offset: 0 }),
        }
    }
}

// ---------------------------------------------------------------------------
// Struct codecs
// ---------------------------------------------------------------------------

fn put_pattern(enc: &mut Encoder, pattern: AccessPattern) {
    enc.put_u8(match pattern {
        AccessPattern::SequentialWrite => 0,
        AccessPattern::SequentialRead => 1,
        AccessPattern::RandomWrite => 2,
        AccessPattern::RandomRead => 3,
    });
}

fn get_pattern(dec: &mut Decoder<'_>) -> Result<AccessPattern, DecodeError> {
    Ok(match dec.get_u8()? {
        0 => AccessPattern::SequentialWrite,
        1 => AccessPattern::SequentialRead,
        2 => AccessPattern::RandomWrite,
        3 => AccessPattern::RandomRead,
        _ => return Err(dec.invalid("access pattern")),
    })
}

fn put_op(enc: &mut Encoder, op: HostOp) {
    enc.put_u8(match op {
        HostOp::Read => 0,
        HostOp::Write => 1,
        HostOp::Trim => 2,
    });
}

fn get_op(dec: &mut Decoder<'_>) -> Result<HostOp, DecodeError> {
    Ok(match dec.get_u8()? {
        0 => HostOp::Read,
        1 => HostOp::Write,
        2 => HostOp::Trim,
        _ => return Err(dec.invalid("host op")),
    })
}

fn put_class(enc: &mut Encoder, class: CommandClass) {
    enc.put_u8(match class {
        CommandClass::Read => 0,
        CommandClass::Write => 1,
        CommandClass::Trim => 2,
    });
}

fn get_class(dec: &mut Decoder<'_>) -> Result<CommandClass, DecodeError> {
    Ok(match dec.get_u8()? {
        0 => CommandClass::Read,
        1 => CommandClass::Write,
        2 => CommandClass::Trim,
        _ => return Err(dec.invalid("command class")),
    })
}

fn put_utilization(enc: &mut Encoder, u: &UtilizationBreakdown) {
    enc.put_f64(u.host_link);
    enc.put_f64(u.dram);
    enc.put_f64(u.cpu);
    enc.put_f64(u.ahb);
    enc.put_f64(u.channel_bus);
    enc.put_f64(u.die);
}

fn get_utilization(dec: &mut Decoder<'_>) -> Result<UtilizationBreakdown, DecodeError> {
    Ok(UtilizationBreakdown {
        host_link: dec.get_f64()?,
        dram: dec.get_f64()?,
        cpu: dec.get_f64()?,
        ahb: dec.get_f64()?,
        channel_bus: dec.get_f64()?,
        die: dec.get_f64()?,
    })
}

fn put_record(enc: &mut Encoder, r: &CommandRecord) {
    enc.put_u64(r.index);
    enc.put_u64(r.command.id);
    put_op(enc, r.command.op);
    enc.put_u64(r.command.offset);
    enc.put_u32(r.command.bytes);
    enc.put_time(r.command.issue_at);
    enc.put_time(r.admitted_at);
    enc.put_time(r.completed_at);
}

fn get_record(dec: &mut Decoder<'_>) -> Result<CommandRecord, DecodeError> {
    Ok(CommandRecord {
        index: dec.get_u64()?,
        command: HostCommand {
            id: dec.get_u64()?,
            op: get_op(dec)?,
            offset: dec.get_u64()?,
            bytes: dec.get_u32()?,
            issue_at: dec.get_time()?,
        },
        admitted_at: dec.get_time()?,
        completed_at: dec.get_time()?,
    })
}

fn put_session_snapshot(enc: &mut Encoder, s: &SessionSnapshot) {
    enc.put_time(s.at);
    enc.put_u64(s.commands_completed);
    enc.put_u64(s.commands_remaining);
    enc.put_len(s.outstanding);
    enc.put_time(s.mean_latency);
    enc.put_u64(s.bytes);
    put_utilization(enc, &s.utilization);
}

fn get_session_snapshot(dec: &mut Decoder<'_>) -> Result<SessionSnapshot, DecodeError> {
    Ok(SessionSnapshot {
        at: dec.get_time()?,
        commands_completed: dec.get_u64()?,
        commands_remaining: dec.get_u64()?,
        outstanding: dec.get_len()?,
        mean_latency: dec.get_time()?,
        bytes: dec.get_u64()?,
        utilization: get_utilization(dec)?,
    })
}

fn put_tail(enc: &mut Encoder, t: &TailSummary) {
    put_class(enc, t.class);
    enc.put_u64(t.count);
    enc.put_time(t.mean);
    enc.put_time(t.p50);
    enc.put_time(t.p95);
    enc.put_time(t.p99);
    enc.put_time(t.p999);
    enc.put_time(t.max);
}

fn get_tail(dec: &mut Decoder<'_>) -> Result<TailSummary, DecodeError> {
    Ok(TailSummary {
        class: get_class(dec)?,
        count: dec.get_u64()?,
        mean: dec.get_time()?,
        p50: dec.get_time()?,
        p95: dec.get_time()?,
        p99: dec.get_time()?,
        p999: dec.get_time()?,
        max: dec.get_time()?,
    })
}

fn put_report(enc: &mut Encoder, r: &PerfReport) {
    enc.put_str(&r.config_name);
    enc.put_str(&r.architecture);
    enc.put_str(&r.workload);
    enc.put_str(&r.policy);
    enc.put_u64(r.commands);
    enc.put_u64(r.bytes);
    enc.put_time(r.elapsed);
    enc.put_f64(r.throughput_mbps);
    enc.put_f64(r.iops);
    enc.put_f64(r.waf);
    enc.put_u64(r.nand_page_programs);
    enc.put_u64(r.nand_page_reads);
    r.latency.encode_state(enc);
    put_utilization(enc, &r.utilization);
    r.class_latency.encode_state(enc);
}

fn get_report(dec: &mut Decoder<'_>) -> Result<PerfReport, DecodeError> {
    let config_name = dec.get_str()?;
    let architecture = dec.get_str()?;
    let workload = dec.get_str()?;
    let policy = dec.get_str()?;
    let commands = dec.get_u64()?;
    let bytes = dec.get_u64()?;
    let elapsed = dec.get_time()?;
    let throughput_mbps = dec.get_f64()?;
    let iops = dec.get_f64()?;
    let waf = dec.get_f64()?;
    let nand_page_programs = dec.get_u64()?;
    let nand_page_reads = dec.get_u64()?;
    let mut latency = Box::new(LatencyHistogram::new());
    latency.decode_state(dec)?;
    let utilization = get_utilization(dec)?;
    let mut class_latency = Box::new(ClassHistograms::new());
    class_latency.decode_state(dec)?;
    Ok(PerfReport {
        config_name,
        architecture,
        workload,
        policy,
        commands,
        bytes,
        elapsed,
        throughput_mbps,
        iops,
        waf,
        nand_page_programs,
        nand_page_reads,
        latency,
        utilization,
        class_latency,
    })
}
