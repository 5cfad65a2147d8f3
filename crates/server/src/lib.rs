//! Simulation-as-a-service for SSDExplorer: a multi-session TCP server,
//! its wire protocol, a client library and a load generator.
//!
//! The in-process API ([`ssdx_core::SimSession`]) drives one simulated
//! device per borrow; this crate multiplexes *many* concurrent sessions
//! behind a versioned binary protocol so that remote clients can create,
//! step, fork and measure devices over a socket — the ROADMAP's "many
//! users" axis. The wire format reuses [`ssdx_sim::codec`]'s
//! LEB128-varint, never-panicking codec; the normative spec is
//! `docs/PROTOCOL.md` and the operator guide is `docs/OPERATIONS.md`.
//!
//! Module map:
//!
//! * [`frame`] — length-prefixed framing with a hostile-length cap;
//! * [`proto`] — `Request`/`Response`/`Telemetry` messages + codecs;
//! * [`server`] — the TCP frontend: acceptor, connection threads that
//!   run the session work they read under a `--workers` cap, graceful
//!   drain;
//! * [`client`] — a blocking protocol client;
//! * [`load`] — the load generator behind `ssdx-loadgen`.
//!
//! # Quickstart
//!
//! ```no_run
//! use ssdx_server::{Client, Server, ServerConfig, WorkloadSpec};
//! use ssdx_hostif::AccessPattern;
//!
//! let server = Server::bind(ServerConfig {
//!     bind: "127.0.0.1:0".to_owned(),
//!     ..ServerConfig::default()
//! })?;
//! let mut client = Client::connect(server.local_addr())?;
//! let config = ssdx_core::SsdConfig::builder("demo").build()?.to_text();
//! let session = client.create_session(
//!     &config,
//!     &WorkloadSpec::Basic {
//!         pattern: AccessPattern::RandomWrite,
//!         block_size: 4096,
//!         command_count: 4096,
//!         footprint_bytes: 1 << 30,
//!         seed: 42,
//!     },
//! )?;
//! let report = client.fetch_report(session)?;
//! println!("{}", report.summary_line());
//! client.shutdown_server()?;
//! server.wait()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Determinism: a session is a live [`ssdx_core::SimSession`] that owns
//! its platform and stays in memory between requests; `Step`/`RunUntil`
//! advance it in place, and `Fork` and report fetches work on in-memory
//! copies. The same config text + workload spec therefore produce a
//! [`ssdx_core::PerfReport`] byte-identical to `Ssd::simulate`, no
//! matter how the run is sliced into `Step`/`RunUntil`/`Fork` requests.

pub mod client;
pub mod frame;
pub mod load;
pub mod proto;
pub mod server;

mod outbound;
mod sessions;

pub use client::{Client, ClientError, SessionProgress};
pub use load::{LoadgenConfig, LoadgenReport};
pub use proto::{
    ErrorCode, Request, Response, ServerMessage, Telemetry, WorkloadSpec, PROTOCOL_VERSION,
};
pub use server::{LogSink, Server, ServerConfig};
