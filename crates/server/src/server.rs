//! The `ssdx-server` TCP frontend: accept loop, per-connection threads
//! and request dispatch.
//!
//! Thread shape: one acceptor, two threads per connection (a reader that
//! decodes requests and waits for replies, a writer that drains the
//! connection's `Outbound` queue), and a bounded `WorkerPool` that
//! runs every session operation. The reader blocks on its request's
//! reply before reading the next frame, which gives the control channel
//! its ordered, exactly-one-reply-per-request discipline by
//! construction.
//!
//! Shutdown (a `Shutdown` request or [`Server::shutdown`]) is graceful:
//! the acceptor stops admitting connections, the worker pool drains every
//! queued job, each connection is sent a final `ShuttingDown` control
//! frame, and the writers flush before the sockets close.

use crate::frame::{read_frame, write_frame};
use crate::outbound::Outbound;
use crate::pool::WorkerPool;
use crate::proto::{ErrorCode, Request, Response, PROTOCOL_VERSION};
use crate::sessions::{AdvanceMode, Failure, SessionHost};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// A sink for server log lines (the library never prints directly).
pub type LogSink = Box<dyn Write + Send>;

/// Tunables for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to listen on. Port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub bind: String,
    /// Worker threads executing session operations.
    pub workers: usize,
    /// Maximum concurrently live sessions. Each hosted session keeps its
    /// whole simulation state in memory (platform, FTL maps), so this cap
    /// also bounds the server's memory. The command stream is not part of
    /// it: a session reads its commands from the generator one at a time,
    /// so its size does not grow with its command count. What it does grow
    /// with is the platform's topology and, in page-mapped mode, the
    /// footprint the FTL maps.
    pub max_sessions: usize,
    /// Per-connection telemetry queue capacity (messages) before the
    /// drop-oldest policy sheds load.
    pub telemetry_queue: usize,
    /// Maximum accepted frame payload size in bytes.
    pub max_frame_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bind: "127.0.0.1:7070".to_owned(),
            workers: 4,
            max_sessions: 1024,
            telemetry_queue: 256,
            max_frame_bytes: crate::frame::MAX_FRAME_BYTES,
        }
    }
}

struct ConnHandle {
    stream: TcpStream,
    outbound: Arc<Outbound>,
    reader: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
    finished: Arc<AtomicBool>,
}

struct Shared {
    cfg: ServerConfig,
    host: SessionHost,
    pool: WorkerPool,
    stopping: AtomicBool,
    conns: Mutex<Vec<ConnHandle>>,
    log: Mutex<Option<LogSink>>,
    local_addr: SocketAddr,
}

impl Shared {
    fn log(&self, line: &str) {
        let mut sink = self.log.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(sink) = sink.as_mut() {
            let _ = writeln!(sink, "ssdx-server: {line}");
            let _ = sink.flush();
        }
    }
}

/// A running simulation server.
///
/// Bind one, hand clients [`Server::local_addr`], and call
/// [`Server::wait`] to block until a `Shutdown` request (or a
/// [`Server::shutdown`] call) has fully drained it.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and starts serving in background threads.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from binding the listen address.
    pub fn bind(cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.bind)?;
        let local_addr = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            host: SessionHost::new(cfg.max_sessions),
            pool: WorkerPool::new(workers),
            stopping: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            log: Mutex::new(None),
            local_addr,
            cfg,
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ssdx-acceptor".to_owned())
                .spawn(move || accept_loop(&shared, &listener))?
        };
        Ok(Server {
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Routes server log lines (connection lifecycle, protocol errors)
    /// into `sink`. Without a sink the server is silent.
    pub fn set_log(&self, sink: LogSink) {
        *self.shared.log.lock().unwrap_or_else(|e| e.into_inner()) = Some(sink);
    }

    /// Number of live sessions (for monitoring).
    pub fn session_count(&self) -> usize {
        self.shared.host.len()
    }

    /// Triggers a graceful shutdown without blocking: equivalent to a
    /// client sending `Shutdown`.
    pub fn shutdown(&self) {
        trigger_shutdown(&self.shared);
    }

    /// Blocks until the server has shut down and every thread is joined.
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` reserves room for surfacing
    /// fatal accept-loop errors.
    pub fn wait(mut self) -> io::Result<()> {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        Ok(())
    }
}

fn trigger_shutdown(shared: &Shared) {
    if shared.stopping.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.host.drain();
    // Unblock the acceptor: it re-checks `stopping` after every accept.
    let _ = TcpStream::connect(shared.local_addr);
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    shared.log(&format!("listening on {}", shared.local_addr));
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                if shared.stopping.load(Ordering::SeqCst) {
                    break;
                }
                reap_finished(shared);
                match spawn_connection(shared, stream) {
                    Ok(()) => shared.log(&format!("connection from {peer}")),
                    Err(e) => shared.log(&format!("connection from {peer} failed: {e}")),
                }
            }
            Err(e) => {
                if shared.stopping.load(Ordering::SeqCst) {
                    break;
                }
                shared.log(&format!("accept error: {e}"));
            }
        }
    }
    drain(shared);
}

/// Joins connections whose reader has already exited, keeping the
/// registry bounded on long-running servers.
fn reap_finished(shared: &Shared) {
    let mut conns = shared.conns.lock().unwrap_or_else(|e| e.into_inner());
    let mut i = 0;
    while i < conns.len() {
        if conns[i].finished.load(Ordering::SeqCst) {
            let mut conn = conns.swap_remove(i);
            conn.outbound.close();
            join_conn(&mut conn);
        } else {
            i += 1;
        }
    }
}

fn join_conn(conn: &mut ConnHandle) {
    if let Some(h) = conn.reader.take() {
        let _ = h.join();
    }
    if let Some(h) = conn.writer.take() {
        let _ = h.join();
    }
}

/// The graceful-shutdown tail, run by the acceptor after its loop exits:
/// drain queued session work, notify and close every connection, join.
fn drain(shared: &Shared) {
    shared.log("shutting down: draining in-flight work");
    shared.pool.shutdown();
    let mut conns = std::mem::take(&mut *shared.conns.lock().unwrap_or_else(|e| e.into_inner()));
    for conn in &conns {
        // Broadcast the drain, then stop the inbound side. The reader —
        // which may still be delivering the reply of an in-flight
        // request — closes the outbound queue itself on exit, so control
        // replies are flushed, never dropped, even here.
        conn.outbound.send_control(Response::ShuttingDown.encode());
        let _ = conn.stream.shutdown(Shutdown::Read);
    }
    for conn in &mut conns {
        join_conn(conn);
    }
    shared.log("shutdown complete");
}

fn spawn_connection(shared: &Arc<Shared>, stream: TcpStream) -> io::Result<()> {
    // Replies are small and latency-bound: never let Nagle's algorithm
    // hold one back waiting for the client's delayed ACK.
    stream.set_nodelay(true)?;
    let outbound = Arc::new(Outbound::new(shared.cfg.telemetry_queue));
    let finished = Arc::new(AtomicBool::new(false));
    let writer = {
        let stream = stream.try_clone()?;
        let outbound = Arc::clone(&outbound);
        std::thread::Builder::new()
            .name("ssdx-conn-writer".to_owned())
            .spawn(move || writer_loop(stream, &outbound))?
    };
    let reader = {
        let stream = stream.try_clone()?;
        let shared = Arc::clone(shared);
        let outbound = Arc::clone(&outbound);
        let finished = Arc::clone(&finished);
        std::thread::Builder::new()
            .name("ssdx-conn-reader".to_owned())
            .spawn(move || {
                reader_loop(&shared, stream, &outbound);
                outbound.close();
                finished.store(true, Ordering::SeqCst);
            })?
    };
    shared
        .conns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(ConnHandle {
            stream,
            outbound,
            reader: Some(reader),
            writer: Some(writer),
            finished,
        });
    Ok(())
}

fn writer_loop(mut stream: TcpStream, outbound: &Outbound) {
    while let Some(frame) = outbound.next() {
        if write_frame(&mut stream, &frame).is_err() {
            break;
        }
    }
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Write);
}

fn reader_loop(shared: &Arc<Shared>, mut stream: TcpStream, outbound: &Arc<Outbound>) {
    let max_frame = shared.cfg.max_frame_bytes;
    // Handshake: the first frame must be `Hello` with a matching version.
    match next_request(&mut stream, max_frame, outbound) {
        Some(Request::Hello { version }) if version == PROTOCOL_VERSION => {
            outbound.send_control(
                Response::HelloAck {
                    version: PROTOCOL_VERSION,
                }
                .encode(),
            );
        }
        Some(Request::Hello { version }) => {
            shared.log(&format!("rejected version {version} handshake"));
            outbound.send_control(
                error_response(
                    ErrorCode::VersionMismatch,
                    format!("server speaks version {PROTOCOL_VERSION}, client sent {version}"),
                )
                .encode(),
            );
            return;
        }
        Some(_) => {
            outbound.send_control(
                error_response(
                    ErrorCode::MalformedRequest,
                    "the first frame must be Hello".to_owned(),
                )
                .encode(),
            );
            return;
        }
        None => return,
    }
    while let Some(request) = next_request(&mut stream, max_frame, outbound) {
        let stop = matches!(request, Request::Shutdown);
        let response = dispatch(shared, outbound, request);
        outbound.send_control(response.encode());
        if stop {
            trigger_shutdown(shared);
            break;
        }
    }
}

/// Reads and decodes the next request frame. A frame that decodes badly
/// (but was length-delimited correctly) earns an error reply and a retry;
/// a framing-level error desynchronises the stream, earns a best-effort
/// error reply, and closes the connection. Returns `None` when the
/// connection is done.
fn next_request(
    stream: &mut TcpStream,
    max_frame: usize,
    outbound: &Arc<Outbound>,
) -> Option<Request> {
    loop {
        match read_frame(stream, max_frame) {
            Ok(Some(payload)) => match Request::decode(&payload) {
                Ok(request) => return Some(request),
                Err(e) => {
                    outbound.send_control(
                        error_response(ErrorCode::MalformedRequest, e.to_string()).encode(),
                    );
                }
            },
            Ok(None) => return None,
            Err(e) => {
                if e.kind() == io::ErrorKind::InvalidData {
                    outbound.send_control(
                        error_response(ErrorCode::MalformedRequest, e.to_string()).encode(),
                    );
                }
                return None;
            }
        }
    }
}

fn error_response(code: ErrorCode, message: String) -> Response {
    Response::Error { code, message }
}

fn failure_response(failure: Failure) -> Response {
    Response::Error {
        code: failure.code,
        message: failure.message,
    }
}

/// Executes one request, scheduling session work onto the worker pool
/// and blocking until its reply is ready.
fn dispatch(shared: &Arc<Shared>, outbound: &Arc<Outbound>, request: Request) -> Response {
    match request {
        Request::Hello { .. } => error_response(
            ErrorCode::MalformedRequest,
            "Hello is only valid as the first frame".to_owned(),
        ),
        Request::Shutdown => Response::ShuttingDown,
        other => run_session_job(shared, outbound, other),
    }
}

fn run_session_job(shared: &Arc<Shared>, outbound: &Arc<Outbound>, request: Request) -> Response {
    if shared.stopping.load(Ordering::SeqCst) {
        return error_response(
            ErrorCode::ShuttingDown,
            "the server is shutting down".to_owned(),
        );
    }
    let (tx, rx) = mpsc::channel();
    let job_shared = Arc::clone(shared);
    let job_outbound = Arc::clone(outbound);
    let queued = shared.pool.submit(Box::new(move || {
        let response = execute(&job_shared, &job_outbound, request);
        let _ = tx.send(response);
    }));
    if !queued {
        return error_response(
            ErrorCode::ShuttingDown,
            "the server is shutting down".to_owned(),
        );
    }
    rx.recv().unwrap_or_else(|_| {
        error_response(
            ErrorCode::SessionFailed,
            "the session operation did not complete".to_owned(),
        )
    })
}

/// The worker-side request handlers: every arm is a [`SessionHost`] call
/// translated to its protocol reply.
fn execute(shared: &Shared, outbound: &Arc<Outbound>, request: Request) -> Response {
    let host = &shared.host;
    let result = match request {
        Request::CreateSession { config, workload } => host
            .create(&config, &workload)
            .map(|(session, _)| Response::SessionCreated { session }),
        Request::Step { session, commands } => host
            .advance(session, AdvanceMode::Steps(commands))
            .map(|a| progress(session, a)),
        Request::RunUntil { session, deadline } => host
            .advance(session, AdvanceMode::Until(deadline))
            .map(|a| progress(session, a)),
        Request::Subscribe {
            session,
            sample_every,
        } => host
            .subscribe(session, Arc::clone(outbound), sample_every)
            .map(|()| Response::Subscribed { session }),
        Request::Unsubscribe { session } => host
            .unsubscribe(session)
            .map(|()| Response::Unsubscribed { session }),
        Request::CaptureSnapshot { session } => host
            .capture(session)
            .map(|image| Response::SnapshotImage { session, image }),
        Request::Fork { session } => host.fork(session).map(|child| Response::Forked {
            parent: session,
            session: child,
        }),
        Request::FetchReport { session } => host.report(session).map(|report| Response::Report {
            session,
            report: Box::new(report),
        }),
        Request::FetchTails { session } => host.tails(session).map(|tails| Response::Tails {
            session,
            tails: tails.to_vec(),
        }),
        Request::CloseSession { session } => {
            host.close(session).map(|()| Response::Closed { session })
        }
        // Hello and Shutdown are handled on the connection thread.
        Request::Hello { .. } | Request::Shutdown => {
            return error_response(
                ErrorCode::MalformedRequest,
                "not a session operation".to_owned(),
            )
        }
    };
    match result {
        Ok(response) => response,
        Err(failure) => {
            shared.log(&format!(
                "request failed: {} ({})",
                failure.code, failure.message
            ));
            failure_response(failure)
        }
    }
}

fn progress(session: u32, a: crate::sessions::Advance) -> Response {
    Response::Progress {
        session,
        executed: a.executed,
        now: a.now,
        completed: a.completed,
        remaining: a.remaining,
    }
}
