//! The `ssdx-server` TCP frontend: accept loop, per-connection threads
//! and request execution.
//!
//! Thread shape: one acceptor and two threads per connection: a reader
//! that decodes each request and runs it, and a writer that drains the
//! connection's `Outbound` queue. The reader queues a request's reply
//! before reading the next frame, which gives the control channel its
//! ordered, exactly-one-reply-per-request discipline by construction.
//! A session operation runs only while its reader holds one of the
//! `workers` permits, which are granted in arrival order.
//!
//! Shutdown (a `Shutdown` request or [`Server::shutdown`]) is graceful:
//! the acceptor stops admitting connections and no permit is granted any
//! more; once every running operation has queued its reply and returned
//! its permit, each connection is sent a final `ShuttingDown` control
//! frame, and the writers flush before the sockets close.

use crate::frame::{read_frame, write_frame};
use crate::outbound::Outbound;
use crate::proto::{ErrorCode, Request, Response, PROTOCOL_VERSION};
use crate::sessions::{contain_panic, AdvanceMode, Failure, SessionHost};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// A sink for server log lines (the library never prints directly).
pub type LogSink = Box<dyn Write + Send>;

/// Tunables for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to listen on. Port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub bind: String,
    /// How many session operations run at once (at least one). Each runs
    /// on the connection thread that read it; further requests wait
    /// their turn in arrival order.
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
    permits: Permits,
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

/// The `workers` cap on running session operations: a counter and a
/// condvar. Each caller takes a ticket and is admitted in ticket order,
/// and once shutdown has begun no permit is granted. An admitted caller
/// returns its permit with [`Permits::release`].
struct Permits {
    state: Mutex<PermitState>,
    cv: Condvar,
    limit: usize,
}

struct PermitState {
    /// The ticket the next caller takes.
    next_ticket: u64,
    /// The ticket whose turn it is.
    turn: u64,
    /// Permits held.
    running: usize,
    /// Set once shutdown has begun.
    closed: bool,
}

impl Permits {
    fn new(limit: usize) -> Permits {
        Permits {
            state: Mutex::new(PermitState {
                next_ticket: 0,
                turn: 0,
                running: 0,
                closed: false,
            }),
            cv: Condvar::new(),
            limit: limit.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, PermitState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Waits for the caller's turn and a free permit. Returns `false` if
    /// the turn comes after shutdown has begun; the turn passes on.
    fn admit(&self) -> bool {
        let mut state = self.lock();
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        while ticket != state.turn || (!state.closed && state.running >= self.limit) {
            state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        state.turn += 1;
        let admitted = !state.closed;
        if admitted {
            state.running += 1;
        }
        drop(state);
        // The next ticket's turn has come.
        self.cv.notify_all();
        admitted
    }

    fn release(&self) {
        self.lock().running -= 1;
        self.cv.notify_all();
    }

    /// Grants no further permit. Returns `false` if shutdown had already
    /// begun.
    fn close(&self) -> bool {
        let was_open = !std::mem::replace(&mut self.lock().closed, true);
        self.cv.notify_all();
        was_open
    }

    fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Blocks until no permit is held.
    fn wait_idle(&self) {
        let mut state = self.lock();
        while state.running > 0 {
            state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
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
        let shared = Arc::new(Shared {
            host: SessionHost::new(cfg.max_sessions),
            permits: Permits::new(cfg.workers),
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
    if shared.permits.close() {
        // Unblock the acceptor: it re-checks for shutdown after every
        // accept.
        let _ = TcpStream::connect(shared.local_addr);
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    shared.log(&format!("listening on {}", shared.local_addr));
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                if shared.permits.is_closed() {
                    break;
                }
                reap_finished(shared);
                match spawn_connection(shared, stream) {
                    Ok(()) => shared.log(&format!("connection from {peer}")),
                    Err(e) => shared.log(&format!("connection from {peer} failed: {e}")),
                }
            }
            Err(e) => {
                if shared.permits.is_closed() {
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
/// wait for running session work, notify and close every connection,
/// join.
fn drain(shared: &Shared) {
    shared.log("shutting down: draining in-flight work");
    // Every operation queues its reply before it returns its permit, so
    // once none is held no reply can follow the broadcast.
    shared.permits.wait_idle();
    let mut conns = std::mem::take(&mut *shared.conns.lock().unwrap_or_else(|e| e.into_inner()));
    for conn in &conns {
        // Broadcast the drain, then stop the inbound side. The reader
        // closes the outbound queue itself on exit, so control replies
        // are flushed, never dropped, even here.
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
        match request {
            Request::Hello { .. } => outbound.send_control(
                error_response(
                    ErrorCode::MalformedRequest,
                    "Hello is only valid as the first frame".to_owned(),
                )
                .encode(),
            ),
            Request::Shutdown => {
                outbound.send_control(Response::ShuttingDown.encode());
                trigger_shutdown(shared);
                break;
            }
            request => serve(shared, outbound, || {
                execute(&shared.host, outbound, request)
            }),
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

/// Runs one session operation on the calling connection thread: it waits
/// for a permit, runs `op` under a panic guard and queues the reply
/// before the permit is returned, so the shutdown broadcast (sent once no
/// permit is held) never overtakes a reply.
fn serve(shared: &Shared, outbound: &Outbound, op: impl FnOnce() -> Result<Response, Failure>) {
    if !shared.permits.admit() {
        outbound.send_control(
            error_response(
                ErrorCode::ShuttingDown,
                "the server is shutting down".to_owned(),
            )
            .encode(),
        );
        return;
    }
    // `SessionHost` discards a session that panics. This guard covers the
    // rest of the request, such as parsing a new session's config, so a
    // panic there still earns a reply and the connection stays usable.
    let response = match contain_panic(op) {
        Ok(Ok(response)) => response,
        Ok(Err(failure)) | Err(failure) => {
            shared.log(&format!(
                "request failed: {} ({})",
                failure.code, failure.message
            ));
            failure_response(failure)
        }
    };
    outbound.send_control(response.encode());
    shared.permits.release();
}

/// The session request handlers: every arm is a [`SessionHost`] call
/// translated to its protocol reply.
fn execute(
    host: &SessionHost,
    outbound: &Arc<Outbound>,
    request: Request,
) -> Result<Response, Failure> {
    match request {
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
        // Hello and Shutdown never reach here: the reader answers them.
        Request::Hello { .. } | Request::Shutdown => Err(Failure {
            code: ErrorCode::MalformedRequest,
            message: "not a session operation".to_owned(),
        }),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ServerMessage;

    fn test_shared(workers: usize) -> Shared {
        Shared {
            cfg: ServerConfig::default(),
            host: SessionHost::new(1),
            permits: Permits::new(workers),
            conns: Mutex::new(Vec::new()),
            log: Mutex::new(None),
            local_addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        }
    }

    fn next_response(outbound: &Outbound) -> Response {
        let frame = outbound.next().expect("a queued reply");
        match ServerMessage::decode(&frame).expect("replies decode") {
            ServerMessage::Response(response) => response,
            other => panic!("expected a control reply, got {other:?}"),
        }
    }

    /// Waits until `tickets` tickets have been handed out.
    fn wait_for_tickets(permits: &Permits, tickets: u64) {
        while permits.lock().next_ticket < tickets {
            std::thread::yield_now();
        }
    }

    #[test]
    fn permits_are_granted_in_arrival_order() {
        let permits = Permits::new(1);
        let order = Mutex::new(Vec::new());
        assert!(permits.admit());
        std::thread::scope(|s| {
            for waiter in 1..=3 {
                let (permits, order) = (&permits, &order);
                s.spawn(move || {
                    assert!(permits.admit());
                    order.lock().unwrap().push(waiter);
                    permits.release();
                });
                // The next waiter arrives only once this one holds a ticket.
                wait_for_tickets(permits, waiter + 1);
            }
            permits.release();
        });
        assert_eq!(order.into_inner().unwrap(), [1, 2, 3]);
    }

    #[test]
    fn shutdown_refuses_waiting_and_new_work_and_waits_for_running_work() {
        let permits = Permits::new(1);
        assert!(permits.admit());
        std::thread::scope(|s| {
            let waiter = s.spawn(|| permits.admit());
            wait_for_tickets(&permits, 2);
            assert!(permits.close());
            assert!(!permits.close(), "shutdown begins once");
            assert!(!waiter.join().unwrap(), "a waiter is refused, not admitted");
            assert!(!permits.admit(), "so is a new arrival");
            let idle = s.spawn(|| permits.wait_idle());
            assert!(!idle.is_finished(), "one operation still runs");
            permits.release();
            idle.join().unwrap();
        });
        assert_eq!(permits.lock().running, 0);
    }

    #[test]
    fn every_session_request_earns_exactly_one_reply() {
        let shared = test_shared(1);
        let outbound = Outbound::new(1);
        // A panic outside the session guard still earns a reply, and its
        // permit comes back: with one permit the next request would
        // otherwise wait forever.
        serve(&shared, &outbound, || panic!("injected request failure"));
        serve(&shared, &outbound, || Ok(Response::Closed { session: 7 }));
        // After shutdown has begun a request is answered without running.
        assert!(shared.permits.close());
        serve(&shared, &outbound, || panic!("must not run"));
        match next_response(&outbound) {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::SessionFailed);
                assert!(message.contains("injected request failure"), "{message}");
            }
            other => panic!("expected a session-failed reply, got {other:?}"),
        }
        assert!(matches!(
            next_response(&outbound),
            Response::Closed { session: 7 }
        ));
        assert!(matches!(
            next_response(&outbound),
            Response::Error {
                code: ErrorCode::ShuttingDown,
                ..
            }
        ));
        outbound.close();
        assert!(outbound.next().is_none(), "one reply per request");
    }
}
