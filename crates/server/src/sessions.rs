//! The session table: server-side lifecycle and isolation of simulated
//! devices.
//!
//! Every session is one [`SessionEntry`]: a live [`SimSession`] that owns
//! its platform and shares its command source ([`Ssd::into_session`]),
//! plus an optional telemetry subscriber. A
//! request costs only the simulation work it asks for: `Step`/`RunUntil`
//! advance the session in place, `CaptureSnapshot` encodes it, and `Fork`
//! copies it in memory ([`SimSession::duplicate`]). The two service
//! invariants hold as follows:
//!
//! * **observation is pure** — `FetchReport`/`FetchTails` run a
//!   duplicate to completion and *discard* it, so the hosted session is
//!   untouched and the same query repeats byte-identically;
//! * **failure is contained** — every operation runs under
//!   `catch_unwind`; a session that panics is discarded and reported as
//!   [`ErrorCode::SessionFailed`], and the server keeps serving.
//!
//! The price is memory: an idle session holds its whole simulation state
//! (platform, FTL maps), not a compact snapshot image — see
//! `--max-sessions` in docs/OPERATIONS.md. The command stream is not part
//! of it: the session reads each command from its generator as it steps,
//! and a fork shares the generator.
//!
//! Concurrency: the table lock is held only to check a session out or
//! in. While an operation runs, the slot is marked busy and other
//! requests for the *same* session wait on a condvar; different sessions
//! proceed in parallel, each on the connection thread that asked for it.

use crate::outbound::Outbound;
use crate::proto::{ErrorCode, Telemetry, WorkloadSpec};
use ssdx_core::{PerfReport, SimSession, Ssd, SsdConfig, TailSummary};
use ssdx_sim::SimTime;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// A failed session operation: the protocol error to send back.
#[derive(Debug, Clone)]
pub(crate) struct Failure {
    /// Machine-readable class.
    pub(crate) code: ErrorCode,
    /// Human-readable detail.
    pub(crate) message: String,
}

impl Failure {
    fn new(code: ErrorCode, message: impl Into<String>) -> Failure {
        Failure {
            code,
            message: message.into(),
        }
    }

    fn unknown_session(id: u32) -> Failure {
        Failure::new(ErrorCode::UnknownSession, format!("no session {id}"))
    }
}

/// How far [`SessionHost::advance`] should drive a session.
#[derive(Debug, Clone, Copy)]
pub(crate) enum AdvanceMode {
    /// Retire at most this many completions.
    Steps(u64),
    /// Run until the session clock reaches the deadline.
    Until(SimTime),
}

/// What an advance accomplished (the `Progress` reply fields).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Advance {
    pub(crate) executed: u64,
    pub(crate) now: SimTime,
    pub(crate) completed: u64,
    pub(crate) remaining: u64,
}

/// A telemetry subscription: where to send, and how often to sample
/// utilization.
struct Subscriber {
    outbound: Arc<Outbound>,
    sample_every: u64,
}

/// One hosted session.
struct SessionEntry {
    session: SimSession<'static>,
    subscriber: Option<Subscriber>,
}

enum Slot {
    /// Checked out by an in-flight operation; waiters queue on the
    /// table condvar.
    Busy,
    Ready(Box<SessionEntry>),
}

struct TableState {
    next_id: u32,
    slots: BTreeMap<u32, Slot>,
}

/// The shared session table.
pub(crate) struct SessionHost {
    state: Mutex<TableState>,
    cv: Condvar,
    max_sessions: usize,
}

impl SessionHost {
    /// Creates an empty table admitting at most `max_sessions` sessions.
    pub(crate) fn new(max_sessions: usize) -> SessionHost {
        SessionHost {
            state: Mutex::new(TableState {
                next_id: 1,
                slots: BTreeMap::new(),
            }),
            cv: Condvar::new(),
            max_sessions: max_sessions.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, TableState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of live sessions.
    pub(crate) fn len(&self) -> usize {
        self.lock().slots.len()
    }

    /// Creates a session; returns its id and the command count. A full
    /// table refuses it before the config text is even parsed.
    pub(crate) fn create(
        &self,
        config_text: &str,
        spec: &WorkloadSpec,
    ) -> Result<(u32, u64), Failure> {
        self.has_room(&self.lock())?;
        let config = SsdConfig::from_text(config_text)
            .map_err(|e| Failure::new(ErrorCode::BadConfig, e.to_string()))?;
        let source = spec
            .build()
            .map_err(|e| Failure::new(ErrorCode::BadWorkload, e))?;
        let session = contain_panic(|| {
            Ssd::try_new(config)
                .map(|ssd| ssd.into_session(source))
                .map_err(|e| Failure::new(ErrorCode::BadConfig, e.to_string()))
        })??;
        let remaining = session.remaining();
        let id = self.insert(Box::new(SessionEntry {
            session,
            subscriber: None,
        }))?;
        Ok((id, remaining))
    }

    /// Advances a session, emitting telemetry to its subscriber.
    pub(crate) fn advance(&self, id: u32, mode: AdvanceMode) -> Result<Advance, Failure> {
        self.with_entry(id, |entry| {
            let SessionEntry {
                session,
                subscriber,
            } = entry;
            let mut executed = 0u64;
            loop {
                match mode {
                    AdvanceMode::Steps(n) => {
                        if executed >= n {
                            break;
                        }
                    }
                    AdvanceMode::Until(deadline) => {
                        if session.is_done() || session.now() >= deadline {
                            break;
                        }
                    }
                }
                let Some(record) = session.step() else { break };
                executed += 1;
                if let Some(sub) = subscriber {
                    sub.outbound.send_telemetry(
                        id,
                        Telemetry::Completion {
                            session: id,
                            record,
                        }
                        .encode(),
                    );
                    if sub.sample_every > 0 && session.completed() % sub.sample_every == 0 {
                        sub.outbound.send_telemetry(
                            id,
                            Telemetry::Utilization {
                                session: id,
                                snapshot: session.snapshot(),
                            }
                            .encode(),
                        );
                    }
                }
            }
            Ok(Advance {
                executed,
                now: session.now(),
                completed: session.completed(),
                remaining: session.remaining(),
            })
        })
    }

    /// Installs (or replaces) the session's telemetry subscriber.
    pub(crate) fn subscribe(
        &self,
        id: u32,
        outbound: Arc<Outbound>,
        sample_every: u64,
    ) -> Result<(), Failure> {
        self.with_entry(id, |entry| {
            entry.subscriber = Some(Subscriber {
                outbound,
                sample_every,
            });
            Ok(())
        })
    }

    /// Removes the session's telemetry subscriber, if any.
    pub(crate) fn unsubscribe(&self, id: u32) -> Result<(), Failure> {
        self.with_entry(id, |entry| {
            entry.subscriber = None;
            Ok(())
        })
    }

    /// Returns the session's current snapshot image bytes.
    pub(crate) fn capture(&self, id: u32) -> Result<Vec<u8>, Failure> {
        self.with_entry(id, |entry| Ok(entry.session.capture().into_bytes()))
    }

    /// Forks a session: the new session is an in-memory copy of the
    /// parent's current state; the parent is untouched. Returns the new id.
    /// A full table refuses it before the parent is copied.
    pub(crate) fn fork(&self, id: u32) -> Result<u32, Failure> {
        self.has_room(&self.lock())?;
        let child = self.with_entry(id, |entry| {
            Ok(Box::new(SessionEntry {
                session: entry.session.duplicate(),
                subscriber: None,
            }))
        })?;
        self.insert(child)
    }

    /// Runs the session to completion *on a duplicate* and returns the
    /// full report. The hosted session does not move: fetching twice, or
    /// stepping further and fetching again, behaves exactly like the
    /// equivalent in-process run.
    pub(crate) fn report(&self, id: u32) -> Result<PerfReport, Failure> {
        self.with_entry(id, |entry| Ok(entry.session.duplicate().finish()))
    }

    /// Per-class tail summaries of the completed run (see
    /// [`report`](Self::report) for the purity contract).
    pub(crate) fn tails(&self, id: u32) -> Result<[TailSummary; 3], Failure> {
        self.report(id).map(|r| r.tails())
    }

    /// Closes a session, discarding its state.
    pub(crate) fn close(&self, id: u32) -> Result<(), Failure> {
        // Wait for any in-flight operation, then remove the busy marker.
        let entry = self.checkout(id)?;
        drop(entry);
        self.lock().slots.remove(&id);
        self.cv.notify_all();
        Ok(())
    }

    /// Refuses a new session when the table is full. `create` and `fork`
    /// ask before they build anything; `insert` asks again under the lock
    /// that admits the session, for the race between the two.
    fn has_room(&self, state: &TableState) -> Result<(), Failure> {
        if state.slots.len() < self.max_sessions {
            Ok(())
        } else {
            Err(Failure::new(
                ErrorCode::SessionLimit,
                format!("session limit ({}) reached", self.max_sessions),
            ))
        }
    }

    fn insert(&self, entry: Box<SessionEntry>) -> Result<u32, Failure> {
        let mut state = self.lock();
        self.has_room(&state)?;
        let id = state.next_id;
        state.next_id += 1;
        state.slots.insert(id, Slot::Ready(entry));
        Ok(id)
    }

    fn checkout(&self, id: u32) -> Result<Box<SessionEntry>, Failure> {
        let mut state = self.lock();
        loop {
            let Some(slot) = state.slots.get_mut(&id) else {
                return Err(Failure::unknown_session(id));
            };
            match std::mem::replace(slot, Slot::Busy) {
                Slot::Ready(entry) => return Ok(entry),
                Slot::Busy => {
                    state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    fn checkin(&self, id: u32, entry: Box<SessionEntry>) {
        self.lock().slots.insert(id, Slot::Ready(entry));
        self.cv.notify_all();
    }

    /// Checks the session out, runs `f` under a panic guard, checks it
    /// back in — or discards it if `f` panicked, reporting
    /// [`ErrorCode::SessionFailed`].
    fn with_entry<R>(
        &self,
        id: u32,
        f: impl FnOnce(&mut SessionEntry) -> Result<R, Failure>,
    ) -> Result<R, Failure> {
        let mut entry = self.checkout(id)?;
        match contain_panic(|| f(&mut entry)) {
            Ok(result) => {
                self.checkin(id, entry);
                result
            }
            Err(failure) => {
                // The entry's state is suspect after a panic: discard it.
                drop(entry);
                self.lock().slots.remove(&id);
                self.cv.notify_all();
                Err(failure)
            }
        }
    }
}

/// Runs `f` under `catch_unwind`, translating a panic into a
/// [`ErrorCode::SessionFailed`] failure carrying the panic message.
pub(crate) fn contain_panic<R>(f: impl FnOnce() -> R) -> Result<R, Failure> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "session panicked".to_owned()
        };
        Failure::new(
            ErrorCode::SessionFailed,
            format!("session failed: {message}"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdx_hostif::{source_fn, AccessPattern, HostCommand, HostOp};
    use std::sync::atomic::{AtomicBool, Ordering};

    fn small_config_text() -> String {
        SsdConfig::builder("host-test")
            .topology(2, 2, 1)
            .seed(7)
            .build()
            .unwrap()
            .to_text()
    }

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec::Basic {
            pattern: AccessPattern::RandomWrite,
            block_size: 4096,
            command_count: 64,
            footprint_bytes: 1 << 20,
            seed: 11,
        }
    }

    #[test]
    fn create_step_report_close() {
        let host = SessionHost::new(8);
        let (id, remaining) = host.create(&small_config_text(), &small_spec()).unwrap();
        assert_eq!(remaining, 64);
        let adv = host.advance(id, AdvanceMode::Steps(10)).unwrap();
        assert_eq!(adv.executed, 10);
        assert_eq!(adv.completed, 10);
        assert_eq!(adv.remaining, 54);
        let report = host.report(id).unwrap();
        assert_eq!(report.commands, 64);
        // Observation is pure: fetching again is byte-identical and the
        // session has not moved.
        let again = host.report(id).unwrap();
        assert_eq!(format!("{report:?}"), format!("{again:?}"));
        let adv = host.advance(id, AdvanceMode::Steps(0)).unwrap();
        assert_eq!(adv.completed, 10);
        host.close(id).unwrap();
        assert_eq!(host.close(id).unwrap_err().code, ErrorCode::UnknownSession);
    }

    #[test]
    fn bad_config_and_bad_workload_are_protocol_errors() {
        let host = SessionHost::new(8);
        let err = host.create("channels = 0\n", &small_spec()).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadConfig);
        let bad = WorkloadSpec::Zipfian {
            theta: 1.5,
            seed: 1,
            command_count: 16,
            block_size: 4096,
            footprint_bytes: 1 << 20,
            read_fraction: 0.5,
        };
        let err = host.create(&small_config_text(), &bad).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadWorkload);
    }

    #[test]
    fn the_command_cap_is_checked_before_the_stream_exists() {
        use crate::proto::MAX_SESSION_COMMANDS;
        // Every variant, sized by `commands`; `Rmw` rounds up to pairs.
        let specs = |commands: u64| {
            vec![
                WorkloadSpec::Basic {
                    pattern: AccessPattern::SequentialWrite,
                    block_size: 4096,
                    command_count: commands,
                    footprint_bytes: 1 << 20,
                    seed: 1,
                },
                WorkloadSpec::Zipfian {
                    theta: 0.9,
                    seed: 1,
                    command_count: commands,
                    block_size: 4096,
                    footprint_bytes: 1 << 20,
                    read_fraction: 0.3,
                },
                WorkloadSpec::Bursty {
                    seed: 1,
                    command_count: commands,
                    block_size: 4096,
                    footprint_bytes: 1 << 20,
                    read_fraction: 0.3,
                    burst_len: 8,
                    inter_arrival: SimTime::from_us(1),
                    idle_gap: SimTime::from_us(100),
                },
                WorkloadSpec::MixedSize {
                    sizes: vec![(4096, 1)],
                    seed: 1,
                    command_count: commands,
                    footprint_bytes: 1 << 20,
                    read_fraction: 0.3,
                },
                WorkloadSpec::Rmw {
                    seed: 1,
                    updates: commands.div_ceil(2),
                    block_size: 4096,
                    footprint_bytes: 1 << 20,
                },
            ]
        };
        // `build` generates no commands, so accepting the cap costs
        // nothing here.
        for spec in specs(MAX_SESSION_COMMANDS) {
            assert!(spec.build().is_ok(), "{spec:?} is at the cap");
        }
        // One past the cap; for `Rmw` that is 2^23 + 1 updates, so an
        // update counts as its two commands.
        for spec in specs(MAX_SESSION_COMMANDS + 1) {
            let err = spec.build().err().expect("one past the cap");
            assert!(err.contains("cap"), "{err}");
        }
    }

    #[test]
    fn fault_config_rides_in_the_config_text() {
        // Fault injection needs no wire change: the degraded-device keys
        // travel inside the CreateSession config text, and two sessions
        // created from the same faulty text stay byte-deterministic.
        let text = ssdx_core::SsdConfig::builder("degraded")
            .topology(2, 2, 1)
            .ftl_mode(ssdx_core::FtlMode::PageMapped)
            .seed(7)
            .faults(ssdx_core::FaultConfig {
                read_disturb_per_read: 0.05,
                retention_scale: 2.0,
                retire_pe_limit: 3,
                power_loss_at: 24,
            })
            .build()
            .unwrap()
            .to_text();
        for key in [
            "read_disturb",
            "retention_scale",
            "retire_pe_limit",
            "power_loss_at",
        ] {
            assert!(text.contains(key), "config text must carry `{key}`");
        }
        let host = SessionHost::new(8);
        let (a, _) = host.create(&text, &small_spec()).unwrap();
        let (b, _) = host.create(&text, &small_spec()).unwrap();
        host.advance(a, AdvanceMode::Steps(64)).unwrap();
        host.advance(b, AdvanceMode::Steps(64)).unwrap();
        let ra = host.report(a).unwrap();
        let rb = host.report(b).unwrap();
        assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
    }

    #[test]
    fn session_limit_is_enforced() {
        let host = SessionHost::new(1);
        let (id, _) = host.create(&small_config_text(), &small_spec()).unwrap();
        let err = host
            .create(&small_config_text(), &small_spec())
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::SessionLimit);
        // The cap is checked before anything is built: text that does not
        // even parse is refused for the cap, and so is a fork.
        let malformed = "this is not config text\n";
        assert!(SsdConfig::from_text(malformed).is_err());
        let err = host.create(malformed, &small_spec()).unwrap_err();
        assert_eq!(err.code, ErrorCode::SessionLimit);
        assert_eq!(host.fork(id).unwrap_err().code, ErrorCode::SessionLimit);
    }

    #[test]
    fn fork_matches_continuous_run() {
        let host = SessionHost::new(8);
        let (a, _) = host.create(&small_config_text(), &small_spec()).unwrap();
        host.advance(a, AdvanceMode::Steps(20)).unwrap();
        let b = host.fork(a).unwrap();
        let ra = host.report(a).unwrap();
        let rb = host.report(b).unwrap();
        assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
    }

    #[test]
    fn a_panicking_session_is_discarded_not_fatal() {
        // A source that panics on command 6 once armed: a live session
        // failing mid-`advance`, the hostile case `WorkloadSpec` validation
        // cannot reach. Opening a session reads the whole source for its
        // bounds, so the panic is armed only after the session is built.
        let armed = Arc::new(AtomicBool::new(false));
        let trigger = Arc::clone(&armed);
        let source = source_fn("panicking", 64, move |i| {
            if i == 6 && trigger.load(Ordering::Relaxed) {
                panic!("injected session failure");
            }
            HostCommand {
                id: i,
                op: HostOp::Write,
                offset: i * 4096,
                bytes: 4096,
                issue_at: SimTime::ZERO,
            }
        });
        let config = SsdConfig::from_text(&small_config_text()).unwrap();
        let session = Ssd::try_new(config).unwrap().into_session(Arc::new(source));
        armed.store(true, Ordering::Relaxed);

        let host = SessionHost::new(8);
        let id = host
            .insert(Box::new(SessionEntry {
                session,
                subscriber: None,
            }))
            .unwrap();
        host.advance(id, AdvanceMode::Steps(4)).unwrap();
        let err = host.advance(id, AdvanceMode::Steps(8)).unwrap_err();
        assert_eq!(err.code, ErrorCode::SessionFailed);
        assert!(err.message.contains("injected session failure"));
        // The broken session is gone; the host still serves new ones.
        assert_eq!(
            host.advance(id, AdvanceMode::Steps(1)).unwrap_err().code,
            ErrorCode::UnknownSession
        );
        assert_eq!(host.len(), 0);
        let (id2, _) = host.create(&small_config_text(), &small_spec()).unwrap();
        let adv = host.advance(id2, AdvanceMode::Steps(8)).unwrap();
        assert_eq!((adv.executed, adv.completed), (8, 8));
    }
}
