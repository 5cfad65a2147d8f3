//! Steppable simulation sessions.
//!
//! [`Ssd::session`] turns any [`CommandSource`]
//! into a [`SimSession`]: an
//! in-flight simulation that can be advanced one command at a time
//! ([`step`](SimSession::step)), up to a simulated deadline
//! ([`run_until`](SimSession::run_until)), or to completion
//! ([`finish`](SimSession::finish)). Mid-run state is observable as it
//! happens: `step` returns each command's completion record, and
//! [`snapshot`](SimSession::snapshot) samples protocol-window occupancy,
//! latency and per-component utilization whenever the caller asks. So
//! design-space exploration can sample latency and queue depth *during* a
//! run instead of only post-hoc, which is the fine-grained visibility the
//! paper's platform is built around.
//!
//! # Example
//!
//! ```
//! use ssdx_core::{Ssd, SsdConfig};
//! use ssdx_hostif::{AccessPattern, Workload};
//!
//! let mut ssd = Ssd::try_new(SsdConfig::default())?;
//! let workload = Workload::builder(AccessPattern::SequentialWrite)
//!     .command_count(64)
//!     .build();
//! let mut session = ssd.session(&workload);
//! let (mut records, mut samples) = (Vec::new(), Vec::new());
//! while let Some(record) = session.step() {
//!     records.push(record);
//!     if session.completed() % 16 == 0 {
//!         samples.push(session.snapshot());
//!     }
//! }
//! let report = session.finish();
//! assert_eq!(records.len(), 64);
//! assert_eq!(samples.len(), 4);
//! assert_eq!(report.commands, 64);
//! # Ok::<(), ssdx_core::ConfigError>(())
//! ```

use crate::config::{CachePolicy, FtlMode};
use crate::metrics::{ClassHistograms, LatencyHistogram, SteadyStateCutoff};
use crate::report::{PerfReport, UtilizationBreakdown};
use crate::snapshot::{self, Snapshot};
use crate::ssd::Ssd;
use ssdx_compress::{CompressorModel, CompressorPlacement};
use ssdx_dram::AccessKind;
use ssdx_ftl::{PageMappedFtl, WorkloadMix};
use ssdx_hostif::{CommandSource, HostCommand, HostOp};
use ssdx_nand::NandOp;
use ssdx_sim::codec::{DecodeError, Decoder, Encoder};
use ssdx_sim::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// One completed host command, as returned by [`SimSession::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandRecord {
    /// Zero-based position of the command in the source stream.
    pub index: u64,
    /// The command itself.
    pub command: HostCommand,
    /// Instant the command was admitted past the protocol queue window.
    pub admitted_at: SimTime,
    /// Instant its completion was notified to the host.
    pub completed_at: SimTime,
}

impl CommandRecord {
    /// Host-visible latency of the command (admission to completion).
    pub fn latency(&self) -> SimTime {
        self.completed_at.saturating_sub(self.admitted_at)
    }
}

/// A mid-run sample of the session, as produced by
/// [`SimSession::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionSnapshot {
    /// Simulated instant of the sample (latest host-visible completion).
    pub at: SimTime,
    /// Commands completed so far.
    pub commands_completed: u64,
    /// Commands still waiting in the source stream.
    pub commands_remaining: u64,
    /// Completions currently tracked inside the protocol queue window.
    pub outstanding: usize,
    /// Mean host-visible latency over the commands completed so far.
    pub mean_latency: SimTime,
    /// Host payload bytes moved so far.
    pub bytes: u64,
    /// Per-component utilization over the activity horizon so far.
    pub utilization: UtilizationBreakdown,
}

pub(crate) use storage::{Platform, Source};

/// Where a session keeps its platform and its command source. A private
/// module, so the `Deref` plumbing stays out of the public API surface.
mod storage {
    use crate::ssd::Ssd;
    use ssdx_hostif::CommandSource;
    use std::ops::{Deref, DerefMut};
    use std::sync::Arc;

    /// The platform a session drives: borrowed from the caller
    /// ([`Ssd::session`]) or owned by the session ([`Ssd::into_session`],
    /// [`SimSession::duplicate`](super::SimSession::duplicate)). The
    /// pipeline reaches it through `Deref`, so both kinds run the same code.
    pub(crate) enum Platform<'a> {
        Borrowed(&'a mut Ssd),
        Owned(Box<Ssd>),
    }

    impl Deref for Platform<'_> {
        type Target = Ssd;

        #[inline]
        fn deref(&self) -> &Ssd {
            match self {
                Platform::Borrowed(ssd) => ssd,
                Platform::Owned(ssd) => ssd,
            }
        }
    }

    impl DerefMut for Platform<'_> {
        #[inline]
        fn deref_mut(&mut self) -> &mut Ssd {
            match self {
                Platform::Borrowed(ssd) => ssd,
                Platform::Owned(ssd) => ssd,
            }
        }
    }

    /// The source a session reads its commands from: the caller's, borrowed
    /// for the session's lifetime ([`Ssd::session`]), or shared through an
    /// `Arc` ([`Ssd::into_session`]). A session's
    /// [`duplicate`](super::SimSession::duplicate)s read it the same way.
    pub(crate) enum Source<'a> {
        Borrowed(&'a dyn CommandSource),
        Shared(Arc<dyn CommandSource>),
    }

    impl<'a> Deref for Source<'a> {
        type Target = dyn CommandSource + 'a;

        #[inline]
        fn deref(&self) -> &(dyn CommandSource + 'a) {
            match self {
                Source::Borrowed(source) => *source,
                Source::Shared(source) => &**source,
            }
        }
    }
}

/// An in-flight simulation of one command stream on one [`Ssd`].
///
/// Created by [`Ssd::session`]; drop-in equivalent to the one-shot
/// [`Ssd::simulate`] when driven straight to [`finish`](SimSession::finish)
/// — stepping produces byte-identical reports, which the integration suite
/// asserts. The session holds the per-run pipeline state (protocol window,
/// DRAM back-pressure ledger, WAF carry, latency histograms, optional
/// page-mapped FTL), while the platform holds the component models.
///
/// # Streaming
///
/// A session holds its [`CommandSource`] and a cursor, and reads command
/// `cursor` from the source at each step: no run holds a copy of its
/// stream, so memory does not grow with run length. The source's
/// [`bounds`](CommandSource::bounds) size the per-run state when the
/// session opens.
///
/// # Borrowed and owned sessions
///
/// [`Ssd::session`] borrows the platform and the source for `'a`.
/// [`Ssd::into_session`] returns a session that owns its platform and
/// shares its source through an `Arc`, so it borrows nothing and can
/// outlive its creator — stored as a `SimSession<'static>` and sent to
/// another thread, as `ssdx-server` does with the sessions it hosts. A
/// [`duplicate`](Self::duplicate) owns a clone of the platform and reads
/// the same source as its original, shared or borrowed. All kinds run the
/// same pipeline and produce the same records and reports.
///
/// # Determinism
///
/// A session is fully deterministic: given the same configuration
/// (including `config.seed`, from which every component RNG stream is
/// forked) and the same command stream, `step`-ing in any granularity —
/// one command at a time, in [`run_until`](Self::run_until) slices, or
/// straight to [`finish`](Self::finish) — produces the same
/// [`CommandRecord`]s and a byte-identical [`PerfReport`]. Neither wall
/// clock nor thread identity ever enters the simulation, which is what lets
/// the [`ParallelExecutor`](crate::ParallelExecutor) run whole sessions on
/// worker threads without changing any result. The full platform-wide
/// contract (seeding rules, per-point derivation, parallel byte-identity)
/// is documented once, on [`Explorer`](crate::Explorer#determinism).
#[must_use = "a session simulates nothing until stepped or finished"]
pub struct SimSession<'a> {
    ssd: Platform<'a>,
    label: String,
    source: Source<'a>,
    /// `source.len()`, read once at open.
    len: u64,
    cursor: u64,
    queue_depth: usize,
    buffer_capacity: u64,
    waf: f64,
    compressor: Option<CompressorModel>,
    ftl: Option<PageMappedFtl>,
    window: BinaryHeap<Reverse<SimTime>>,
    in_flight: BinaryHeap<Reverse<(SimTime, u64)>>,
    in_flight_bytes: u64,
    waf_carry: f64,
    /// Completions the steady-state cutoff admits, per command class.
    classes: ClassHistograms,
    /// Every other completion. `classes` and `warmup` together hold each
    /// completion exactly once.
    warmup: LatencyHistogram,
    steady_state: SteadyStateCutoff,
    total_bytes: u64,
    last_completion: SimTime,
}

impl<'a> SimSession<'a> {
    /// Opens a session over `source`, which supplies the label, the FTL
    /// workload mix and the bounds that size the per-run state.
    pub(crate) fn new(mut ssd: Platform<'a>, source: Source<'a>) -> Self {
        let label = source.label();
        let mix = WorkloadMix::mixed(source.random_write_fraction());
        let len = source.len();
        let bounds = source.bounds();
        ssd.reset_activity();

        let queue_depth = ssd.config().queue_depth() as usize;
        let page_bytes = ssd.config().nand.geometry.page_size_bytes;
        let waf = ssd.config().waf.waf(mix);
        let buffer_capacity = ssd.config().dram_buffers as u64 * ssd.config().dram_buffer_capacity;
        let compressor = ssd.config().compressor.build();

        // In page-mapped mode an actual FTL is instantiated, sized to cover
        // the logical footprint the command stream touches (plus the
        // configured over-provisioning), and its garbage collection issues
        // real NAND operations that compete with host traffic.
        let ftl: Option<PageMappedFtl> = if ssd.config().ftl_mode == FtlMode::PageMapped {
            let logical_pages = bounds.max_end.div_ceil(page_bytes as u64).max(1);
            let pages_per_block = ssd.config().nand.geometry.pages_per_block as u64;
            let blocks = ((logical_pages as f64 * (1.0 + ssd.config().waf.over_provisioning)
                / pages_per_block as f64)
                .ceil() as u32)
                .max(8)
                + 8;
            Some(
                PageMappedFtl::new(
                    blocks,
                    ssd.config().nand.geometry.pages_per_block,
                    ssd.config().waf.over_provisioning,
                )
                .with_retire_limit(ssd.config().faults.retire_pe_limit),
            )
        } else {
            None
        };

        // Pre-size the per-run queues to their provable high-water marks so
        // `step` never allocates: the protocol window holds at most
        // `queue_depth` completions, and the DRAM back-pressure ledger holds
        // at most one entry per buffered write — bounded by the aggregate
        // buffer capacity divided by the smallest write in the stream
        // (clamped by the command count for short streams).
        let window = BinaryHeap::with_capacity(queue_depth + 1);
        let in_flight_bound = match bounds.min_write_bytes {
            Some(bytes) => len.min(buffer_capacity / bytes as u64 + 2) as usize + 1,
            None => 1, // no writes: the ledger stays empty
        };
        let in_flight = BinaryHeap::with_capacity(in_flight_bound);
        SimSession {
            ssd,
            label,
            source,
            len,
            cursor: 0,
            queue_depth,
            buffer_capacity,
            waf,
            compressor,
            ftl,
            window,
            in_flight,
            in_flight_bytes: 0,
            waf_carry: 0.0,
            classes: ClassHistograms::new(),
            warmup: LatencyHistogram::new(),
            steady_state: SteadyStateCutoff::None,
            total_bytes: 0,
            last_completion: SimTime::ZERO,
        }
    }

    /// Sets the steady-state cutoff for the per-class tail-latency
    /// histograms: completions the cutoff rejects are treated as warmup and
    /// excluded from the report's
    /// [`class_latency`](crate::PerfReport::class_latency).
    ///
    /// The whole-run [`latency`](crate::PerfReport::latency) histogram
    /// merges the warmup back in, so every pre-existing report field stays
    /// byte-identical regardless of the configured warmup.
    pub fn steady_state(&mut self, cutoff: SteadyStateCutoff) {
        self.steady_state = cutoff;
    }

    /// Latest host-visible completion instant (zero before the first step).
    pub fn now(&self) -> SimTime {
        self.last_completion
    }

    /// Commands completed so far.
    pub fn completed(&self) -> u64 {
        self.cursor
    }

    /// Commands still waiting in the stream.
    pub fn remaining(&self) -> u64 {
        self.len - self.cursor
    }

    /// `true` once every command in the stream has been executed.
    pub fn is_done(&self) -> bool {
        self.cursor >= self.len
    }

    /// A mid-run sample of latency, queue occupancy and per-component
    /// utilization, computed over the activity horizon so far.
    pub fn snapshot(&self) -> SessionSnapshot {
        let horizon = self.ssd.activity_horizon(self.last_completion);
        SessionSnapshot {
            at: self.last_completion,
            commands_completed: self.cursor,
            commands_remaining: self.remaining(),
            outstanding: self.window.len(),
            mean_latency: self.whole_run_latency().mean(),
            bytes: self.total_bytes,
            utilization: self.ssd.utilization_snapshot(horizon),
        }
    }

    /// Captures the full simulation state — the platform plus this
    /// session's in-flight state — as a versioned [`Snapshot`].
    ///
    /// A later [`fork`](Self::fork) from the same configuration and
    /// command source resumes exactly where this session stands: the
    /// forked run's remaining steps, completion records and final report
    /// are byte-identical to continuing this session
    /// (`tests/snapshot_equivalence.rs` pins this).
    ///
    /// This is the serialization counterpart of the mid-run sample
    /// [`snapshot`](Self::snapshot): `snapshot` summarises observable
    /// progress, `capture` serialises resumable state.
    pub fn capture(&self) -> Snapshot {
        let mut enc = Encoder::new();
        snapshot::encode_header(&mut enc, self.ssd.config());
        self.ssd.encode_state(&mut enc);
        enc.put_bool(true);
        enc.put_u64(self.cursor);
        // Both heaps are serialised in sorted order so that equal states
        // encode to equal bytes regardless of heap-internal layout.
        let mut window: Vec<SimTime> = self.window.iter().map(|r| r.0).collect();
        window.sort_unstable();
        enc.put_len(window.len());
        for t in window {
            enc.put_time(t);
        }
        let mut in_flight: Vec<(SimTime, u64)> = self.in_flight.iter().map(|r| r.0).collect();
        in_flight.sort_unstable();
        enc.put_len(in_flight.len());
        for (flushed_at, bytes) in in_flight {
            enc.put_time(flushed_at);
            enc.put_u64(bytes);
        }
        enc.put_f64(self.waf_carry);
        self.classes.encode_state(&mut enc);
        self.warmup.encode_state(&mut enc);
        match self.steady_state {
            SteadyStateCutoff::None => enc.put_u8(0),
            SteadyStateCutoff::Commands(n) => {
                enc.put_u8(1);
                enc.put_u64(n);
            }
            SteadyStateCutoff::SimulatedTime(t) => {
                enc.put_u8(2);
                enc.put_time(t);
            }
        }
        enc.put_u64(self.total_bytes);
        enc.put_time(self.last_completion);
        match &self.ftl {
            Some(f) => {
                enc.put_bool(true);
                f.encode_state(&mut enc);
            }
            None => enc.put_bool(false),
        }
        Snapshot::from_encoder(enc)
    }

    /// Opens a session on `ssd` over `source` and restores it to the state
    /// `snapshot` was captured at, so stepping it continues the captured
    /// run exactly.
    ///
    /// The platform must be built from the same configuration (topology
    /// and seed are checked via the snapshot's platform signature) and
    /// `source` must be the same command source the captured session was
    /// running. The image stores the cursor, not the stream: the fork opens
    /// a session on `source` and seeks to the cursor, so its cost does not
    /// depend on how far into the stream the image was captured.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the image is malformed or truncated,
    /// was captured from a different topology or seed, lacks session state
    /// (restore those with [`Ssd::restore`]), or disagrees with the
    /// session's derived geometry (cursor past the stream end, FTL
    /// presence mismatch). On error the platform may hold
    /// partially-restored state; fork again or discard it.
    pub fn fork<S: CommandSource + ?Sized>(
        ssd: &'a mut Ssd,
        source: &'a S,
        snapshot: &Snapshot,
    ) -> Result<SimSession<'a>, DecodeError> {
        let mut session = ssd.session(source);
        session.restore_from(snapshot)?;
        Ok(session)
    }

    /// Copies the session in memory: a new session that owns a clone of the
    /// platform, carries every piece of in-flight state and reads the same
    /// commands. Stepping either one never moves the other, and each
    /// continues exactly as this session would have — the in-memory
    /// counterpart of [`capture`](Self::capture) followed by
    /// [`fork`](Self::fork), without the encode/decode round trip.
    ///
    /// The copy reads the same source: a session that shares its source
    /// ([`Ssd::into_session`], or a duplicate of one) hands the copy the
    /// same `Arc`, and a session that borrows its source ([`Ssd::session`])
    /// lends the copy the same borrow. Neither copies the stream.
    pub fn duplicate(&self) -> SimSession<'a> {
        let source = match &self.source {
            Source::Shared(source) => Source::Shared(Arc::clone(source)),
            Source::Borrowed(source) => Source::Borrowed(*source),
        };
        SimSession {
            ssd: Platform::Owned(Box::new(Ssd::clone(&self.ssd))),
            label: self.label.clone(),
            source,
            len: self.len,
            cursor: self.cursor,
            queue_depth: self.queue_depth,
            buffer_capacity: self.buffer_capacity,
            waf: self.waf,
            compressor: self.compressor,
            ftl: self.ftl.clone(),
            window: self.window.clone(),
            in_flight: self.in_flight.clone(),
            in_flight_bytes: self.in_flight_bytes,
            waf_carry: self.waf_carry,
            classes: self.classes,
            warmup: self.warmup,
            steady_state: self.steady_state,
            total_bytes: self.total_bytes,
            last_completion: self.last_completion,
        }
    }

    fn restore_from(&mut self, snap: &Snapshot) -> Result<(), DecodeError> {
        let mut dec = Decoder::new(snap.to_bytes());
        snapshot::decode_header(&mut dec, self.ssd.config())?;
        self.ssd.decode_state(&mut dec)?;
        if !dec.get_bool()? {
            return Err(dec.invalid("snapshot has no session state; restore it with Ssd::restore"));
        }
        let cursor = dec.get_u64()?;
        if cursor > self.len {
            return Err(dec.invalid("session cursor past the command stream end"));
        }
        self.cursor = cursor;
        let window_len = dec.get_len()?;
        self.window.clear();
        let mut prev = SimTime::ZERO;
        for _ in 0..window_len {
            let t = dec.get_time()?;
            if t < prev {
                return Err(dec.invalid("protocol-window entries out of order"));
            }
            prev = t;
            self.window.push(Reverse(t));
        }
        let in_flight_len = dec.get_len()?;
        self.in_flight.clear();
        self.in_flight_bytes = 0;
        let mut prev = (SimTime::ZERO, 0u64);
        for _ in 0..in_flight_len {
            let entry = (dec.get_time()?, dec.get_u64()?);
            if entry < prev {
                return Err(dec.invalid("in-flight entries out of order"));
            }
            prev = entry;
            self.in_flight_bytes += entry.1;
            self.in_flight.push(Reverse(entry));
        }
        self.waf_carry = dec.get_f64()?;
        self.classes.decode_state(&mut dec)?;
        self.warmup.decode_state(&mut dec)?;
        self.steady_state = match dec.get_u8()? {
            0 => SteadyStateCutoff::None,
            1 => SteadyStateCutoff::Commands(dec.get_u64()?),
            2 => SteadyStateCutoff::SimulatedTime(dec.get_time()?),
            _ => return Err(dec.invalid("steady-state cutoff tag")),
        };
        self.total_bytes = dec.get_u64()?;
        self.last_completion = dec.get_time()?;
        let has_ftl = dec.get_bool()?;
        match (&mut self.ftl, has_ftl) {
            (Some(f), true) => f.decode_state(&mut dec)?,
            (None, false) => {}
            _ => return Err(dec.invalid("FTL presence mismatch")),
        }
        dec.expect_end()
    }

    /// Executes the next command through the full pipeline, returning its
    /// completion record, or `None` when the stream is exhausted.
    pub fn step(&mut self) -> Option<CommandRecord> {
        if self.cursor >= self.len {
            return None;
        }
        let index = self.cursor;
        let cmd = self.source.command(index);
        self.cursor += 1;

        let (admitted_at, completed_at) = self.execute(&cmd);

        // Deterministic power-loss injection: once the configured number of
        // commands has completed, the FTL's volatile state is dropped
        // mid-garbage-collection and rebuilt by the recovery replay. The
        // trigger is the monotonic command index — already captured by the
        // snapshot cursor — so the fault fires exactly once and identically
        // on warm-started and forked runs.
        if index + 1 == self.ssd.config().faults.power_loss_at {
            self.inject_power_loss(completed_at);
        }

        self.window.push(Reverse(completed_at));
        let latency = completed_at.saturating_sub(admitted_at);
        if self.steady_state.admits(index, completed_at) {
            self.classes.record(cmd.op, latency);
        } else {
            self.warmup.record(latency);
        }
        if cmd.op != HostOp::Trim {
            self.total_bytes += cmd.bytes as u64;
        }
        self.last_completion = self.last_completion.max(completed_at);

        Some(CommandRecord {
            index,
            command: cmd,
            admitted_at,
            completed_at,
        })
    }

    /// Cuts power mid-garbage-collection and replays the recovery. The
    /// collector is interrupted half-way through a victim block (pages
    /// relocated, erase never issued), the volatile FTL state — mapping
    /// table, free pool, open blocks — is discarded, and everything is
    /// rebuilt from the out-of-band journal. The rebuild is charged to the
    /// firmware CPU as one scan task per recovered block's worth of live
    /// mappings, so the outage shows up in the latency of the commands that
    /// follow. No-op in [`FtlMode::Waf`] mode, where no real mapping exists.
    fn inject_power_loss(&mut self, at: SimTime) {
        let pages_per_block = self.ssd.config().nand.geometry.pages_per_block;
        let Some(f) = self.ftl.as_mut() else {
            return;
        };
        f.interrupt_reclaim((pages_per_block / 2).max(1));
        let live = f.recover_from_power_loss();
        let scan_tasks = 1 + live / pages_per_block.max(1) as u64;
        let mut cursor = at;
        for _ in 0..scan_tasks {
            cursor = self.ssd.cpus[0].execute_command_overhead(cursor).end;
        }
        self.last_completion = self.last_completion.max(cursor);
    }

    /// Steps until the stream is exhausted or the simulated clock
    /// ([`now`](Self::now)) reaches `deadline`, returning the number of
    /// commands executed. Commands are atomic: the command whose completion
    /// crosses the deadline is still executed in full.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut executed = 0;
        while !self.is_done() && self.last_completion < deadline {
            if self.step().is_none() {
                break;
            }
            executed += 1;
        }
        executed
    }

    /// Drains the remaining commands and produces the final report.
    pub fn finish(mut self) -> PerfReport {
        while self.step().is_some() {}
        let reported_waf = match &self.ftl {
            Some(f) => f.stats().waf(),
            None => self.waf,
        };
        self.ssd.build_report(
            &self.label,
            self.len,
            self.total_bytes,
            self.last_completion,
            reported_waf,
            self.whole_run_latency(),
            self.classes,
        )
    }

    /// Every completion so far: the steady-state classes merged with the
    /// warmup.
    fn whole_run_latency(&self) -> LatencyHistogram {
        let mut latency = self.classes.total();
        latency.merge(&self.warmup);
        latency
    }

    /// Pushes one command through the pipeline, returning its admission and
    /// host-visible completion instants.
    fn execute(&mut self, cmd: &HostCommand) -> (SimTime, SimTime) {
        let page_bytes = self.ssd.config().nand.geometry.page_size_bytes;
        let raw_page_bytes = self.ssd.config().nand.geometry.raw_page_bytes();
        let pages_per_block = u64::from(self.ssd.config().nand.geometry.pages_per_block);

        // --- Admission: protocol queue window ----------------------------
        let mut admit = cmd.issue_at;
        if self.window.len() >= self.queue_depth {
            if let Some(Reverse(earliest)) = self.window.pop() {
                admit = admit.max(earliest);
            }
        }

        let completion = match cmd.op {
            HostOp::Write => {
                // --- DRAM-buffer back-pressure ---------------------------
                while self.in_flight_bytes + cmd.bytes as u64 > self.buffer_capacity {
                    match self.in_flight.pop() {
                        Some(Reverse((flushed_at, bytes))) => {
                            admit = admit.max(flushed_at);
                            self.in_flight_bytes -= bytes;
                        }
                        None => break,
                    }
                }

                // --- Host link + DMA into the DRAM buffer ----------------
                let host_payload = match self.compressor {
                    Some(c) if c.placement == CompressorPlacement::HostSide => {
                        c.output_bytes(cmd.bytes)
                    }
                    _ => cmd.bytes,
                };
                let transfer = self.ssd.host_transfer_time(cmd.bytes);
                let link = self.ssd.host_link.reserve(admit, transfer);
                let host_side_comp_done = match self.compressor {
                    Some(c) if c.placement == CompressorPlacement::HostSide => {
                        link.end + c.compress_time(cmd.bytes)
                    }
                    _ => link.end,
                };
                let buf = (cmd.id % self.ssd.dram.len() as u64) as usize;
                let dram_done = self.ssd.dram[buf]
                    .access(
                        host_side_comp_done,
                        cmd.offset,
                        host_payload,
                        AccessKind::Write,
                    )
                    .end;

                // --- Firmware + descriptor traffic on the AHB -------------
                let core = (cmd.id % self.ssd.cpus.len() as u64) as usize;
                let fw = self.ssd.cpus[core].execute_command_overhead(admit.max(link.start));
                let desc_bytes = 4 * self.ssd.cpus[core].bus_accesses_per_task() * 4;
                let ahb_done = self
                    .ssd
                    .ahb
                    .transfer(fw.start, core as u32, 0, desc_bytes)
                    .end;
                let ready = dram_done.max(fw.end).max(ahb_done);

                // --- Optional channel-side compression --------------------
                let (nand_payload, comp_done) = match self.compressor {
                    Some(c) if c.placement == CompressorPlacement::ChannelSide => (
                        c.output_bytes(host_payload),
                        ready + c.compress_time(host_payload),
                    ),
                    _ => (host_payload, ready),
                };

                // --- Translate into physical NAND programs ----------------
                let mut last_nand = comp_done;
                if let Some(f) = self.ftl.as_mut() {
                    // Actual FTL: map every logical page, and charge the
                    // relocations and erases its garbage collector performs
                    // as real NAND operations.
                    let logical_pages = cmd.bytes.div_ceil(page_bytes).max(1);
                    for i in 0..logical_pages {
                        let lpn = cmd.offset / page_bytes as u64 + i as u64;
                        let (location, relocations, erases) = {
                            let before = f.stats();
                            let location = f.write(lpn).ok();
                            let after = f.stats();
                            (
                                location,
                                after.gc_relocations - before.gc_relocations,
                                after.erases - before.erases,
                            )
                        };
                        // FTL blocks are superblocks striped over the whole
                        // array (see `PageAllocator::locate`).
                        let target = match location {
                            Some((blk, page)) => self
                                .ssd
                                .allocator
                                .locate(u64::from(blk) * pages_per_block + u64::from(page)),
                            None => self.ssd.allocator.next_write(),
                        };
                        let done = self.ssd.program_page_at(comp_done, buf, cmd.offset, target);
                        last_nand = last_nand.max(done);
                        for r in 0..relocations {
                            // A relocation is a page read plus a page
                            // program somewhere else in the array.
                            let src = self.ssd.allocator.locate(lpn.wrapping_add(r + 1));
                            let out = self.ssd.channels[src.channel as usize].execute(
                                comp_done,
                                src.way,
                                src.die,
                                NandOp::Read,
                                src.addr,
                                raw_page_bytes,
                            );
                            let dst = self.ssd.allocator.next_write();
                            let done =
                                self.ssd
                                    .program_page_at(out.complete_at, buf, cmd.offset, dst);
                            last_nand = last_nand.max(done);
                        }
                        for e in 0..erases {
                            let victim = self.ssd.allocator.locate(lpn.wrapping_add(e) ^ 0x5A5A);
                            let done = self.ssd.erase_block_at(comp_done, victim);
                            last_nand = last_nand.max(done);
                        }
                    }
                } else {
                    // WAF abstraction: inflate the physical page count
                    // analytically and stripe the programs across the array.
                    let host_pages = nand_payload.div_ceil(page_bytes).max(1);
                    self.waf_carry += host_pages as f64 * (self.waf - 1.0);
                    let mut phys_pages = host_pages;
                    while self.waf_carry >= 1.0 {
                        phys_pages += 1;
                        self.waf_carry -= 1.0;
                    }
                    for _ in 0..phys_pages {
                        let target = self.ssd.allocator.next_write();
                        let done = self.ssd.program_page_at(comp_done, buf, cmd.offset, target);
                        last_nand = last_nand.max(done);
                    }
                }

                // --- Completion per DRAM-buffer policy --------------------
                self.in_flight.push(Reverse((last_nand, cmd.bytes as u64)));
                self.in_flight_bytes += cmd.bytes as u64;
                match self.ssd.config().cache_policy {
                    CachePolicy::WriteCache => dram_done.max(fw.end),
                    CachePolicy::NoCache => last_nand.max(fw.end),
                }
            }
            HostOp::Read => {
                // --- Firmware + descriptor traffic ------------------------
                let core = (cmd.id % self.ssd.cpus.len() as u64) as usize;
                let fw = self.ssd.cpus[core].execute_command_overhead(admit);
                let desc_bytes = 4 * self.ssd.cpus[core].bus_accesses_per_task() * 4;
                let ahb_done = self
                    .ssd
                    .ahb
                    .transfer(fw.start, core as u32, 0, desc_bytes)
                    .end;
                let ready = fw.end.max(ahb_done);

                // --- Read every page from the array -----------------------
                let pages = cmd.bytes.div_ceil(page_bytes).max(1);
                let first_lpn = cmd.offset / page_bytes as u64;
                let buf = (cmd.id % self.ssd.dram.len() as u64) as usize;
                let mut last_page = ready;
                for p in 0..pages {
                    let lpn = first_lpn + p as u64;
                    let target = match self.ftl.as_ref().and_then(|f| f.lookup(lpn)) {
                        Some((blk, page)) => self
                            .ssd
                            .allocator
                            .locate(u64::from(blk) * pages_per_block + u64::from(page)),
                        None => self.ssd.allocator.locate(lpn),
                    };
                    let (channel, way, die, addr) =
                        (target.channel, target.way, target.die, target.addr);
                    let out = self.ssd.channels[channel as usize].execute(
                        ready,
                        way,
                        die,
                        NandOp::Read,
                        addr,
                        raw_page_bytes,
                    );
                    let pe = self.ssd.channels[channel as usize]
                        .die(way, die)
                        // ssdx-lint::allow(no-panic-in-hot-path): the
                        // allocator and the channels are built from the
                        // same geometry, so every target it hands out is
                        // in range; a miss means the config was mutated
                        // mid-run.
                        .expect("allocator targets are in range")
                        .block_pe_cycles(addr);
                    let dec_latency =
                        self.ssd
                            .ecc_decode_latency(page_bytes, pe, out.expected_raw_errors);
                    let dec = self.ssd.ecc_decoders[channel as usize]
                        .reserve(out.complete_at, dec_latency);
                    let decomp_done = match self.compressor {
                        Some(c) if c.placement == CompressorPlacement::ChannelSide => {
                            dec.end + c.decompress_time(page_bytes)
                        }
                        _ => dec.end,
                    };
                    let dram_done = self.ssd.dram[buf]
                        .access(decomp_done, cmd.offset, page_bytes, AccessKind::Write)
                        .end;
                    last_page = last_page.max(dram_done);
                }

                // --- Return the data to the host --------------------------
                let host_side_decomp = match self.compressor {
                    Some(c) if c.placement == CompressorPlacement::HostSide => {
                        last_page + c.decompress_time(cmd.bytes)
                    }
                    _ => last_page,
                };
                let transfer = self.ssd.host_transfer_time(cmd.bytes);
                self.ssd.host_link.reserve(host_side_decomp, transfer).end
            }
            HostOp::Trim => {
                // TRIM only touches the FTL metadata: firmware cost only.
                let core = (cmd.id % self.ssd.cpus.len() as u64) as usize;
                if let Some(ftl) = self.ftl.as_mut() {
                    let lpn = cmd.offset / page_bytes as u64;
                    let _ = ftl.trim(lpn);
                }
                let fw = self.ssd.cpus[core].execute_command_overhead(admit);
                fw.end
            }
        };

        (admit, completion)
    }
}

impl std::fmt::Debug for SimSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSession")
            .field("label", &self.label)
            .field("completed", &self.completed())
            .field("remaining", &self.remaining())
            .field("now", &self.last_completion)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SsdConfig;
    use ssdx_hostif::{AccessPattern, Workload};

    fn platform() -> Ssd {
        Ssd::try_new(
            SsdConfig::builder("session-test")
                .topology(4, 2, 2)
                .dram_buffers(4)
                .dram_buffer_capacity(256 * 1024)
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    fn workload(count: u64) -> Workload {
        Workload::builder(AccessPattern::SequentialWrite)
            .command_count(count)
            .footprint_bytes(16 << 20)
            .build()
    }

    #[test]
    fn stepping_to_completion_matches_one_shot_finish() {
        let w = workload(192);
        let one_shot = platform().simulate(&w);

        let mut ssd = platform();
        let mut session = ssd.session(&w);
        let mut steps = 0;
        while session.step().is_some() {
            steps += 1;
        }
        let stepped = session.finish();
        assert_eq!(steps, 192);
        assert_eq!(format!("{one_shot:?}"), format!("{stepped:?}"));
    }

    #[test]
    fn run_until_stops_at_the_deadline() {
        let w = workload(256);
        let mut ssd = platform();
        let mut session = ssd.session(&w);
        let horizon = SimTime::from_us(300);
        let executed = session.run_until(horizon);
        assert!(executed > 0, "some commands complete within 300 us");
        assert!(!session.is_done(), "256 commands take longer than 300 us");
        assert!(session.now() >= horizon, "the crossing command still runs");
        assert_eq!(session.completed() + session.remaining(), 256);
        // Finishing afterwards is still byte-identical to the one-shot run.
        let report = session.finish();
        assert_eq!(
            format!("{report:?}"),
            format!("{:?}", platform().simulate(&w))
        );
    }

    #[test]
    fn snapshot_tracks_progress_and_utilization() {
        let w = workload(128);
        let mut ssd = platform();
        let mut session = ssd.session(&w);
        let before = session.snapshot();
        assert_eq!(before.commands_completed, 0);
        assert_eq!(before.commands_remaining, 128);
        assert_eq!(before.at, SimTime::ZERO);

        session.run_until(SimTime::from_us(500));
        let during = session.snapshot();
        assert!(during.commands_completed > 0);
        assert!(during.at > SimTime::ZERO);
        assert!(during.outstanding > 0);
        assert!(during.utilization.die > 0.0, "dies are busy mid-run");
        assert!(during.mean_latency > SimTime::ZERO);
    }

    #[test]
    fn class_histograms_split_reads_writes_and_respect_warmup() {
        use crate::metrics::CommandClass;
        let w = workload(128);
        let mut ssd = platform();
        let mut session = ssd.session(&w);
        session.steady_state(SteadyStateCutoff::Commands(32));
        let records: Vec<CommandRecord> = std::iter::from_fn(|| session.step()).collect();
        let report = session.finish();

        // 128 sequential writes, 32 trimmed as warmup.
        let write = report.tail(CommandClass::Write);
        assert_eq!(write.count, 96);
        assert_eq!(report.tail(CommandClass::Read).count, 0);
        assert!(write.p50 <= write.p99 && write.p99 <= write.p999);
        // The whole-run histogram still counts everything, warmup included.
        assert_eq!(report.latency.count(), 128);
        assert_eq!(records.len(), 128);

        // The step records digest to the same histograms post-hoc.
        let mut rebuilt = ClassHistograms::new();
        for r in &records {
            if SteadyStateCutoff::Commands(32).admits(r.index, r.completed_at) {
                rebuilt.record(r.command.op, r.latency());
            }
        }
        assert_eq!(rebuilt, *report.class_latency);
    }

    #[test]
    fn warmup_cutoff_never_changes_the_report_outside_class_latency() {
        let w = workload(96);
        let plain = platform().simulate(&w);
        let mut ssd = platform();
        let mut session = ssd.session(&w);
        session.steady_state(SteadyStateCutoff::SimulatedTime(SimTime::from_us(200)));
        let trimmed = session.finish();
        // Debug covers exactly the pre-metrics field set (the golden
        // format), so byte-equality here proves the cutoff is invisible to
        // every legacy field.
        assert_eq!(format!("{plain:?}"), format!("{trimmed:?}"));
        assert!(trimmed.class_latency.count() < plain.class_latency.count());
    }

    #[test]
    fn session_debug_names_the_source() {
        let w = workload(8);
        let mut ssd = platform();
        let session = ssd.session(&w);
        let text = format!("{session:?}");
        assert!(text.contains("SW"));
        assert!(text.contains("remaining"));
    }
}
