//! The full-SSD virtual platform: every substrate wired together.
//!
//! [`Ssd`] instantiates the host interface, the DRAM data buffers, the
//! controller CPU and AMBA AHB interconnect, one channel/way controller per
//! NAND channel (each owning its dies), the per-channel ECC engines, the
//! optional compressor and the WAF-based FTL abstraction. Command streams
//! are pushed through the resulting pipeline by a
//! [`SimSession`]: [`Ssd::simulate`] runs any
//! [`CommandSource`] to completion in one call, [`Ssd::session`] returns
//! the steppable session for mid-run observation.
//!
//! The pipeline mirrors the architecture template of the paper's Fig. 1:
//!
//! ```text
//! host ──link──▶ DMA ──▶ DRAM buffer ──▶ CPU/AHB firmware ──▶ (compressor)
//!      ──▶ ECC encode ──▶ channel PP-DMA ──▶ ONFI bus ──▶ NAND program
//! ```
//!
//! with the read path traversing the same blocks in reverse (NAND read →
//! ONFI → ECC decode → DRAM → host link). Command completion toward the host
//! follows the configured [`CachePolicy`](crate::config::CachePolicy): with
//! the write cache, a write completes when its data reaches the DRAM
//! buffers; without it, only when the last NAND program finishes.

use crate::config::{ConfigError, SsdConfig};
use crate::layout::{PageAllocator, PageTarget};
use crate::metrics::{ClassHistograms, LatencyHistogram};
use crate::report::{PerfReport, UtilizationBreakdown};
use crate::session::{Platform, SimSession, Source};
use ssdx_channel::{ChannelConfig, ChannelController};
use ssdx_cpu::CpuModel;
use ssdx_dram::{AccessKind, DramBuffer};
use ssdx_ftl::WorkloadMix;
use ssdx_hostif::{CommandSource, HostInterface, HostOp, Workload};
use ssdx_interconnect::{AhbBus, AhbConfig};
use ssdx_nand::{NandOp, OnfiBus};
use ssdx_sim::codec::{DecodeError, Decoder, Encoder};
use ssdx_sim::{Grant, Resource, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// The assembled SSD virtual platform.
///
/// The platform is `Send` (all component models are plain data and
/// [`HostInterface`] requires `Send + Sync`), so a
/// [`ParallelExecutor`](crate::ParallelExecutor) worker can build and drive
/// a whole `Ssd` per sweep point; the `parallel` module's tests pin this at
/// compile time. It is also `Clone`: a clone is an independent platform in
/// exactly the same state, which is how
/// [`SimSession::duplicate`] copies a session without a snapshot round
/// trip.
///
/// # Example
///
/// ```
/// use ssdx_core::{Ssd, SsdConfig};
/// use ssdx_hostif::{AccessPattern, Workload};
///
/// let mut ssd = Ssd::try_new(SsdConfig::default())?;
/// let workload = Workload::builder(AccessPattern::SequentialWrite)
///     .command_count(256)
///     .build();
/// let report = ssd.simulate(&workload);
/// assert!(report.throughput_mbps > 0.0);
/// # Ok::<(), ssdx_core::ConfigError>(())
/// ```
#[derive(Clone)]
pub struct Ssd {
    pub(crate) config: SsdConfig,
    pub(crate) iface: Arc<dyn HostInterface>,
    pub(crate) host_link: Resource,
    pub(crate) dram: Vec<DramBuffer>,
    pub(crate) cpus: Vec<CpuModel>,
    pub(crate) ahb: AhbBus,
    pub(crate) channels: Vec<ChannelController>,
    pub(crate) ecc_encoders: Vec<Resource>,
    pub(crate) ecc_decoders: Vec<Resource>,
    pub(crate) allocator: PageAllocator,
    pub(crate) aged_pe: u64,
    /// One-entry ECC encode-latency memo keyed by P/E count: the latency is
    /// a pure function of `(page size, pe)`, and recomputing it walks the
    /// codec's float pipeline once per page program on the hot path.
    ecc_encode_memo: (u64, SimTime),
    /// One-entry ECC decode-latency memo keyed by `(pe, raw-error bits)`.
    ecc_decode_memo: (u64, u64, SimTime),
    /// One-entry `(bytes, link time)` memo of the host interface's
    /// per-command transfer time, which costs a 128-bit division per
    /// command and is a pure function of the payload size.
    host_transfer_memo: (u32, SimTime),
}

impl Ssd {
    /// Builds the platform described by `config`, validating it first.
    ///
    /// This is the panic-free construction path: configurations from
    /// untrusted sources (text files, sweep mutators) surface their
    /// problems as [`ConfigError`] instead of aborting.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] produced by [`SsdConfig::validate`].
    pub fn try_new(config: SsdConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let iface: Arc<dyn HostInterface> = Arc::from(config.host_interface.build());
        let dram = (0..config.dram_buffers)
            .map(|i| DramBuffer::new(i, config.dram_timings))
            .collect();
        let channel_cfg = ChannelConfig::new(config.ways, config.dies_per_way)
            .with_gang(config.gang)
            .with_onfi(OnfiBus::new(config.onfi_speed));
        let channels = (0..config.channels)
            .map(|c| {
                let mut ch = ChannelController::new(c, channel_cfg, config.nand, config.seed);
                if !config.faults.is_healthy() {
                    ch.set_fault_profile(
                        config.faults.read_disturb_per_read,
                        config.faults.retention_scale,
                    );
                }
                ch
            })
            .collect();
        let ecc_encoders = (0..config.channels)
            .map(|_| Resource::new("ecc-enc"))
            .collect();
        let ecc_decoders = (0..config.channels)
            .map(|_| Resource::new("ecc-dec"))
            .collect();
        let allocator = PageAllocator::new(&config);
        let cpus = (0..config.cpu_cores)
            .map(|_| CpuModel::new(config.firmware))
            .collect();
        Ok(Ssd {
            host_link: Resource::new("host-link"),
            dram,
            cpus,
            ahb: AhbBus::new(AhbConfig::paper_default()),
            channels,
            ecc_encoders,
            ecc_decoders,
            allocator,
            aged_pe: 0,
            ecc_encode_memo: (u64::MAX, SimTime::ZERO),
            ecc_decode_memo: (u64::MAX, 0, SimTime::ZERO),
            host_transfer_memo: (0, iface.transfer_time(0)),
            iface,
            config,
        })
    }

    /// ECC encode latency for one page at the given wear, through the
    /// one-entry memo (identical value to calling the scheme directly).
    #[inline]
    pub(crate) fn ecc_encode_latency(&mut self, page_bytes: u32, pe: u64) -> SimTime {
        if self.ecc_encode_memo.0 != pe {
            self.ecc_encode_memo = (pe, self.config.ecc.encode_latency_for(page_bytes, pe));
        }
        self.ecc_encode_memo.1
    }

    /// ECC decode latency for one page at the given wear and expected raw
    /// error count, through the one-entry memo.
    #[inline]
    pub(crate) fn ecc_decode_latency(&mut self, page_bytes: u32, pe: u64, raw: f64) -> SimTime {
        let raw_bits = raw.to_bits();
        if self.ecc_decode_memo.0 != pe || self.ecc_decode_memo.1 != raw_bits {
            self.ecc_decode_memo = (
                pe,
                raw_bits,
                self.config.ecc.decode_latency_for(page_bytes, pe, raw),
            );
        }
        self.ecc_decode_memo.2
    }

    /// Builds the platform described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not validate. Prefer
    /// [`Ssd::try_new`] when the configuration comes from an untrusted
    /// source; `new` is a convenience for configurations that are known
    /// valid by construction (e.g. the built-in tables).
    pub fn new(config: SsdConfig) -> Self {
        // ssdx-lint::allow(no-panic-in-hot-path): the documented panic of
        // the convenience constructor, which runs once per platform and never
        // per command; untrusted configurations go through `try_new`.
        Ssd::try_new(config).expect("invalid SSD configuration")
    }

    /// The configuration the platform was built from.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// The instantiated host interface model.
    pub fn host_interface(&self) -> &dyn HostInterface {
        self.iface.as_ref()
    }

    /// Ideal stand-alone bandwidth of the host interface in MB/s (the
    /// paper's "SATA ideal" / "PCIE ideal" series).
    pub fn interface_ideal_mbps(&self) -> f64 {
        self.iface.ideal_bandwidth() as f64 / 1e6
    }

    /// Artificially ages every NAND block to the given normalised rated
    /// endurance (0.0 = fresh, 1.0 = rated end of life), as the wear-out
    /// experiment of Fig. 5 does.
    pub fn age_to_normalized(&mut self, normalized: f64) {
        let pe = self.config.nand.wear.pe_at(normalized);
        self.aged_pe = pe;
        for ch in &mut self.channels {
            ch.age_all(pe);
        }
    }

    /// Clears all dynamic activity (busy windows, statistics, stripe state)
    /// while keeping configuration and wear.
    pub fn reset_activity(&mut self) {
        self.host_link.reset();
        for d in &mut self.dram {
            d.reset();
        }
        for cpu in &mut self.cpus {
            cpu.reset();
        }
        self.ahb.reset();
        for c in &mut self.channels {
            c.reset_activity();
        }
        for e in &mut self.ecc_encoders {
            e.reset();
        }
        for e in &mut self.ecc_decoders {
            e.reset();
        }
        self.allocator.reset();
    }

    /// Encodes the platform's mutable state, in stable field order: the
    /// host link, the artificial P/E age, each DRAM buffer, each CPU, the
    /// AHB bus, each channel (with its dies), each ECC encoder and decoder
    /// resource, then the page allocator (all counts construction-fixed, no
    /// length prefixes). The configuration, host interface, and the ECC
    /// latency memos (value-identical caches, re-primed lazily) are not
    /// snapshot state.
    pub(crate) fn encode_state(&self, enc: &mut Encoder) {
        self.host_link.encode_state(enc);
        enc.put_u64(self.aged_pe);
        for d in &self.dram {
            d.encode_state(enc);
        }
        for cpu in &self.cpus {
            cpu.encode_state(enc);
        }
        self.ahb.encode_state(enc);
        for c in &self.channels {
            c.encode_state(enc);
        }
        for e in &self.ecc_encoders {
            e.encode_state(enc);
        }
        for e in &self.ecc_decoders {
            e.encode_state(enc);
        }
        self.allocator.encode_state(enc);
    }

    /// Restores state captured by [`encode_state`](Self::encode_state) onto
    /// a platform constructed from the same configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or malformed input.
    pub(crate) fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        self.host_link.decode_state(dec)?;
        self.aged_pe = dec.get_u64()?;
        for d in &mut self.dram {
            d.decode_state(dec)?;
        }
        for cpu in &mut self.cpus {
            cpu.decode_state(dec)?;
        }
        self.ahb.decode_state(dec)?;
        for c in &mut self.channels {
            c.decode_state(dec)?;
        }
        for e in &mut self.ecc_encoders {
            e.decode_state(dec)?;
        }
        for e in &mut self.ecc_decoders {
            e.decode_state(dec)?;
        }
        self.allocator.decode_state(dec)?;
        self.ecc_encode_memo = (u64::MAX, SimTime::ZERO);
        self.ecc_decode_memo = (u64::MAX, 0, SimTime::ZERO);
        Ok(())
    }

    /// Opens a steppable [`SimSession`] over any [`CommandSource`]
    /// (synthetic [`Workload`]s, the generative workloads,
    /// [`TracePlayer`](ssdx_hostif::TracePlayer) traces and explicit command
    /// lists, closure generators, or user types).
    ///
    /// The session resets the platform's dynamic activity, sizes its
    /// per-run state from [`CommandSource::bounds`] and derives the FTL
    /// workload mix from [`CommandSource::random_write_fraction`]. It
    /// borrows the source and reads one command from it per step, so
    /// opening costs no more for a long stream than for a short one once
    /// the source knows its bounds. Drive it with
    /// [`step`](SimSession::step) / [`run_until`](SimSession::run_until)
    /// and close it with [`finish`](SimSession::finish).
    pub fn session<'a, S: CommandSource + ?Sized>(&'a mut self, source: &'a S) -> SimSession<'a> {
        SimSession::new(
            Platform::Borrowed(self),
            Source::Borrowed(source.as_dyn_source()),
        )
    }

    /// Like [`session`](Self::session), but the session takes the platform
    /// and a share of the source with it, so it borrows nothing: it can be
    /// stored as a `SimSession<'static>`, sent to another thread, and
    /// copied with [`SimSession::duplicate`], whose copies share the same
    /// `Arc`. Nothing is copied out of the source.
    pub fn into_session<'a>(self, source: Arc<dyn CommandSource>) -> SimSession<'a> {
        SimSession::new(Platform::Owned(Box::new(self)), Source::Shared(source))
    }

    /// Runs any [`CommandSource`] through the full pipeline in one shot and
    /// reports the host-visible performance. Equivalent to
    /// `self.session(source).finish()`.
    pub fn simulate<S: CommandSource + ?Sized>(&mut self, source: &S) -> PerfReport {
        self.session(source).finish()
    }

    // --- Pipeline stages: `SimSession::execute` and the reference series
    // compose these, so each block of the Fig. 1 template is booked once.

    /// Moves one command's `bytes` payload over the host link, starting no
    /// earlier than `at`. The link time comes through a one-entry memo: it
    /// costs a 128-bit division and is a pure function of the payload size.
    #[inline]
    pub(crate) fn host_link_at(&mut self, at: SimTime, bytes: u32) -> Grant {
        if self.host_transfer_memo.0 != bytes {
            self.host_transfer_memo = (bytes, self.iface.transfer_time(bytes));
        }
        self.host_link.reserve(at, self.host_transfer_memo.1)
    }

    /// Runs the firmware of command `id` from `at`: commands are dealt to
    /// the cores round-robin by id, the core runs the foreground tasks, and
    /// their descriptor traffic crosses the AHB from the first task's start.
    /// Returns when the firmware and when the descriptor transfer end.
    #[inline]
    pub(crate) fn firmware_at(&mut self, at: SimTime, id: u64) -> (SimTime, SimTime) {
        let core = (id % self.cpus.len() as u64) as usize;
        let fw = self.cpus[core].execute_command_overhead(at);
        let desc_bytes = 4 * self.cpus[core].bus_accesses_per_task() * 4;
        let ahb = self.ahb.transfer(fw.start, core as u32, 0, desc_bytes);
        (fw.end, ahb.end)
    }

    /// Issues one physical page program (ECC encode, DRAM flush, channel
    /// transfer, NAND program) starting no earlier than `at`, returning the
    /// instant the array operation completes.
    pub(crate) fn program_page_at(
        &mut self,
        at: SimTime,
        buf: usize,
        offset: u64,
        target: PageTarget,
    ) -> SimTime {
        let page_bytes = self.config.nand.geometry.page_size_bytes;
        let raw_page_bytes = self.config.nand.geometry.raw_page_bytes();
        let PageTarget { way, die, addr, .. } = target;
        let channel = target.channel as usize;
        let pe = self.channels[channel]
            .die(way, die)
            // ssdx-lint::allow(no-panic-in-hot-path): every target comes from
            // the allocator or the FTL block map, both built from the same
            // geometry as the channels, so it is in range; a miss means the
            // config was mutated mid-run.
            .expect("targets are in range")
            .block_pe_cycles(addr);
        let enc_latency = self.ecc_encode_latency(page_bytes, pe);
        let enc = self.ecc_encoders[channel].reserve(at, enc_latency);
        let flush = self.dram[buf]
            .access(enc.end, offset, page_bytes, AccessKind::Read)
            .end;
        self.channels[channel]
            .execute(flush, way, die, NandOp::Program, addr, raw_page_bytes)
            .complete_at
    }

    /// Issues one physical page read (NAND read, channel transfer, then the
    /// channel's ECC decoder at the block's wear and the page's expected raw
    /// errors) starting no earlier than `at`, returning the instant the
    /// corrected page leaves the decoder.
    pub(crate) fn read_page_at(&mut self, at: SimTime, target: PageTarget) -> SimTime {
        let page_bytes = self.config.nand.geometry.page_size_bytes;
        let raw_page_bytes = self.config.nand.geometry.raw_page_bytes();
        let PageTarget { way, die, addr, .. } = target;
        let channel = target.channel as usize;
        let out = self.channels[channel].execute(at, way, die, NandOp::Read, addr, raw_page_bytes);
        let pe = self.channels[channel]
            .die(way, die)
            // ssdx-lint::allow(no-panic-in-hot-path): in range for the same
            // reason as in `program_page_at`.
            .expect("targets are in range")
            .block_pe_cycles(addr);
        let dec_latency = self.ecc_decode_latency(page_bytes, pe, out.expected_raw_errors);
        self.ecc_decoders[channel]
            .reserve(out.complete_at, dec_latency)
            .end
    }

    /// Issues one block erase starting no earlier than `at`, returning the
    /// instant the array operation completes.
    pub(crate) fn erase_block_at(&mut self, at: SimTime, target: PageTarget) -> SimTime {
        let PageTarget {
            channel,
            way,
            die,
            mut addr,
        } = target;
        addr.page = 0;
        self.channels[channel as usize]
            .execute(at, way, die, NandOp::Erase, addr, 0)
            .complete_at
    }

    /// The physical page behind page `page` of FTL block `block`. FTL
    /// blocks are superblocks striped over the whole array (see
    /// [`PageAllocator::locate`]).
    #[inline]
    pub(crate) fn ftl_target(&self, (block, page): (u32, u32)) -> PageTarget {
        let pages_per_block = u64::from(self.config.nand.geometry.pages_per_block);
        self.allocator
            .locate(u64::from(block) * pages_per_block + u64::from(page))
    }

    /// The write amplification the WAF abstraction charges a stream whose
    /// writes are `random_write_fraction` random: the greedy-GC model of
    /// Hu et al. (SYSTOR 2009) at the configured over-provisioning.
    pub(crate) fn stream_waf(&self, random_write_fraction: f64) -> f64 {
        self.config
            .waf
            .waf(WorkloadMix::mixed(random_write_fraction))
    }

    /// The full activity horizon at the given host-visible `elapsed` time:
    /// with the write cache, NAND programs keep running after the last
    /// host-visible completion, and those cycles must still count as busy
    /// time in the utilization figures.
    pub(crate) fn activity_horizon(&self, elapsed: SimTime) -> SimTime {
        let mut horizon = elapsed;
        for ch in &self.channels {
            for way in 0..self.config.ways {
                for die in 0..self.config.dies_per_way {
                    if let Ok(d) = ch.die(way, die) {
                        horizon = horizon.max(d.ready_at());
                    }
                }
            }
        }
        horizon
    }

    /// Per-component utilization over the given horizon.
    pub(crate) fn utilization_snapshot(&self, horizon: SimTime) -> UtilizationBreakdown {
        let mut channel_util = 0.0;
        let mut die_util = 0.0;
        let mut die_count = 0u32;
        for ch in &self.channels {
            channel_util += ch.bus_utilization(horizon);
            for way in 0..self.config.ways {
                for die in 0..self.config.dies_per_way {
                    if let Ok(d) = ch.die(way, die) {
                        die_util += d.utilization(horizon);
                        die_count += 1;
                    }
                }
            }
        }
        let dram_util: f64 = self
            .dram
            .iter()
            .map(|d| {
                if horizon.is_zero() {
                    0.0
                } else {
                    d.stats().bus_busy.as_ps() as f64 / horizon.as_ps() as f64
                }
            })
            .sum::<f64>()
            / self.dram.len() as f64;
        UtilizationBreakdown {
            host_link: self.host_link.utilization(horizon),
            dram: dram_util,
            cpu: self
                .cpus
                .iter()
                .map(|c| c.utilization(horizon))
                .sum::<f64>()
                / self.cpus.len() as f64,
            ahb: self.ahb.utilization(horizon),
            channel_bus: channel_util / self.channels.len() as f64,
            die: if die_count == 0 {
                0.0
            } else {
                die_util / die_count as f64
            },
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build_report(
        &self,
        workload_label: &str,
        commands: u64,
        total_bytes: u64,
        elapsed: SimTime,
        waf: f64,
        latency: LatencyHistogram,
        class_latency: ClassHistograms,
    ) -> PerfReport {
        let throughput_mbps = mbps(total_bytes, elapsed);
        let iops = if elapsed.is_zero() {
            0.0
        } else {
            commands as f64 / elapsed.as_secs_f64()
        };

        let horizon = self.activity_horizon(elapsed);
        let mut programs = 0;
        let mut reads = 0;
        for ch in &self.channels {
            let s = ch.stats();
            programs += s.programs;
            reads += s.reads;
        }

        PerfReport {
            config_name: self.config.name.clone(),
            architecture: self.config.architecture_label(),
            workload: workload_label.to_string(),
            policy: self.config.cache_policy.label().to_string(),
            commands,
            bytes: total_bytes,
            elapsed,
            throughput_mbps,
            iops,
            waf,
            nand_page_programs: programs,
            nand_page_reads: reads,
            latency: Box::new(latency),
            utilization: self.utilization_snapshot(horizon),
            class_latency: Box::new(class_latency),
        }
    }

    /// Best-case throughput of the host interface plus the DMA into the DRAM
    /// buffers, in MB/s — the paper's "SATA+DDR" / "PCIE+DDR" series. Only
    /// the protocol window, the link, the DMA and the buffers are
    /// exercised; everything downstream is assumed infinitely fast.
    pub fn host_dram_only_mbps(&mut self, workload: &Workload) -> f64 {
        self.reset_activity();
        let queue_depth = self.config.queue_depth() as usize;
        let mut window = BinaryHeap::new();
        let mut last = SimTime::ZERO;
        let mut bytes = 0u64;
        for index in 0..workload.len() {
            let cmd = workload.command(index);
            let admitted = window_admit(&mut window, queue_depth, cmd.issue_at);
            let link = self.host_link_at(admitted, cmd.bytes);
            let buf = (cmd.id % self.dram.len() as u64) as usize;
            let kind = if cmd.op == HostOp::Read {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            let dram_done = self.dram[buf]
                .access(link.end, cmd.offset, cmd.bytes, kind)
                .end;
            window.push(Reverse(dram_done));
            bytes += cmd.bytes as u64;
            last = last.max(dram_done);
        }
        mbps(bytes, last)
    }

    /// Throughput of the DRAM-to-flash back end alone, in MB/s — the paper's
    /// "DDR+FLASH" series: the time the flash subsystem needs to flush the
    /// buffered data, with no host-side constraint.
    pub fn flash_path_mbps(&mut self, workload: &Workload) -> f64 {
        self.reset_activity();
        let waf = self.stream_waf(workload.random_write_fraction());
        let page_bytes = self.config.nand.geometry.page_size_bytes;
        let mut waf_carry = 0.0f64;
        let mut last = SimTime::ZERO;
        let mut bytes = 0u64;
        for index in 0..workload.len() {
            let cmd = workload.command(index);
            let buf = (cmd.id % self.dram.len() as u64) as usize;
            let pages = cmd.bytes.div_ceil(page_bytes).max(1);
            if cmd.op == HostOp::Write {
                for _ in 0..waf_pages(&mut waf_carry, pages, waf) {
                    let target = self.allocator.next_write();
                    let done = self.program_page_at(SimTime::ZERO, buf, cmd.offset, target);
                    last = last.max(done);
                }
            } else {
                let first_lpn = cmd.offset / page_bytes as u64;
                for p in 0..pages {
                    let target = self.allocator.locate(first_lpn + p as u64);
                    let decoded = self.read_page_at(SimTime::ZERO, target);
                    let dram_done = self.dram[buf]
                        .access(decoded, cmd.offset, page_bytes, AccessKind::Write)
                        .end;
                    last = last.max(dram_done);
                }
            }
            bytes += cmd.bytes as u64;
        }
        mbps(bytes, last)
    }
}

/// Protocol-window admission: a command issued at `issue_at` enters once
/// fewer than `depth` commands are outstanding. With the window full it
/// waits for the earliest completion, which leaves the window; the caller
/// pushes the command's own completion once it knows it.
#[inline]
pub(crate) fn window_admit(
    window: &mut BinaryHeap<Reverse<SimTime>>,
    depth: usize,
    issue_at: SimTime,
) -> SimTime {
    if window.len() < depth {
        return issue_at;
    }
    window.pop().map_or(issue_at, |Reverse(t)| issue_at.max(t))
}

/// The WAF abstraction's page charge for a write of `host_pages` pages:
/// each page carries `waf − 1` garbage-collection programs, and the
/// fraction of a page left over carries to the next write in `carry`.
/// Returns the physical pages to program. Subtracting `carry.floor()`
/// once leaves exactly the carry that taking one page at a time leaves,
/// for any carry below 2^53.
#[inline]
pub(crate) fn waf_pages(carry: &mut f64, host_pages: u32, waf: f64) -> u32 {
    *carry += f64::from(host_pages) * (waf - 1.0);
    let extra = carry.floor();
    *carry -= extra;
    host_pages + extra as u32
}

/// `bytes` moved in `elapsed`, in MB/s (zero over an empty interval).
fn mbps(bytes: u64, elapsed: SimTime) -> f64 {
    if elapsed.is_zero() {
        0.0
    } else {
        bytes as f64 / 1e6 / elapsed.as_secs_f64()
    }
}

impl std::fmt::Debug for Ssd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ssd")
            .field("config", &self.config.name)
            .field("architecture", &self.config.architecture_label())
            .field("host_interface", &self.iface.name())
            .field("aged_pe", &self.aged_pe)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CachePolicy, HostInterfaceConfig};
    use ssdx_ecc::EccScheme;
    use ssdx_hostif::{AccessPattern, TracePlayer};

    fn small_workload(pattern: AccessPattern, count: u64) -> Workload {
        Workload::builder(pattern)
            .command_count(count)
            .footprint_bytes(16 << 20)
            .build()
    }

    fn small_config(name: &str) -> crate::config::SsdConfigBuilder {
        SsdConfig::builder(name)
            .topology(4, 2, 2)
            .dram_buffers(4)
            .dram_buffer_capacity(256 * 1024)
    }

    #[test]
    fn try_new_rejects_invalid_configurations() {
        let mut cfg = small_config("bad").build().unwrap();
        cfg.channels = 0;
        assert_eq!(
            Ssd::try_new(cfg).err(),
            Some(ConfigError::ZeroDimension("channels"))
        );
        assert!(Ssd::try_new(small_config("good").build().unwrap()).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid SSD configuration")]
    fn new_panics_on_invalid_configurations() {
        let mut cfg = small_config("bad").build().unwrap();
        cfg.dram_buffers = 0;
        let _ = Ssd::new(cfg);
    }

    #[test]
    fn sequential_write_produces_sensible_throughput() {
        let mut ssd = Ssd::new(small_config("t").build().unwrap());
        let report = ssd.simulate(&small_workload(AccessPattern::SequentialWrite, 512));
        assert!(report.throughput_mbps > 1.0, "{}", report.throughput_mbps);
        assert!(report.throughput_mbps < ssd.interface_ideal_mbps());
        assert_eq!(report.commands, 512);
        assert_eq!(report.bytes, 512 * 4096);
        assert!(
            report.nand_page_programs >= 1024,
            "two 2 KB pages per 4 KB command"
        );
    }

    #[test]
    fn cache_policy_beats_no_cache_on_sequential_writes() {
        let cache = small_config("cache")
            .cache_policy(CachePolicy::WriteCache)
            .build()
            .unwrap();
        let nocache = small_config("nocache")
            .cache_policy(CachePolicy::NoCache)
            .build()
            .unwrap();
        let w = small_workload(AccessPattern::SequentialWrite, 512);
        let r_cache = Ssd::new(cache).simulate(&w);
        let r_nocache = Ssd::new(nocache).simulate(&w);
        assert!(
            r_cache.mean_latency() < r_nocache.mean_latency(),
            "cache {} vs no-cache {}",
            r_cache.mean_latency(),
            r_nocache.mean_latency()
        );
    }

    #[test]
    fn random_writes_are_slower_than_sequential_writes() {
        let cfg = small_config("waf").build().unwrap();
        let seq =
            Ssd::new(cfg.clone()).simulate(&small_workload(AccessPattern::SequentialWrite, 512));
        let rnd = Ssd::new(cfg).simulate(&small_workload(AccessPattern::RandomWrite, 512));
        assert!(rnd.throughput_mbps < seq.throughput_mbps);
        assert!(rnd.waf > seq.waf);
        assert!(rnd.nand_page_programs > seq.nand_page_programs);
    }

    #[test]
    fn reads_do_not_amplify() {
        let cfg = small_config("reads").build().unwrap();
        let report = Ssd::new(cfg).simulate(&small_workload(AccessPattern::SequentialRead, 256));
        assert_eq!(report.nand_page_programs, 0);
        assert!(report.nand_page_reads >= 512);
        assert!(report.throughput_mbps > 1.0);
    }

    #[test]
    fn more_parallelism_helps_sequential_writes() {
        let small = small_config("small").build().unwrap();
        let big = SsdConfig::builder("big")
            .topology(16, 4, 2)
            .dram_buffers(16)
            .dram_buffer_capacity(256 * 1024)
            .build()
            .unwrap();
        let w = small_workload(AccessPattern::SequentialWrite, 1024);
        let r_small = Ssd::new(small).simulate(&w);
        let r_big = Ssd::new(big).simulate(&w);
        assert!(
            r_big.throughput_mbps > 1.5 * r_small.throughput_mbps,
            "big {} vs small {}",
            r_big.throughput_mbps,
            r_small.throughput_mbps
        );
    }

    #[test]
    fn nvme_uncorks_no_cache_configurations() {
        // Uncorking only shows when the flash back end is far faster than
        // what 32 outstanding SATA commands can keep busy, so use a highly
        // parallel configuration (the point of the paper's Fig. 4).
        let w = small_workload(AccessPattern::SequentialWrite, 1024);
        let sata = SsdConfig::builder("sata-nocache")
            .topology(16, 8, 4)
            .dram_buffers(16)
            .cache_policy(CachePolicy::NoCache)
            .build()
            .unwrap();
        let nvme = SsdConfig::builder("nvme-nocache")
            .topology(16, 8, 4)
            .dram_buffers(16)
            .cache_policy(CachePolicy::NoCache)
            .host_interface(HostInterfaceConfig::nvme_gen2_x8())
            .build()
            .unwrap();
        let r_sata = Ssd::new(sata).simulate(&w);
        let r_nvme = Ssd::new(nvme).simulate(&w);
        assert!(
            r_nvme.throughput_mbps > 1.5 * r_sata.throughput_mbps,
            "nvme {} vs sata {}",
            r_nvme.throughput_mbps,
            r_sata.throughput_mbps
        );
    }

    #[test]
    fn wear_out_slows_down_reads_more_with_fixed_bch() {
        let w = small_workload(AccessPattern::SequentialRead, 256);
        let mut fixed = Ssd::new(
            small_config("fixed")
                .ecc(EccScheme::fixed_bch(40))
                .build()
                .unwrap(),
        );
        let mut adaptive = Ssd::new(
            small_config("adaptive")
                .ecc(EccScheme::adaptive_bch(40))
                .build()
                .unwrap(),
        );
        // Early in life the adaptive code reads faster.
        let r_fixed_fresh = fixed.simulate(&w);
        let r_adaptive_fresh = adaptive.simulate(&w);
        assert!(r_adaptive_fresh.throughput_mbps > r_fixed_fresh.throughput_mbps);
        // At end of life they converge (same 40-bit correction).
        fixed.age_to_normalized(1.0);
        adaptive.age_to_normalized(1.0);
        assert_eq!(fixed.aged_pe, 3_000);
        let r_fixed_eol = fixed.simulate(&w);
        let r_adaptive_eol = adaptive.simulate(&w);
        let ratio = r_adaptive_eol.throughput_mbps / r_fixed_eol.throughput_mbps;
        assert!((0.9..1.1).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn determinism_same_config_same_result() {
        let cfg = small_config("det").build().unwrap();
        let w = small_workload(AccessPattern::RandomWrite, 256);
        let a = Ssd::new(cfg.clone()).simulate(&w);
        let b = Ssd::new(cfg).simulate(&w);
        assert_eq!(a.elapsed, b.elapsed);
        assert!((a.throughput_mbps - b.throughput_mbps).abs() < 1e-9);
    }

    #[test]
    fn component_series_are_ordered_sensibly() {
        // Keep the write cache small relative to the workload so the full
        // pipeline reaches its steady state instead of absorbing everything
        // in the buffers.
        let mut ssd = Ssd::new(
            small_config("series")
                .dram_buffer_capacity(64 * 1024)
                .build()
                .unwrap(),
        );
        let w = small_workload(AccessPattern::SequentialWrite, 1024);
        let ideal = ssd.interface_ideal_mbps();
        let host_dram = ssd.host_dram_only_mbps(&w);
        let flash = ssd.flash_path_mbps(&w);
        let full = ssd.simulate(&w).throughput_mbps;
        assert!(
            host_dram <= ideal * 1.01,
            "host+dram {host_dram} vs ideal {ideal}"
        );
        // The full SSD can never beat its own back end or its own front end.
        assert!(full <= host_dram * 1.05);
        assert!(full <= flash * 1.15, "full {full} vs flash {flash}");
    }

    /// Every experiment passes the reference series a sequential-write
    /// workload, so nothing else runs their read branches or their WAF
    /// charge, which only a random write reaches. Pin both series on every
    /// basic pattern on an aged platform, under the default fixed BCH code
    /// and under adaptive BCH, whose encode and decode latencies follow the
    /// dies' P/E counts.
    #[test]
    fn reference_series_are_pinned() {
        let cases = [
            (
                EccScheme::fixed_bch(40),
                AccessPattern::SequentialWrite,
                16.752074798133602,
            ),
            (
                EccScheme::fixed_bch(40),
                AccessPattern::RandomWrite,
                2.2181671731447237,
            ),
            (
                EccScheme::fixed_bch(40),
                AccessPattern::SequentialRead,
                29.902806779161786,
            ),
            (
                EccScheme::fixed_bch(40),
                AccessPattern::RandomRead,
                29.904339267681276,
            ),
            (
                EccScheme::adaptive_bch(40),
                AccessPattern::SequentialWrite,
                16.752171146042254,
            ),
            (
                EccScheme::adaptive_bch(40),
                AccessPattern::RandomWrite,
                2.2181688623851485,
            ),
            (
                EccScheme::adaptive_bch(40),
                AccessPattern::SequentialRead,
                49.04437283495709,
            ),
            (
                EccScheme::adaptive_bch(40),
                AccessPattern::RandomRead,
                49.03422556168242,
            ),
        ];
        for (ecc, pattern, flash) in cases {
            let mut ssd = Ssd::new(small_config("ref").ecc(ecc.clone()).build().unwrap());
            ssd.age_to_normalized(0.5);
            let w = small_workload(pattern, 256);
            assert_eq!(
                ssd.host_dram_only_mbps(&w),
                208.05587021402687,
                "{pattern:?}"
            );
            assert_eq!(ssd.flash_path_mbps(&w), flash, "{ecc:?} {pattern:?}");
        }
    }

    mod waf_charge {
        use super::super::waf_pages;
        use proptest::prelude::*;

        /// The page-at-a-time charge `waf_pages` replaced.
        fn page_loop(carry: &mut f64, host_pages: u32, waf: f64) -> u32 {
            *carry += host_pages as f64 * (waf - 1.0);
            let mut phys_pages = host_pages;
            while *carry >= 1.0 {
                phys_pages += 1;
                *carry -= 1.0;
            }
            phys_pages
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn closed_form_waf_charge_matches_the_page_loop(
                start in 0.0f64..1.0,
                waf in prop_oneof![Just(1.0), 1.0f64..51.0, Just(51.0)],
                writes in prop::collection::vec(1u32..=64, 1..32),
            ) {
                let (mut carry, mut oracle) = (start, start);
                for pages in writes {
                    prop_assert_eq!(
                        waf_pages(&mut carry, pages, waf),
                        page_loop(&mut oracle, pages, waf)
                    );
                    prop_assert_eq!(carry.to_bits(), oracle.to_bits());
                }
            }
        }
    }

    #[test]
    fn trace_replay_works() {
        let trace = TracePlayer::parse("0 write 0 4096\n10 read 0 4096\n20 trim 0 4096\n").unwrap();
        let mut ssd = Ssd::new(small_config("trace").build().unwrap());
        let report = ssd.simulate(&trace);
        assert_eq!(report.commands, 3);
        assert_eq!(report.bytes, 8192);
        assert!(report.elapsed > SimTime::ZERO);
        assert_eq!(report.workload, "trace");
    }

    #[test]
    fn compressor_reduces_nand_traffic() {
        let w = small_workload(AccessPattern::SequentialWrite, 256);
        let plain = small_config("plain").build().unwrap();
        let compressed = small_config("gzip")
            .compressor(crate::config::CompressorConfig::ChannelSide)
            .build()
            .unwrap();
        let r_plain = Ssd::new(plain).simulate(&w);
        let r_comp = Ssd::new(compressed).simulate(&w);
        assert!(r_comp.nand_page_programs < r_plain.nand_page_programs);
    }

    #[test]
    fn debug_format_names_the_platform() {
        let ssd = Ssd::new(small_config("dbg").build().unwrap());
        let text = format!("{ssd:?}");
        assert!(text.contains("dbg"));
        assert!(text.contains("SATA"));
    }

    #[test]
    fn page_mapped_ftl_reports_measured_write_amplification() {
        use crate::config::FtlMode;
        // Small footprint so the random overwrites actually trigger garbage
        // collection inside the page-mapped FTL.
        let workload = Workload::builder(AccessPattern::RandomWrite)
            .command_count(1_500)
            .footprint_bytes(2 << 20)
            .build();
        let cfg = small_config("real-ftl")
            .ftl_mode(FtlMode::PageMapped)
            .over_provisioning(0.25)
            .build()
            .unwrap();
        let report = Ssd::new(cfg).simulate(&workload);
        assert!(
            report.waf > 1.05,
            "measured WAF should exceed 1, got {}",
            report.waf
        );
        assert!(report.nand_page_programs as f64 >= 1.05 * 2.0 * 1_500.0);
        assert!(report.throughput_mbps > 0.0);
    }

    #[test]
    fn page_mapped_and_waf_modes_agree_on_sequential_writes() {
        use crate::config::FtlMode;
        let w = small_workload(AccessPattern::SequentialWrite, 512);
        let waf_mode = Ssd::new(small_config("waf-mode").build().unwrap()).simulate(&w);
        let real_mode = Ssd::new(
            small_config("pm-mode")
                .ftl_mode(FtlMode::PageMapped)
                .build()
                .unwrap(),
        )
        .simulate(&w);
        // Sequential traffic does not amplify in either accounting mode, so
        // the two pipelines should deliver comparable throughput.
        assert!(
            (real_mode.waf - 1.0).abs() < 0.1,
            "sequential WAF {}",
            real_mode.waf
        );
        let ratio = real_mode.throughput_mbps / waf_mode.throughput_mbps;
        assert!((0.8..1.25).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn extra_cpu_cores_relieve_a_firmware_bottleneck() {
        use ssdx_cpu::FirmwareProfile;
        // Make the firmware expensive enough to be the bottleneck, then add
        // a second core.
        let heavy = FirmwareProfile {
            command_decode_cycles: 20_000,
            ftl_lookup_cycles: 20_000,
            dma_setup_cycles: 20_000,
            completion_cycles: 20_000,
            bus_accesses_per_task: 8,
        };
        let w = small_workload(AccessPattern::SequentialWrite, 512);
        let single =
            Ssd::new(small_config("one-core").firmware(heavy).build().unwrap()).simulate(&w);
        let dual = Ssd::new(
            small_config("two-cores")
                .firmware(heavy)
                .cpu_cores(2)
                .build()
                .unwrap(),
        )
        .simulate(&w);
        assert!(
            dual.throughput_mbps > 1.3 * single.throughput_mbps,
            "dual {} vs single {}",
            dual.throughput_mbps,
            single.throughput_mbps
        );
    }
}
