//! Generative workloads: skewed, bursty, mixed-size and read-modify-write
//! command sources.
//!
//! The IOZone-style [`Workload`](crate::Workload) generators cover the
//! paper's validation matrix, but real fleets are judged on tail latency
//! under far messier traffic. This module adds four [`CommandSource`]
//! generators modelling the access shapes production storage actually
//! sees:
//!
//! * [`ZipfianWorkload`] — hot-spot addressing with YCSB-style zipfian
//!   skew (a handful of blocks take most of the traffic);
//! * [`BurstyWorkload`] — on/off arrivals: dense bursts separated by idle
//!   gaps, so queues repeatedly fill and drain;
//! * [`MixedSizeWorkload`] — per-command block sizes drawn from a weighted
//!   distribution (metadata-sized 4 KB next to large streaming I/O);
//! * [`RmwWorkload`] — read-modify-write pairs, the classic database-page
//!   update pattern.
//!
//! # Determinism
//!
//! Every generator draws exclusively from a [`SimRng`] seeded by its own
//! `seed` parameter: the same parameters always produce the same command
//! stream, byte for byte, on any thread (the platform-wide contract
//! documented on `ssdx_core::Explorer`).
//!
//! For given parameters each generator draws a fixed number of values per
//! command, so [`CommandSource::command`] builds command `i` by
//! [`skip`](SimRng::skip)ping the draws of commands `0..i`. Command `i` is
//! therefore a pure function of the parameters and `i`, and it equals the
//! `i`-th command of a sequential walk over the stream.

use crate::command::{HostCommand, HostOp};
use crate::source::{stream, CommandSource, Memo, StreamBounds};
use ssdx_sim::rng::SimRng;
use ssdx_sim::SimTime;

#[cfg(test)]
mod oracle;

/// Scatters zipfian ranks across the block space so the hottest blocks are
/// not all clustered at offset zero (rank 0 would otherwise always be the
/// first block). Deterministic splitmix-style hash.
#[inline]
fn scramble(rank: u64, blocks: u64) -> u64 {
    let mut z = rank.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % blocks
}

/// Number of whole blocks the footprint holds, asserting the invariant the
/// generators document: no command ever crosses the footprint end. The
/// individual builder setters also check it, but only against the values
/// set so far — validating at generation catches every setter order
/// (e.g. `block_size` grown after `footprint_bytes` was checked).
#[inline]
fn checked_blocks(footprint_bytes: u64, block_size: u32) -> u64 {
    assert!(
        footprint_bytes >= block_size as u64,
        "footprint ({footprint_bytes} B) cannot hold one {block_size} B block"
    );
    footprint_bytes / block_size as u64
}

/// Draws the command op for a read/write mix.
#[inline]
fn mixed_op(rng: &mut SimRng, read_fraction: f64) -> HostOp {
    if rng.chance(read_fraction) {
        HostOp::Read
    } else {
        HostOp::Write
    }
}

/// A zipfian-skewed workload: block popularity follows a zipf(θ)
/// distribution over the footprint, so a small set of hot blocks receives
/// most of the traffic — the YCSB access shape behind most key-value-store
/// benchmarking.
///
/// Ranks are drawn with the standard YCSB quick-zipfian method (Gray et
/// al.) and scrambled across the footprint with a deterministic hash so the
/// hot set is scattered rather than packed at offset zero. Skew `theta`
/// must lie in `(0, 1)`; `0.99` is the YCSB default (very hot), lower
/// values flatten toward uniform.
///
/// # Determinism
///
/// Same `(theta, seed, command_count, block_size, footprint_bytes,
/// read_fraction)` → identical stream; see the
/// [module contract](self#determinism).
///
/// # Example
///
/// ```
/// use ssdx_hostif::{CommandSource, ZipfianWorkload};
///
/// let zipf = ZipfianWorkload::new(0.99, 42)
///     .command_count(512)
///     .footprint_bytes(64 << 20)
///     .read_fraction(1.0); // read-only
/// assert_eq!(zipf.len(), 512);
/// let commands = zipf.commands();
/// // The hottest block dominates: it must appear far more often than the
/// // uniform expectation (512 commands over 16 384 blocks).
/// let mut counts = std::collections::BTreeMap::new();
/// for c in commands.iter() {
///     *counts.entry(c.offset).or_insert(0u32) += 1;
/// }
/// assert!(counts.values().copied().max().unwrap() >= 20);
/// // Same parameters, same stream.
/// assert_eq!(zipf.commands(), ZipfianWorkload::new(0.99, 42)
///     .command_count(512)
///     .footprint_bytes(64 << 20)
///     .read_fraction(1.0)
///     .commands());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfianWorkload {
    theta: f64,
    seed: u64,
    command_count: u64,
    block_size: u32,
    footprint_bytes: u64,
    read_fraction: f64,
    label: Option<String>,
    /// The quick-zipfian constants. zeta(blocks, θ) is an O(blocks) pass of
    /// `powf` calls, so it is computed once and shared by every command;
    /// the setters that change the block count reset it.
    constants: Memo<ZipfConstants>,
    /// One pass over the stream, cached; the setters that change the
    /// stream reset it.
    bounds: Memo<StreamBounds>,
}

/// The YCSB quick-zipfian constants (Gray et al.) for one block count and
/// skew.
#[derive(Debug, Clone, Copy, Default)]
struct ZipfConstants {
    blocks: u64,
    zetan: f64,
    zeta2: f64,
    alpha: f64,
    eta: f64,
}

impl ZipfianWorkload {
    /// Creates a zipfian workload with skew `theta` (must be in `(0, 1)`;
    /// YCSB uses `0.99`) and the given RNG seed. Defaults: 4 096 commands,
    /// 4 KB blocks, 1 GiB footprint, 50 % reads.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is not within `(0.0, 1.0)` exclusive.
    pub fn new(theta: f64, seed: u64) -> Self {
        assert!(
            theta > 0.0 && theta < 1.0,
            "zipfian skew must be in (0, 1), got {theta}"
        );
        ZipfianWorkload {
            theta,
            seed,
            command_count: 4096,
            block_size: 4096,
            footprint_bytes: 1 << 30,
            read_fraction: 0.5,
            label: None,
            constants: Memo::default(),
            bounds: Memo::default(),
        }
    }

    /// Sets the number of commands to generate.
    pub fn command_count(mut self, count: u64) -> Self {
        self.command_count = count;
        self.bounds = Memo::default();
        self
    }

    /// Sets the per-command payload size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn block_size(mut self, bytes: u32) -> Self {
        assert!(bytes > 0, "block size must be non-zero");
        self.block_size = bytes;
        self.constants = Memo::default();
        self.bounds = Memo::default();
        self
    }

    /// Sets the logical footprint in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is smaller than one block.
    pub fn footprint_bytes(mut self, bytes: u64) -> Self {
        assert!(
            bytes >= self.block_size as u64,
            "footprint must hold at least one block"
        );
        self.footprint_bytes = bytes;
        self.constants = Memo::default();
        self.bounds = Memo::default();
        self
    }

    /// Sets the fraction of commands that are reads (clamped to `[0, 1]`).
    pub fn read_fraction(mut self, fraction: f64) -> Self {
        self.read_fraction = fraction.clamp(0.0, 1.0);
        self.bounds = Memo::default();
        self
    }

    /// Overrides the report label (default `zipf-<θ>`), so several
    /// parameter choices of the same generator stay distinguishable as
    /// points of a `workload` sweep axis.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }
}

impl CommandSource for ZipfianWorkload {
    fn label(&self) -> String {
        self.label
            .clone()
            .unwrap_or_else(|| format!("zipf-{:.2}", self.theta))
    }

    fn len(&self) -> u64 {
        self.command_count
    }

    /// Two draws per command: the rank's uniform and the op.
    fn command(&self, index: u64) -> HostCommand {
        let k = self.constants.get_or_init(|| {
            let blocks = checked_blocks(self.footprint_bytes, self.block_size);
            let zetan: f64 = (1..=blocks)
                .map(|i| 1.0 / (i as f64).powf(self.theta))
                .sum();
            let zeta2 = 1.0 + 0.5f64.powf(self.theta);
            ZipfConstants {
                blocks,
                zetan,
                zeta2,
                alpha: 1.0 / (1.0 - self.theta),
                eta: (1.0 - (2.0 / blocks as f64).powf(1.0 - self.theta)) / (1.0 - zeta2 / zetan),
            }
        });
        let mut rng = SimRng::new(self.seed);
        rng.skip(index.wrapping_mul(2));
        let u = rng.next_f64();
        let uz = u * k.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < k.zeta2 {
            1
        } else {
            ((k.blocks as f64 * (k.eta * u - k.eta + 1.0).powf(k.alpha)) as u64).min(k.blocks - 1)
        };
        let op = mixed_op(&mut rng, self.read_fraction);
        HostCommand {
            id: index,
            op,
            offset: scramble(rank, k.blocks) * self.block_size as u64,
            bytes: self.block_size,
            issue_at: SimTime::ZERO,
        }
    }

    fn bounds(&self) -> StreamBounds {
        *self.bounds.get_or_init(|| StreamBounds::scan(stream(self)))
    }

    /// Zipfian draws are almost never contiguous, so the write traffic is
    /// fully random for the WAF abstraction (streams without writes report
    /// `0.0`, matching the estimator's convention).
    fn random_write_fraction(&self) -> f64 {
        if self.read_fraction >= 1.0 {
            0.0
        } else {
            1.0
        }
    }
}

/// A bursty on/off workload: commands arrive in dense bursts separated by
/// idle gaps, so the device's queues repeatedly fill, drain and refill —
/// the arrival shape that separates tail latency from mean latency.
///
/// Addressing is uniformly random over the footprint; within a burst
/// commands arrive `inter_arrival` apart, and at each burst boundary the
/// gap before the next command is `idle_gap` **instead of** `inter_arrival`
/// (the off period replaces the in-burst spacing, it is not added on top).
///
/// # Determinism
///
/// Same parameters and seed → identical stream (see the
/// [module contract](self#determinism)); the issue timestamps are part of
/// the stream.
///
/// # Example
///
/// ```
/// use ssdx_hostif::{BurstyWorkload, CommandSource};
/// use ssdx_sim::SimTime;
///
/// let bursty = BurstyWorkload::new(7)
///     .command_count(64)
///     .burst(16, SimTime::from_us(1), SimTime::from_ms(2));
/// assert_eq!(bursty.len(), 64);
/// // Command 16 opens the second burst: 15 in-burst gaps, then the idle
/// // gap replaces the 16th inter-arrival gap.
/// let expected = SimTime::from_us(15) + SimTime::from_ms(2);
/// assert_eq!(bursty.command(16).issue_at, expected);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BurstyWorkload {
    seed: u64,
    command_count: u64,
    block_size: u32,
    footprint_bytes: u64,
    read_fraction: f64,
    burst_len: u64,
    inter_arrival: SimTime,
    idle_gap: SimTime,
    label: Option<String>,
    /// One pass over the stream, cached; the setters that change the
    /// stream reset it.
    bounds: Memo<StreamBounds>,
}

impl BurstyWorkload {
    /// Creates a bursty workload with the given RNG seed. Defaults: 4 096
    /// commands, 4 KB blocks, 1 GiB footprint, 50 % reads, bursts of 32
    /// commands arriving 2 µs apart with 1 ms idle gaps.
    pub fn new(seed: u64) -> Self {
        BurstyWorkload {
            seed,
            command_count: 4096,
            block_size: 4096,
            footprint_bytes: 1 << 30,
            read_fraction: 0.5,
            burst_len: 32,
            inter_arrival: SimTime::from_us(2),
            idle_gap: SimTime::from_ms(1),
            label: None,
            bounds: Memo::default(),
        }
    }

    /// Overrides the report label (default `bursty`), so several burst
    /// shapes of the same generator stay distinguishable as points of a
    /// `workload` sweep axis.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Sets the number of commands to generate.
    pub fn command_count(mut self, count: u64) -> Self {
        self.command_count = count;
        self.bounds = Memo::default();
        self
    }

    /// Sets the per-command payload size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn block_size(mut self, bytes: u32) -> Self {
        assert!(bytes > 0, "block size must be non-zero");
        self.block_size = bytes;
        self.bounds = Memo::default();
        self
    }

    /// Sets the logical footprint in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is smaller than one block.
    pub fn footprint_bytes(mut self, bytes: u64) -> Self {
        assert!(
            bytes >= self.block_size as u64,
            "footprint must hold at least one block"
        );
        self.footprint_bytes = bytes;
        self.bounds = Memo::default();
        self
    }

    /// Sets the fraction of commands that are reads (clamped to `[0, 1]`).
    pub fn read_fraction(mut self, fraction: f64) -> Self {
        self.read_fraction = fraction.clamp(0.0, 1.0);
        self.bounds = Memo::default();
        self
    }

    /// Sets the burst shape: `len` commands arriving `inter_arrival` apart;
    /// the gap before each new burst is `idle_gap`, which replaces (is not
    /// added to) the in-burst spacing.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn burst(mut self, len: u64, inter_arrival: SimTime, idle_gap: SimTime) -> Self {
        assert!(len > 0, "burst length must be non-zero");
        self.burst_len = len;
        self.inter_arrival = inter_arrival;
        self.idle_gap = idle_gap;
        self
    }
}

impl CommandSource for BurstyWorkload {
    fn label(&self) -> String {
        self.label.clone().unwrap_or_else(|| "bursty".to_string())
    }

    fn len(&self) -> u64 {
        self.command_count
    }

    /// A block draw (none when the footprint holds one block) and an op
    /// draw per command. The arrival time has a closed form: of the gaps
    /// before command `index`, every `burst_len`-th is the idle gap.
    fn command(&self, index: u64) -> HostCommand {
        let blocks = checked_blocks(self.footprint_bytes, self.block_size);
        let mut rng = SimRng::new(self.seed);
        rng.skip(index.wrapping_mul(1 + u64::from(blocks > 1)));
        let block = rng.uniform_u64(0, blocks - 1);
        let op = mixed_op(&mut rng, self.read_fraction);
        let idle_gaps = index / self.burst_len;
        HostCommand {
            id: index,
            op,
            offset: block * self.block_size as u64,
            bytes: self.block_size,
            issue_at: self.idle_gap * idle_gaps + self.inter_arrival * (index - idle_gaps),
        }
    }

    fn bounds(&self) -> StreamBounds {
        *self.bounds.get_or_init(|| StreamBounds::scan(stream(self)))
    }

    /// Uniformly random addressing: write traffic is fully random (`0.0`
    /// when the mix has no writes, matching the estimator's convention).
    fn random_write_fraction(&self) -> f64 {
        if self.read_fraction >= 1.0 {
            0.0
        } else {
            1.0
        }
    }
}

/// A workload whose per-command block size is drawn from a weighted
/// distribution — small metadata updates interleaved with large streaming
/// transfers, the size mix real filesystems emit.
///
/// Offsets are uniformly random over the footprint, aligned to the largest
/// size in the mix so no command crosses the footprint end.
///
/// # Determinism
///
/// Same parameters and seed → identical stream (see the
/// [module contract](self#determinism)).
///
/// # Example
///
/// ```
/// use ssdx_hostif::{CommandSource, MixedSizeWorkload};
///
/// // 4 KB three times as likely as 64 KB.
/// let mixed = MixedSizeWorkload::new([(4096, 3), (64 << 10, 1)], 11)
///     .command_count(400)
///     .read_fraction(0.0); // write-only
/// let commands = mixed.commands();
/// let small = commands.iter().filter(|c| c.bytes == 4096).count();
/// let large = commands.iter().filter(|c| c.bytes == 64 << 10).count();
/// assert_eq!(small + large, 400);
/// assert!(small > 2 * large, "small {small} vs large {large}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MixedSizeWorkload {
    sizes: Vec<(u32, u32)>,
    seed: u64,
    command_count: u64,
    footprint_bytes: u64,
    read_fraction: f64,
    label: Option<String>,
    /// One pass over the stream, cached; the setters that change the
    /// stream reset it.
    bounds: Memo<StreamBounds>,
}

impl MixedSizeWorkload {
    /// Creates a mixed-size workload drawing each command's payload from
    /// `sizes`, a list of `(bytes, weight)` pairs. Defaults: 4 096
    /// commands, 1 GiB footprint, 50 % reads.
    ///
    /// # Panics
    ///
    /// Panics if `sizes` is empty, any size is zero, or every weight is
    /// zero.
    pub fn new(sizes: impl IntoIterator<Item = (u32, u32)>, seed: u64) -> Self {
        let sizes: Vec<(u32, u32)> = sizes.into_iter().collect();
        assert!(
            !sizes.is_empty(),
            "the size mix must hold at least one size"
        );
        assert!(
            sizes.iter().all(|&(bytes, _)| bytes > 0),
            "block sizes must be non-zero"
        );
        assert!(
            sizes.iter().any(|&(_, weight)| weight > 0),
            "at least one size needs a non-zero weight"
        );
        // Zero-weight entries can never be drawn; dropping them here keeps
        // them from coarsening the offset alignment (and the footprint
        // requirement), which follows the *largest* retained size.
        let sizes: Vec<(u32, u32)> = sizes.into_iter().filter(|&(_, w)| w > 0).collect();
        MixedSizeWorkload {
            sizes,
            seed,
            command_count: 4096,
            footprint_bytes: 1 << 30,
            read_fraction: 0.5,
            label: None,
            bounds: Memo::default(),
        }
    }

    /// Overrides the report label (default `mixed`), so several size mixes
    /// of the same generator stay distinguishable as points of a
    /// `workload` sweep axis.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Sets the number of commands to generate.
    pub fn command_count(mut self, count: u64) -> Self {
        self.command_count = count;
        self.bounds = Memo::default();
        self
    }

    /// Sets the logical footprint in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` cannot hold the largest size in the mix.
    pub fn footprint_bytes(mut self, bytes: u64) -> Self {
        let largest = self.largest_size() as u64;
        assert!(
            bytes >= largest,
            "footprint must hold the largest block size ({largest} B)"
        );
        self.footprint_bytes = bytes;
        self.bounds = Memo::default();
        self
    }

    /// Sets the fraction of commands that are reads (clamped to `[0, 1]`).
    pub fn read_fraction(mut self, fraction: f64) -> Self {
        self.read_fraction = fraction.clamp(0.0, 1.0);
        self.bounds = Memo::default();
        self
    }

    fn largest_size(&self) -> u32 {
        self.sizes
            .iter()
            .map(|&(bytes, _)| bytes)
            .max()
            .expect("the size mix is non-empty")
    }
}

impl CommandSource for MixedSizeWorkload {
    fn label(&self) -> String {
        self.label.clone().unwrap_or_else(|| "mixed".to_string())
    }

    fn len(&self) -> u64 {
        self.command_count
    }

    /// A size draw and a slot draw (each none over a single value) and an
    /// op draw per command.
    fn command(&self, index: u64) -> HostCommand {
        let total_weight: u64 = self.sizes.iter().map(|&(_, w)| w as u64).sum();
        // Align offsets to the largest size so every command fits inside
        // the footprint regardless of its drawn size.
        let slots = checked_blocks(self.footprint_bytes, self.largest_size());
        let align = self.largest_size() as u64;
        let mut rng = SimRng::new(self.seed);
        let draws = 1 + u64::from(total_weight > 1) + u64::from(slots > 1);
        rng.skip(index.wrapping_mul(draws));
        let mut pick = rng.uniform_u64(0, total_weight - 1);
        let mut bytes = self.largest_size();
        for &(size, weight) in &self.sizes {
            if pick < weight as u64 {
                bytes = size;
                break;
            }
            pick -= weight as u64;
        }
        let slot = rng.uniform_u64(0, slots - 1);
        let op = mixed_op(&mut rng, self.read_fraction);
        HostCommand {
            id: index,
            op,
            offset: slot * align,
            bytes,
            issue_at: SimTime::ZERO,
        }
    }

    fn bounds(&self) -> StreamBounds {
        *self.bounds.get_or_init(|| StreamBounds::scan(stream(self)))
    }

    /// Uniformly random addressing: write traffic is fully random (`0.0`
    /// when the mix has no writes, matching the estimator's convention).
    fn random_write_fraction(&self) -> f64 {
        if self.read_fraction >= 1.0 {
            0.0
        } else {
            1.0
        }
    }
}

/// A read-modify-write workload: every logical update reads a block and
/// then writes it back to the same offset — the database-page and
/// erasure-coded-stripe update pattern, which couples read tail latency
/// into write completion.
///
/// Each update targets a uniformly random block; the stream interleaves
/// `read(b0), write(b0), read(b1), write(b1), …`.
///
/// # Determinism
///
/// Same parameters and seed → identical stream (see the
/// [module contract](self#determinism)).
///
/// # Example
///
/// ```
/// use ssdx_hostif::{CommandSource, HostOp, RmwWorkload};
///
/// let rmw = RmwWorkload::new(3).updates(100);
/// let commands = rmw.commands();
/// assert_eq!(commands.len(), 200, "one read + one write per update");
/// for pair in commands.chunks(2) {
///     assert_eq!(pair[0].op, HostOp::Read);
///     assert_eq!(pair[1].op, HostOp::Write);
///     assert_eq!(pair[0].offset, pair[1].offset, "write-back hits the read offset");
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RmwWorkload {
    seed: u64,
    updates: u64,
    block_size: u32,
    footprint_bytes: u64,
    label: Option<String>,
    /// One pass over the stream, cached; the setters that change the
    /// stream reset it.
    bounds: Memo<StreamBounds>,
}

impl RmwWorkload {
    /// Creates a read-modify-write workload with the given RNG seed.
    /// Defaults: 2 048 updates (4 096 commands), 4 KB blocks, 1 GiB
    /// footprint.
    pub fn new(seed: u64) -> Self {
        RmwWorkload {
            seed,
            updates: 2048,
            block_size: 4096,
            footprint_bytes: 1 << 30,
            label: None,
            bounds: Memo::default(),
        }
    }

    /// Overrides the report label (default `rmw`), so several parameter
    /// choices of the same generator stay distinguishable as points of a
    /// `workload` sweep axis.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Sets the number of read+write update pairs to generate.
    pub fn updates(mut self, updates: u64) -> Self {
        self.updates = updates;
        self.bounds = Memo::default();
        self
    }

    /// Sets the per-command payload size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn block_size(mut self, bytes: u32) -> Self {
        assert!(bytes > 0, "block size must be non-zero");
        self.block_size = bytes;
        self.bounds = Memo::default();
        self
    }

    /// Sets the logical footprint in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is smaller than one block.
    pub fn footprint_bytes(mut self, bytes: u64) -> Self {
        assert!(
            bytes >= self.block_size as u64,
            "footprint must hold at least one block"
        );
        self.footprint_bytes = bytes;
        self.bounds = Memo::default();
        self
    }
}

impl CommandSource for RmwWorkload {
    fn label(&self) -> String {
        self.label.clone().unwrap_or_else(|| "rmw".to_string())
    }

    fn len(&self) -> u64 {
        self.updates.saturating_mul(2)
    }

    /// One block draw per read/write pair (none when the footprint holds
    /// one block, whose index is fixed anyway).
    fn command(&self, index: u64) -> HostCommand {
        let blocks = checked_blocks(self.footprint_bytes, self.block_size);
        let mut rng = SimRng::new(self.seed);
        rng.skip(index / 2);
        HostCommand {
            id: index,
            op: if index % 2 == 0 {
                HostOp::Read
            } else {
                HostOp::Write
            },
            offset: rng.uniform_u64(0, blocks - 1) * self.block_size as u64,
            bytes: self.block_size,
            issue_at: SimTime::ZERO,
        }
    }

    fn bounds(&self) -> StreamBounds {
        *self.bounds.get_or_init(|| StreamBounds::scan(stream(self)))
    }

    /// Updates land on uniformly random blocks, so the write-back traffic
    /// is fully random.
    fn random_write_fraction(&self) -> f64 {
        if self.updates == 0 {
            0.0
        } else {
            1.0
        }
    }
}

/// The canonical probe workload for degraded-device campaigns: a read-heavy
/// (85 %) zipfian stream over a small, hot footprint.
///
/// Read-dominance makes the stream maximally sensitive to the fault axes a
/// campaign sweeps — repeated reads of the hot set accumulate read-disturb,
/// and every read pays the adaptive ECC's error-dependent decode latency —
/// while the write minority still drives garbage collection, so block
/// retirement and mid-GC power loss stay observable. The small footprint
/// keeps mapping tables (and therefore recovery replay) cheap enough for
/// wide sweeps.
///
/// Like every generative source, the stream is a pure function of `seed`.
pub fn degraded_probe(seed: u64) -> ZipfianWorkload {
    ZipfianWorkload::new(0.99, seed)
        .read_fraction(0.85)
        .footprint_bytes(64 << 20)
        .command_count(2_048)
        .with_label("degraded-probe")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipfian_is_deterministic_and_skewed() {
        let make = || {
            ZipfianWorkload::new(0.99, 99)
                .command_count(2_000)
                .footprint_bytes(64 << 20)
                .read_fraction(0.0)
        };
        let a = make().commands().into_owned();
        let b = make().commands().into_owned();
        assert_eq!(a, b, "same parameters must produce the same stream");

        // Skew: the most popular block takes far more than the uniform
        // share (2 000 / 16 384 blocks ≈ 0.12 expected per block).
        let mut counts = std::collections::BTreeMap::new();
        for c in &a {
            *counts.entry(c.offset).or_insert(0u32) += 1;
        }
        let hottest = counts.values().copied().max().unwrap();
        assert!(hottest > 100, "hottest block hit {hottest} times");
        // All offsets stay aligned and inside the footprint.
        for c in &a {
            assert_eq!(c.offset % 4096, 0);
            assert!(c.offset + c.bytes as u64 <= 64 << 20);
            assert_eq!(c.op, HostOp::Write);
        }
    }

    #[test]
    fn zipfian_seeds_and_skews_diverge() {
        let base = ZipfianWorkload::new(0.99, 1).command_count(256);
        let reseeded = ZipfianWorkload::new(0.99, 2).command_count(256);
        assert_ne!(
            base.commands().into_owned(),
            reseeded.commands().into_owned()
        );
        let flatter = ZipfianWorkload::new(0.50, 1).command_count(256);
        assert_ne!(
            base.commands().into_owned(),
            flatter.commands().into_owned()
        );
        assert_eq!(base.label(), "zipf-0.99");
        assert_eq!(flatter.label(), "zipf-0.50");
    }

    #[test]
    #[should_panic(expected = "zipfian skew")]
    fn zipfian_rejects_theta_one() {
        let _ = ZipfianWorkload::new(1.0, 0);
    }

    #[test]
    fn bursty_timestamps_follow_the_on_off_shape() {
        let w = BurstyWorkload::new(5).command_count(70).burst(
            32,
            SimTime::from_us(2),
            SimTime::from_ms(1),
        );
        let commands = w.commands();
        assert_eq!(commands.len(), 70);
        // In-burst spacing.
        assert_eq!(
            commands[1].issue_at - commands[0].issue_at,
            SimTime::from_us(2)
        );
        // Burst boundary inserts the idle gap.
        assert_eq!(
            commands[32].issue_at - commands[31].issue_at,
            SimTime::from_ms(1)
        );
        // Timestamps never run backwards.
        for pair in commands.windows(2) {
            assert!(pair[1].issue_at >= pair[0].issue_at);
        }
        assert_eq!(w.label(), "bursty");
        // Determinism.
        assert_eq!(
            commands.into_owned(),
            BurstyWorkload::new(5)
                .command_count(70)
                .burst(32, SimTime::from_us(2), SimTime::from_ms(1))
                .commands()
                .into_owned()
        );
    }

    #[test]
    fn mixed_sizes_respect_weights_and_footprint() {
        let w = MixedSizeWorkload::new([(4096, 9), (128 << 10, 1)], 8)
            .command_count(3_000)
            .footprint_bytes(32 << 20);
        let commands = w.commands();
        let small = commands.iter().filter(|c| c.bytes == 4096).count();
        let large = commands.iter().filter(|c| c.bytes == 128 << 10).count();
        assert_eq!(small + large, 3_000);
        // 9:1 weighting with generous slack.
        assert!(small > 2_400, "small {small}");
        assert!(large > 100, "large {large}");
        for c in commands.iter() {
            assert!(c.offset + c.bytes as u64 <= 32 << 20);
            assert_eq!(c.offset % (128 << 10), 0, "aligned to the largest size");
        }
        assert_eq!(w.label(), "mixed");
    }

    #[test]
    fn zero_weight_sizes_are_dropped_from_the_mix() {
        // A weight-0 entry can never be drawn, so it must not coarsen the
        // offset alignment or the footprint requirement: the stream is
        // identical to the mix without the dead entry.
        let with_dead = MixedSizeWorkload::new([(4096, 1), (1 << 20, 0)], 2)
            .command_count(100)
            .footprint_bytes(64 << 10);
        let without = MixedSizeWorkload::new([(4096, 1)], 2)
            .command_count(100)
            .footprint_bytes(64 << 10);
        assert_eq!(with_dead.commands(), without.commands());
        for c in with_dead.commands().iter() {
            assert_eq!(c.bytes, 4096);
            assert_eq!(c.offset % 4096, 0, "aligned to the largest live size");
        }
    }

    #[test]
    #[should_panic(expected = "size mix")]
    fn mixed_rejects_an_empty_mix() {
        let _ = MixedSizeWorkload::new(std::iter::empty(), 0);
    }

    #[test]
    fn rmw_pairs_reads_with_write_backs() {
        let w = RmwWorkload::new(13).updates(500).footprint_bytes(16 << 20);
        let commands = w.commands();
        assert_eq!(commands.len(), 1_000);
        for (i, pair) in commands.chunks(2).enumerate() {
            assert_eq!(pair[0].id, 2 * i as u64);
            assert_eq!(pair[1].id, 2 * i as u64 + 1);
            assert_eq!(pair[0].op, HostOp::Read);
            assert_eq!(pair[1].op, HostOp::Write);
            assert_eq!(pair[0].offset, pair[1].offset);
        }
        assert_eq!(w.random_write_fraction(), 1.0);
        assert_eq!(RmwWorkload::new(13).updates(0).random_write_fraction(), 0.0);
    }

    #[test]
    fn read_only_mixes_report_no_write_randomness() {
        assert_eq!(
            ZipfianWorkload::new(0.9, 0)
                .read_fraction(1.0)
                .random_write_fraction(),
            0.0
        );
        assert_eq!(
            BurstyWorkload::new(0)
                .read_fraction(2.0)
                .random_write_fraction(),
            0.0,
            "fractions clamp to [0, 1]"
        );
        assert_eq!(
            MixedSizeWorkload::new([(4096, 1)], 0)
                .read_fraction(0.5)
                .random_write_fraction(),
            1.0
        );
    }

    #[test]
    fn label_overrides_keep_parameter_sweeps_distinguishable() {
        // Without an override the three fixed-label generators would all
        // report the same workload coordinate; with_label disambiguates.
        let short = BurstyWorkload::new(1)
            .burst(16, SimTime::from_us(1), SimTime::from_ms(1))
            .with_label("bursty-16");
        let long = BurstyWorkload::new(1)
            .burst(256, SimTime::from_us(1), SimTime::from_ms(1))
            .with_label("bursty-256");
        assert_eq!(short.label(), "bursty-16");
        assert_eq!(long.label(), "bursty-256");
        assert_eq!(
            MixedSizeWorkload::new([(4096, 1)], 0)
                .with_label("mixed-4k")
                .label(),
            "mixed-4k"
        );
        assert_eq!(RmwWorkload::new(0).with_label("rmw-8k").label(), "rmw-8k");
        assert_eq!(
            ZipfianWorkload::new(0.9, 0).with_label("hotset").label(),
            "hotset"
        );
    }

    #[test]
    fn zeta_cache_tracks_parameter_changes() {
        // The cached zeta must follow footprint/block-size changes, or the
        // skew would silently be computed for the wrong block count.
        let narrow = ZipfianWorkload::new(0.99, 3)
            .command_count(512)
            .footprint_bytes(1 << 20);
        let wide = ZipfianWorkload::new(0.99, 3)
            .command_count(512)
            .footprint_bytes(64 << 20);
        assert_ne!(narrow.commands().into_owned(), wide.commands().into_owned());
        // Rebuilding with the same parameters reproduces the same stream
        // (cache is a pure function of the parameters).
        let again = ZipfianWorkload::new(0.99, 3)
            .command_count(512)
            .footprint_bytes(1 << 20);
        assert_eq!(narrow.commands(), again.commands());
        assert_eq!(narrow, again);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn materialisation_rejects_setter_orders_that_break_the_footprint() {
        // footprint_bytes was checked against the old 4 KB block size; the
        // later block_size call grows past it. The per-setter asserts
        // cannot see this — generation must.
        let w = ZipfianWorkload::new(0.9, 0)
            .footprint_bytes(8192)
            .block_size(64 << 10);
        let _ = w.commands();
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn materialisation_rejects_mixes_larger_than_the_default_footprint() {
        // 2 GiB blocks never fit the default 1 GiB footprint, and no setter
        // ran to catch it.
        let w = MixedSizeWorkload::new([(2 << 30, 1)], 0);
        let _ = w.commands();
    }

    #[test]
    fn degraded_probe_is_read_heavy_and_deterministic() {
        let probe = degraded_probe(7);
        assert_eq!(probe.commands(), degraded_probe(7).commands());
        assert_eq!(probe.label(), "degraded-probe");
        let commands = probe.commands();
        assert_eq!(commands.len(), 2_048);
        let reads = commands.iter().filter(|c| c.op == HostOp::Read).count();
        let fraction = reads as f64 / commands.len() as f64;
        assert!((0.80..0.90).contains(&fraction), "read fraction {fraction}");
    }

    #[test]
    fn generative_sources_are_thread_safe() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ZipfianWorkload>();
        assert_send_sync::<BurstyWorkload>();
        assert_send_sync::<MixedSizeWorkload>();
        assert_send_sync::<RmwWorkload>();
    }
}
