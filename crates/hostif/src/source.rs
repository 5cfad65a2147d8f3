//! Pluggable command sources: the single entry point the platform consumes.
//!
//! Everything the simulated SSD executes — synthetic workloads, traces
//! parsed from text or collected from a command list, closure generators —
//! implements one trait, [`CommandSource`]. A source is a random-access stream: it knows
//! its length and yields any command by index, as a pure function of its
//! parameters and that index. The platform never materialises a stream. A
//! session holds its source and a cursor and asks for one command per
//! step, and a fork seeks by setting the cursor. Besides the commands, the
//! platform asks a source for a label for reports, the [`StreamBounds`]
//! that size a session's per-run state, and an estimate of how random its
//! write traffic is (which drives the WAF-based FTL abstraction). New
//! drivers and sweep engines therefore compose with any source without
//! knowing its concrete type.
//!
//! # Example
//!
//! ```
//! use ssdx_hostif::{source_fn, CommandSource, HostCommand, HostOp};
//! use ssdx_sim::SimTime;
//!
//! // A closure-backed source: 64 interleaved 4 KB writes.
//! let source = source_fn("interleaved", 64, |i| HostCommand {
//!     id: i,
//!     op: HostOp::Write,
//!     offset: (i % 2) * (1 << 20) + (i / 2) * 4096,
//!     bytes: 4096,
//!     issue_at: SimTime::ZERO,
//! });
//! assert_eq!(source.len(), 64);
//! assert_eq!(source.command(3).offset, (1 << 20) + 4096);
//! assert_eq!(source.bounds().max_end, (1 << 20) + 32 * 4096);
//! assert!(source.random_write_fraction() > 0.9, "alternating streams look random");
//! ```

use crate::command::{HostCommand, HostOp};
use crate::trace::TracePlayer;
use crate::workload::Workload;
use ssdx_sim::rng::SimRng;
use ssdx_sim::SimTime;
use std::borrow::Cow;
use std::sync::OnceLock;

/// Estimates how random a write stream is: the fraction of write→write
/// transitions whose offset is not contiguous with the end of the previous
/// write.
///
/// The first write of the stream only establishes the baseline — it is
/// counted in neither the numerator nor the denominator, so the denominator
/// is exactly `writes - 1` (the number of transitions). Streams with fewer
/// than two writes have no transitions and report `0.0`. The result is in
/// `[0, 1]` and feeds the WAF abstraction's workload mix.
pub(crate) fn estimate_random_write_fraction(
    commands: impl IntoIterator<Item = HostCommand>,
) -> f64 {
    let mut transitions = 0u64;
    let mut non_contiguous = 0u64;
    let mut expected_next: Option<u64> = None;
    for c in commands.into_iter().filter(|c| c.op == HostOp::Write) {
        if let Some(next) = expected_next {
            transitions += 1;
            if c.offset != next {
                non_contiguous += 1;
            }
        }
        expected_next = Some(c.offset + c.bytes as u64);
    }
    if transitions == 0 {
        0.0
    } else {
        non_contiguous as f64 / transitions as f64
    }
}

/// Every command of `source`, in issue order, generated one at a time.
pub(crate) fn stream<S: CommandSource + ?Sized>(
    source: &S,
) -> impl Iterator<Item = HostCommand> + '_ {
    (0..source.len()).map(move |index| source.command(index))
}

/// The extremes of a command stream that size a session's per-run state:
/// the page-mapped FTL covers [`max_end`](Self::max_end), and the DRAM
/// back-pressure ledger is pre-sized from
/// [`min_write_bytes`](Self::min_write_bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamBounds {
    /// Largest `offset + bytes` over every command; `0` for an empty
    /// stream.
    pub max_end: u64,
    /// Smallest write payload in bytes, a zero-byte write counting as 1,
    /// or `None` when the stream holds no writes. A source may report less
    /// than the true minimum (a lower bound), never more.
    pub min_write_bytes: Option<u32>,
}

impl StreamBounds {
    /// The exact bounds of `commands`, in one pass that allocates nothing.
    pub fn scan(commands: impl IntoIterator<Item = HostCommand>) -> StreamBounds {
        let mut bounds = StreamBounds::default();
        for c in commands {
            bounds.max_end = bounds.max_end.max(c.offset + c.bytes as u64);
            if c.op == HostOp::Write {
                let bytes = c.bytes.max(1);
                bounds.min_write_bytes =
                    Some(bounds.min_write_bytes.map_or(bytes, |m| m.min(bytes)));
            }
        }
        bounds
    }
}

/// A value derived from a source's parameters: computed on first use,
/// then reused by every session, fork and sweep point that reads it. A
/// setter that changes a parameter the value depends on replaces it with
/// `Memo::default()`. Every memo compares equal, so a derived `PartialEq`
/// compares parameters only. The `OnceLock` keeps a source shared by
/// reference across sweep workers safe, and any racing initialiser
/// computes the same value.
#[derive(Debug, Clone, Default)]
pub(crate) struct Memo<T>(OnceLock<T>);

impl<T> Memo<T> {
    /// The cached value, computing it with `init` on first use.
    pub(crate) fn get_or_init(&self, init: impl FnOnce() -> T) -> &T {
        self.0.get_or_init(init)
    }
}

impl<T> PartialEq for Memo<T> {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

/// A source of host commands, the generic input of the simulation platform.
///
/// A source is a random-access stream of [`len`](Self::len) commands:
/// [`command`](Self::command) returns any one of them in O(1). Sessions
/// read commands by index as they step, so a run holds no copy of its
/// stream, and a fork resumes at any index without replaying the ones
/// before it.
///
/// Implemented by [`Workload`] (synthetic generators), [`TracePlayer`]
/// (trace replay, and explicit command lists collected into one),
/// [`FnSource`] (closure generators) and the
/// [`generative`](crate::generative) suite;
/// users can implement it for their own drivers. The trait is object safe,
/// so heterogeneous collections of sources (`Vec<Box<dyn CommandSource>>`)
/// work too.
///
/// # Thread safety
///
/// `Send + Sync` is a supertrait: parallel sweep executors share one source
/// **by reference** across worker threads, and the service keeps a
/// session's source in an `Arc` that its forks share. Every source shipped
/// here is plain data (closure generators are as thread-safe as the closure
/// they wrap). A source built on a `RefCell` or an open file handle can be
/// collected into a [`TracePlayer`] first.
pub trait CommandSource: AsDynSource + Send + Sync {
    /// Short label used in performance reports (e.g. "SW", "trace").
    fn label(&self) -> String;

    /// Number of commands in the stream.
    fn len(&self) -> u64;

    /// `true` if the stream holds no commands.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Command `index` of the stream, in O(1).
    ///
    /// This must be a pure function of the source's parameters and
    /// `index`: a session calls it once per step, and a fork resumes at an
    /// arbitrary index. Generators built on [`SimRng`] seek with
    /// [`SimRng::skip`].
    ///
    /// # Panics
    ///
    /// May panic if `index >= len()`.
    fn command(&self, index: u64) -> HostCommand;

    /// The stream's [`StreamBounds`].
    ///
    /// The default makes one pass over [`command`](Self::command) and
    /// allocates nothing. Sources override it with a closed form where one
    /// exists, or cache the pass.
    fn bounds(&self) -> StreamBounds {
        StreamBounds::scan(stream(self))
    }

    /// Estimated randomness of the write traffic, `0.0` (sequential) to
    /// `1.0` (uniform random), which drives the WAF-based FTL abstraction.
    ///
    /// The default makes one pass over [`command`](Self::command) that
    /// allocates nothing and returns the fraction of write→write
    /// transitions whose offset does not continue the previous write (`0.0`
    /// with fewer than two writes); sources that know their own statistics
    /// (like [`Workload`]) override it.
    fn random_write_fraction(&self) -> f64 {
        estimate_random_write_fraction(stream(self))
    }

    /// The whole stream as one list, in issue order: a convenience for
    /// analyses and tests, which the platform itself never calls.
    ///
    /// Sources that own a command list return it borrowed; the default
    /// collects [`command`](Self::command) over the stream.
    fn commands(&self) -> Cow<'_, [HostCommand]> {
        Cow::Owned(stream(self).collect())
    }
}

/// Views any source, sized or not, as a `&dyn CommandSource`, which is how
/// a session holds a borrowed `&S` for `S: ?Sized` without boxing it.
///
/// A supertrait of [`CommandSource`]: the blanket impl covers every sized
/// source, and `dyn CommandSource` reaches it through its vtable. There is
/// never a reason to implement it by hand.
pub trait AsDynSource {
    /// `self` as a trait object.
    fn as_dyn_source(&self) -> &dyn CommandSource;
}

impl<S: CommandSource> AsDynSource for S {
    fn as_dyn_source(&self) -> &dyn CommandSource {
        self
    }
}

impl<S: CommandSource + ?Sized> CommandSource for &S {
    fn label(&self) -> String {
        (**self).label()
    }

    fn len(&self) -> u64 {
        (**self).len()
    }

    fn command(&self, index: u64) -> HostCommand {
        (**self).command(index)
    }

    fn bounds(&self) -> StreamBounds {
        (**self).bounds()
    }

    fn random_write_fraction(&self) -> f64 {
        (**self).random_write_fraction()
    }

    fn commands(&self) -> Cow<'_, [HostCommand]> {
        (**self).commands()
    }
}

impl CommandSource for Workload {
    fn label(&self) -> String {
        self.pattern.label().to_string()
    }

    fn len(&self) -> u64 {
        self.command_count
    }

    /// Random patterns draw one block index per command (none when the
    /// footprint holds a single block, whose index is fixed anyway), so
    /// command `index` skips `index` draws.
    fn command(&self, index: u64) -> HostCommand {
        let blocks_in_footprint = (self.footprint_bytes / self.block_size as u64).max(1);
        let block_index = if self.pattern.is_random() {
            let mut rng = SimRng::new(self.seed);
            rng.skip(index);
            rng.uniform_u64(0, blocks_in_footprint - 1)
        } else {
            index % blocks_in_footprint
        };
        HostCommand {
            id: index,
            op: self.pattern.op(),
            offset: block_index * self.block_size as u64,
            bytes: self.block_size,
            issue_at: SimTime::ZERO,
        }
    }

    /// Sequential patterns have a closed form: the stream reaches block
    /// `min(commands, blocks) - 1`. Random patterns scan their draws on
    /// every call; a `Workload` is `Copy` data with public fields, so it
    /// caches nothing.
    fn bounds(&self) -> StreamBounds {
        if self.pattern.is_random() {
            return StreamBounds::scan(stream(self));
        }
        let blocks_in_footprint = (self.footprint_bytes / self.block_size as u64).max(1);
        StreamBounds {
            max_end: self.command_count.min(blocks_in_footprint) * self.block_size as u64,
            min_write_bytes: (self.pattern.op() == HostOp::Write && self.command_count > 0)
                .then_some(self.block_size.max(1)),
        }
    }

    /// Synthetic workloads know their own statistics: the random patterns
    /// are uniformly random (`1.0`), the sequential ones perfectly
    /// contiguous (`0.0`). Read-only random patterns also report `1.0`, as
    /// the paper's experiments treat pattern randomness — not just write
    /// randomness — as the FTL-state proxy.
    fn random_write_fraction(&self) -> f64 {
        if self.pattern.is_random() {
            1.0
        } else {
            0.0
        }
    }
}

impl CommandSource for TracePlayer {
    fn label(&self) -> String {
        "trace".to_string()
    }

    fn len(&self) -> u64 {
        TracePlayer::commands(self).len() as u64
    }

    fn command(&self, index: u64) -> HostCommand {
        TracePlayer::commands(self)[index as usize]
    }

    fn commands(&self) -> Cow<'_, [HostCommand]> {
        Cow::Borrowed(TracePlayer::commands(self))
    }
}

/// A closure-backed command source: the generator is invoked with a
/// command's index each time that command is read. Build one with
/// [`source_fn`].
///
/// The stream's bounds are computed by one pass over the closure on first
/// use and cached; the default [`CommandSource::random_write_fraction`]
/// makes one more pass to estimate the write randomness.
#[derive(Debug, Clone)]
pub struct FnSource<F> {
    label: String,
    count: u64,
    generate: F,
    bounds: Memo<StreamBounds>,
}

impl<F> FnSource<F>
where
    F: Fn(u64) -> HostCommand,
{
    /// Creates a source that generates `count` commands by calling
    /// `generate(0..count)`.
    pub fn new(label: impl Into<String>, count: u64, generate: F) -> Self {
        FnSource {
            label: label.into(),
            count,
            generate,
            bounds: Memo::default(),
        }
    }
}

impl<F> CommandSource for FnSource<F>
where
    F: Fn(u64) -> HostCommand + Send + Sync,
{
    fn label(&self) -> String {
        self.label.clone()
    }

    fn len(&self) -> u64 {
        self.count
    }

    fn command(&self, index: u64) -> HostCommand {
        (self.generate)(index)
    }

    fn bounds(&self) -> StreamBounds {
        *self.bounds.get_or_init(|| StreamBounds::scan(stream(self)))
    }
}

/// Convenience constructor for [`FnSource`]: a command source backed by a
/// closure from command index to [`HostCommand`].
pub fn source_fn<F>(label: impl Into<String>, count: u64, generate: F) -> FnSource<F>
where
    F: Fn(u64) -> HostCommand,
{
    FnSource::new(label, count, generate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::AccessPattern;
    use ssdx_sim::SimTime;

    fn write(id: u64, offset: u64) -> HostCommand {
        HostCommand {
            id,
            op: HostOp::Write,
            offset,
            bytes: 4096,
            issue_at: SimTime::ZERO,
        }
    }

    #[test]
    fn estimator_reports_zero_for_sequential_streams() {
        let cmds: Vec<HostCommand> = (0..10).map(|i| write(i, i * 4096)).collect();
        assert_eq!(estimate_random_write_fraction(cmds), 0.0);
    }

    #[test]
    fn estimator_reports_one_for_fully_scattered_streams() {
        let cmds: Vec<HostCommand> = (0..10).map(|i| write(i, i * (1 << 20))).collect();
        assert_eq!(estimate_random_write_fraction(cmds), 1.0);
    }

    #[test]
    fn estimator_denominator_is_transitions_not_writes() {
        // Three writes, two transitions, one of them non-contiguous: the
        // fraction must be 1/2, not 1/3 (the first write only sets the
        // baseline).
        let cmds = vec![write(0, 0), write(1, 4096), write(2, 1 << 20)];
        assert_eq!(estimate_random_write_fraction(cmds), 0.5);
    }

    #[test]
    fn estimator_handles_streams_without_transitions() {
        assert_eq!(estimate_random_write_fraction([]), 0.0);
        assert_eq!(estimate_random_write_fraction([write(0, 777)]), 0.0);
        // Reads never count.
        let read = HostCommand {
            id: 1,
            op: HostOp::Read,
            offset: 0,
            bytes: 4096,
            issue_at: SimTime::ZERO,
        };
        assert_eq!(estimate_random_write_fraction([read, read]), 0.0);
    }

    #[test]
    fn workload_source_matches_its_pattern() {
        let sw = Workload::builder(AccessPattern::SequentialWrite)
            .command_count(16)
            .build();
        assert_eq!(CommandSource::label(&sw), "SW");
        assert_eq!(sw.random_write_fraction(), 0.0);
        assert_eq!(CommandSource::commands(&sw).len(), 16);

        let rr = Workload::builder(AccessPattern::RandomRead)
            .command_count(4)
            .build();
        assert_eq!(rr.random_write_fraction(), 1.0);
    }

    #[test]
    fn trace_source_estimates_from_the_stream() {
        let trace = TracePlayer::parse("0 write 0 4096\n1 write 4096 4096\n").unwrap();
        assert_eq!(CommandSource::label(&trace), "trace");
        assert_eq!(trace.random_write_fraction(), 0.0);
        assert_eq!(CommandSource::commands(&trace).len(), 2);
    }

    #[test]
    fn fn_source_generates_on_demand() {
        let src = source_fn("gen", 8, |i| write(i, i * 8192));
        let cmds = src.commands();
        assert_eq!(cmds.len(), 8);
        assert_eq!(cmds[3].offset, 3 * 8192);
        // Every page is 8 KB apart, so no write is contiguous.
        assert_eq!(src.random_write_fraction(), 1.0);
    }

    #[test]
    fn fn_source_caches_its_bounds() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let calls = AtomicU32::new(0);
        let src = source_fn("gen", 4, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            write(i, i * 8192)
        });
        let bounds = StreamBounds {
            max_end: 3 * 8192 + 4096,
            min_write_bytes: Some(4096),
        };
        assert_eq!(src.bounds(), bounds);
        assert_eq!(src.bounds(), bounds);
        assert_eq!(calls.load(Ordering::Relaxed), 4, "one pass, then the cache");
    }

    #[test]
    fn sequential_workload_bounds_have_a_closed_form() {
        for (count, footprint) in [(0u64, 1u64 << 20), (3, 1 << 20), (1000, 16 << 10)] {
            let w = Workload::builder(AccessPattern::SequentialWrite)
                .command_count(count)
                .footprint_bytes(footprint)
                .build();
            assert_eq!(w.bounds(), StreamBounds::scan(w.commands()));
        }
        let reads = Workload::builder(AccessPattern::SequentialRead)
            .command_count(8)
            .build();
        assert_eq!(reads.bounds().min_write_bytes, None);
        assert_eq!(reads.bounds().max_end, 8 * 4096);
    }

    #[test]
    fn references_and_boxes_are_sources_too() {
        let w = Workload::builder(AccessPattern::SequentialWrite)
            .command_count(4)
            .build();
        fn takes_source(s: impl CommandSource) -> usize {
            s.commands().len()
        }
        // A reference is a CommandSource too, so the workload survives the
        // call and can still be boxed afterwards.
        let by_ref: &Workload = &w;
        assert_eq!(takes_source(by_ref), 4);
        let boxed: Box<dyn CommandSource> = Box::new(w);
        assert_eq!(boxed.commands().len(), 4);
        assert_eq!(boxed.label(), "SW");
    }

    #[test]
    fn shipped_sources_are_thread_safe() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Workload>();
        assert_send_sync::<TracePlayer>();
        assert_send_sync::<HostCommand>();
        // Closure sources inherit the closure's thread safety.
        fn fn_source_is_send_sync<F: Fn(u64) -> HostCommand + Send + Sync>(
            s: FnSource<F>,
        ) -> impl Send + Sync {
            s
        }
        let _ = fn_source_is_send_sync(source_fn("t", 1, |i| write(i, 0)));
    }
}
