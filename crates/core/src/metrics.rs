//! Tail-latency metrics: alloc-free latency histograms, per-command-class
//! aggregation and the tail-latency workload study.
//!
//! Mean throughput — what the paper's figures report — hides exactly the
//! behaviour large fleets are judged on: the p99/p99.9 latency a skewed,
//! bursty workload sees once queues build. This module provides the
//! measurement substrate for those questions:
//!
//! * [`LatencyHistogram`] — a fixed-precision log-bucketed histogram with
//!   **zero heap allocations** (its buckets are one inline array, `Copy`
//!   friendly), supporting `record`/`merge`/`quantile` with a bounded
//!   relative error of [`LatencyHistogram::RELATIVE_ERROR`];
//! * [`CommandClass`] / [`ClassHistograms`] — one histogram per host command
//!   class (read / write / trim);
//! * [`SteadyStateCutoff`] — configurable warmup trimming, so cache-fill
//!   transients do not pollute steady-state percentiles;
//! * [`TailSummary`] — the p50/p95/p99/p99.9 digest every
//!   [`PerfReport`](crate::PerfReport) now carries per class;
//! * [`tail_latency_study`] — an [`Explorer`]-based sweep running the
//!   generative workload suite (zipfian, bursty, mixed block sizes,
//!   read-modify-write) and tabulating per-class percentiles.
//!
//! The per-step recording path is pinned allocation-free by the
//! `alloctrack` suite, and the histogram's quantile error bound is pinned
//! by a property test against exact sorted-vector quantiles
//! (`tests/tail_metrics.rs`).

use crate::config::SsdConfig;
use crate::explorer::{Explorer, Sweep, SweepError};
use ssdx_hostif::{BurstyWorkload, HostOp, MixedSizeWorkload, RmwWorkload, ZipfianWorkload};
use ssdx_sim::codec::{DecodeError, Decoder, Encoder};
use ssdx_sim::SimTime;
use std::fmt::Write as _;

/// Subdivisions per power-of-two octave (as a bit count): 32 sub-buckets,
/// bounding the quantile relative error at 1/32.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave.
const SUBS: usize = 1 << SUB_BITS;
/// Octaves covering the full `u64` nanosecond range (values below `SUBS`
/// are stored exactly in octave 0).
const OCTAVES: usize = 64 - SUB_BITS as usize + 1;
/// Total bucket count.
const BUCKETS: usize = OCTAVES * SUBS;

/// An alloc-free, fixed-precision, log-bucketed latency histogram.
///
/// Buckets follow the log-linear scheme of HdrHistogram: each power-of-two
/// octave of nanoseconds is split into 32 linear sub-buckets, so any
/// recorded value is resolved within a relative error of
/// [`RELATIVE_ERROR`](Self::RELATIVE_ERROR) (≈ 3.1 %) across the whole
/// `u64` nanosecond range; values below 32 ns are stored exactly. The
/// bucket array is inline (`Copy`-friendly) — constructing, recording,
/// merging and querying never touch the heap, which is what lets the
/// session hot path record every command without breaking the platform's
/// zero-allocations-per-step property (pinned by the `alloctrack` suite).
///
/// [`quantile`](Self::quantile) returns the upper bound of the bucket
/// containing the requested rank (clamped to the observed maximum), so the
/// returned value is always ≥ the exact quantile and within one bucket's
/// relative error of it — the bound the `tail_metrics` property suite
/// asserts against exact sorted-vector quantiles.
///
/// It is the workspace's one latency histogram: the steady-state
/// per-class histograms behind
/// [`PerfReport::class_latency`](crate::PerfReport::class_latency) and the
/// whole-run [`PerfReport::latency`](crate::PerfReport::latency) are both
/// this type. The report's golden `Debug` capture and its p99 show the
/// paper-era power-of-two buckets, derived exactly from these: every
/// log-linear bucket lies inside one power-of-two bucket.
///
/// # Example
///
/// ```
/// use ssdx_core::LatencyHistogram;
/// use ssdx_sim::SimTime;
///
/// let mut h = LatencyHistogram::new();
/// for us in 1..=1000u64 {
///     h.record(SimTime::from_us(us));
/// }
/// assert_eq!(h.count(), 1000);
/// let p99 = h.quantile(0.99);
/// assert!(p99 >= SimTime::from_us(990) && p99 <= SimTime::from_us(1025));
///
/// // Merging is exact: bucket counts add.
/// let mut other = LatencyHistogram::new();
/// other.record(SimTime::from_us(5000));
/// h.merge(&other);
/// assert_eq!(h.count(), 1001);
/// assert_eq!(h.max(), SimTime::from_us(5000));
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl LatencyHistogram {
    /// Upper bound on the relative error of [`quantile`](Self::quantile):
    /// one sub-bucket's width relative to its octave, `1/32`.
    pub const RELATIVE_ERROR: f64 = 1.0 / SUBS as f64;

    /// Creates an empty histogram. No heap allocation — the buckets live
    /// inline.
    pub const fn new() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Bucket index for a nanosecond value.
    #[inline]
    fn index(ns: u64) -> usize {
        if ns < SUBS as u64 {
            return ns as usize;
        }
        let exponent = 63 - ns.leading_zeros(); // >= SUB_BITS
        let shift = exponent - SUB_BITS;
        let sub = ((ns >> shift) & (SUBS as u64 - 1)) as usize;
        (exponent - SUB_BITS + 1) as usize * SUBS + sub
    }

    /// Smallest nanosecond value mapping to bucket `i`.
    #[inline]
    fn lower_bound(i: usize) -> u64 {
        let octave = i / SUBS;
        let sub = (i % SUBS) as u64;
        if octave == 0 {
            sub
        } else {
            (SUBS as u64 + sub) << (octave - 1)
        }
    }

    /// Largest nanosecond value mapping to bucket `i`.
    #[inline]
    fn upper_bound(i: usize) -> u64 {
        if i + 1 >= BUCKETS {
            u64::MAX
        } else {
            Self::lower_bound(i + 1) - 1
        }
    }

    /// Records one latency sample.
    #[inline]
    pub fn record(&mut self, latency: SimTime) {
        let ns = latency.as_ns();
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean recorded latency, or zero when empty.
    pub fn mean(&self) -> SimTime {
        if self.count == 0 {
            return SimTime::ZERO;
        }
        SimTime::from_ns((self.sum_ns / self.count as u128) as u64)
    }

    /// Smallest recorded latency, or zero when empty.
    pub fn min(&self) -> SimTime {
        if self.count == 0 {
            SimTime::ZERO
        } else {
            SimTime::from_ns(self.min_ns)
        }
    }

    /// Largest recorded latency, or zero when empty.
    pub fn max(&self) -> SimTime {
        SimTime::from_ns(self.max_ns)
    }

    /// Adds every sample of `other` into `self`.
    ///
    /// Merging is exact (bucket counts add), commutative and associative —
    /// merging per-shard histograms in any order yields the same result,
    /// which the `tail_metrics` property suite pins.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Latency at quantile `q` (`0.0..=1.0`), resolved to the upper bound of
    /// the bucket holding that rank and clamped to the observed maximum.
    /// Returns zero when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `0.0..=1.0`.
    pub fn quantile(&self, q: f64) -> SimTime {
        assert!((0.0..=1.0).contains(&q), "quantile must be in 0..=1");
        if self.count == 0 {
            return SimTime::ZERO;
        }
        let rank = ((q * self.count as f64).ceil().max(1.0)) as u64;
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return SimTime::from_ns(Self::upper_bound(i).min(self.max_ns));
            }
        }
        self.max()
    }

    /// Latency at percentile `p` (`0.0..=100.0`); convenience for
    /// [`quantile`](Self::quantile)`(p / 100)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=100.0`.
    pub fn percentile(&self, p: f64) -> SimTime {
        assert!((0.0..=100.0).contains(&p), "percentile must be in 0..=100");
        self.quantile(p / 100.0)
    }

    /// Encodes the histogram, in stable field order: count, nanosecond sum,
    /// min, max, then the bucket array encoded sparsely as the number of
    /// non-zero buckets followed by ascending `(index, count)` pairs — a
    /// steady-state latency distribution touches a few dozen of the 1 920
    /// buckets, so the dense array would be almost all zeros.
    pub fn encode_state(&self, enc: &mut Encoder) {
        enc.put_u64(self.count);
        enc.put_u128(self.sum_ns);
        enc.put_u64(self.min_ns);
        enc.put_u64(self.max_ns);
        let nonzero = self.buckets.iter().filter(|&&b| b != 0).count();
        enc.put_len(nonzero);
        for (i, &b) in self.buckets.iter().enumerate() {
            if b != 0 {
                enc.put_u32(i as u32);
                enc.put_u64(b);
            }
        }
    }

    /// Restores a histogram captured by
    /// [`encode_state`](Self::encode_state), replacing `self` entirely.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or malformed input, including
    /// bucket indices that are out of range, out of order, or duplicated.
    pub fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        let mut h = LatencyHistogram::new();
        h.count = dec.get_u64()?;
        h.sum_ns = dec.get_u128()?;
        h.min_ns = dec.get_u64()?;
        h.max_ns = dec.get_u64()?;
        let nonzero = dec.get_len()?;
        if nonzero > BUCKETS {
            return Err(dec.invalid("more non-zero buckets than buckets"));
        }
        let mut prev: Option<u32> = None;
        for _ in 0..nonzero {
            let i = dec.get_u32()?;
            if i as usize >= BUCKETS {
                return Err(dec.invalid("histogram bucket index out of range"));
            }
            if prev.is_some_and(|p| p >= i) {
                return Err(dec.invalid("histogram bucket indices out of order"));
            }
            prev = Some(i);
            h.buckets[i as usize] = dec.get_u64()?;
        }
        *self = h;
        Ok(())
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    /// Compact rendering: the 1 920-entry bucket array is summarised as its
    /// derived statistics instead of dumped raw.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("min", &self.min())
            .field("max", &self.max())
            .finish()
    }
}

/// The paper-era power-of-two view of a [`LatencyHistogram`]. A private
/// module, so the view's `Debug` impl stays out of the public API surface.
mod pow2 {
    use super::LatencyHistogram;
    use ssdx_sim::SimTime;
    use std::fmt;

    /// Buckets of the view.
    const BUCKETS: usize = 48;

    /// A [`LatencyHistogram`] in the paper-era power-of-two layout: bucket
    /// 0 holds 0 ns, bucket `i` holds `[2^(i-1), 2^i)` ns and the last
    /// bucket everything from 2^46 ns up. This is the layout the report's
    /// golden `Debug` capture and
    /// [`PerfReport::p99_latency`](crate::PerfReport::p99_latency) show.
    pub(crate) struct Pow2View<'a> {
        hist: &'a LatencyHistogram,
        buckets: [u64; BUCKETS],
    }

    impl LatencyHistogram {
        /// This histogram in the power-of-two layout. The derivation is
        /// exact: every value in a log-linear bucket has the bit length of
        /// the bucket's lower bound (octave k >= 1 holds
        /// `[2^(k+4), 2^(k+5))`, octave 0 single values), and the bit
        /// length is the power-of-two bucket.
        pub(crate) fn pow2(&self) -> Pow2View<'_> {
            let mut buckets = [0u64; BUCKETS];
            for (i, &n) in self.buckets.iter().enumerate() {
                let bit_length = (u64::BITS - Self::lower_bound(i).leading_zeros()) as usize;
                buckets[bit_length.min(BUCKETS - 1)] += n;
            }
            Pow2View {
                hist: self,
                buckets,
            }
        }
    }

    impl Pow2View<'_> {
        /// Latency at percentile `p` (`0.0..=100.0`), resolved to the upper
        /// bound of the power-of-two bucket holding that rank and clamped
        /// to the observed maximum. Zero when empty.
        pub(crate) fn percentile(&self, p: f64) -> SimTime {
            let count = self.hist.count;
            if count == 0 {
                return SimTime::ZERO;
            }
            let rank = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
            let mut seen = 0;
            for (i, n) in self.buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    let upper_ns = if i == 0 { 1 } else { 1u64 << i };
                    return SimTime::from_ns(upper_ns.min(self.hist.max_ns.max(1)));
                }
            }
            self.hist.max()
        }
    }

    impl fmt::Debug for Pow2View<'_> {
        /// The golden capture format: the bucket array and the raw running
        /// statistics, field for field.
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("LatencyHistogram")
                .field("buckets", &self.buckets)
                .field("count", &self.hist.count)
                .field("sum_ns", &self.hist.sum_ns)
                .field("min_ns", &self.hist.min_ns)
                .field("max_ns", &self.hist.max_ns)
                .finish()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::LatencyHistogram;
        use proptest::prelude::*;
        use ssdx_sim::SimTime;

        /// The power-of-two histogram reports used to record into, kept
        /// here only as the oracle the derived view must reproduce: same
        /// layout, same derived `Debug`, same bucketing, mean and
        /// percentile.
        mod legacy {
            use ssdx_sim::SimTime;

            #[derive(Debug)]
            pub(super) struct LatencyHistogram {
                buckets: Vec<u64>,
                count: u64,
                sum_ns: u128,
                min_ns: u64,
                max_ns: u64,
            }

            const BUCKETS: usize = 48;

            impl LatencyHistogram {
                pub(super) fn new() -> Self {
                    LatencyHistogram {
                        buckets: vec![0; BUCKETS],
                        count: 0,
                        sum_ns: 0,
                        min_ns: u64::MAX,
                        max_ns: 0,
                    }
                }

                pub(super) fn record(&mut self, latency: SimTime) {
                    let ns = latency.as_ns();
                    let bucket = if ns == 0 {
                        0
                    } else {
                        (64 - ns.leading_zeros() as usize).min(BUCKETS - 1)
                    };
                    self.buckets[bucket] += 1;
                    self.count += 1;
                    self.sum_ns += ns as u128;
                    self.min_ns = self.min_ns.min(ns);
                    self.max_ns = self.max_ns.max(ns);
                }

                pub(super) fn mean(&self) -> SimTime {
                    if self.count == 0 {
                        return SimTime::ZERO;
                    }
                    SimTime::from_ns((self.sum_ns / self.count as u128) as u64)
                }

                pub(super) fn percentile(&self, p: f64) -> SimTime {
                    if self.count == 0 {
                        return SimTime::ZERO;
                    }
                    let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
                    let mut seen = 0;
                    for (i, n) in self.buckets.iter().enumerate() {
                        seen += n;
                        if seen >= rank {
                            let upper_ns = if i == 0 { 1 } else { 1u64 << i };
                            return SimTime::from_ns(upper_ns.min(self.max_ns.max(1)));
                        }
                    }
                    SimTime::from_ns(self.max_ns)
                }
            }
        }

        /// Samples at every edge of the derivation: zero, the exact
        /// octave-0 values, both sides of each power of two, the last
        /// power-of-two bucket from 2^46 ns up, and the whole `SimTime`
        /// nanosecond range.
        fn sample() -> impl Strategy<Value = u64> {
            let max_ns = SimTime::MAX.as_ns();
            prop_oneof![
                Just(0u64),
                1u64..32,
                (1u32..55, 0u64..3).prop_map(|(k, d)| (1u64 << k) - 1 + d),
                (1u64 << 46)..=max_ns,
                0u64..=max_ns,
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn derived_view_matches_the_legacy_histogram(
                samples in prop::collection::vec(sample(), 0..200)
            ) {
                let mut hist = LatencyHistogram::new();
                let mut oracle = legacy::LatencyHistogram::new();
                for &ns in &samples {
                    hist.record(SimTime::from_ns(ns));
                    oracle.record(SimTime::from_ns(ns));
                }
                let view = hist.pow2();
                prop_assert_eq!(format!("{view:?}"), format!("{oracle:?}"));
                prop_assert_eq!(hist.mean(), oracle.mean());
                for p in [0.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                    prop_assert_eq!(view.percentile(p), oracle.percentile(p), "p{}", p);
                }
            }
        }
    }
}

/// The class of a host command, as aggregated by [`ClassHistograms`].
///
/// # Example
///
/// ```
/// use ssdx_core::CommandClass;
/// use ssdx_hostif::HostOp;
///
/// assert_eq!(CommandClass::from(HostOp::Write), CommandClass::Write);
/// assert_eq!(CommandClass::Read.label(), "read");
/// assert_eq!(CommandClass::ALL.len(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandClass {
    /// Host reads.
    Read,
    /// Host writes.
    Write,
    /// TRIM / deallocate commands.
    Trim,
}

impl CommandClass {
    /// All classes, in reporting order.
    pub const ALL: [CommandClass; 3] =
        [CommandClass::Read, CommandClass::Write, CommandClass::Trim];

    /// Lower-case label used in tables and JSON ("read"/"write"/"trim").
    pub fn label(self) -> &'static str {
        match self {
            CommandClass::Read => "read",
            CommandClass::Write => "write",
            CommandClass::Trim => "trim",
        }
    }

    #[inline]
    fn slot(self) -> usize {
        match self {
            CommandClass::Read => 0,
            CommandClass::Write => 1,
            CommandClass::Trim => 2,
        }
    }
}

impl From<HostOp> for CommandClass {
    fn from(op: HostOp) -> Self {
        match op {
            HostOp::Read => CommandClass::Read,
            HostOp::Write => CommandClass::Write,
            HostOp::Trim => CommandClass::Trim,
        }
    }
}

/// One [`LatencyHistogram`] per command class (read / write / trim).
///
/// This is what a [`SimSession`](crate::SimSession) records during a run
/// (post-warmup, see [`SteadyStateCutoff`]) and what every
/// [`PerfReport`](crate::PerfReport) carries as
/// [`class_latency`](crate::PerfReport::class_latency). Like the underlying
/// histograms it never allocates.
///
/// # Example
///
/// ```
/// use ssdx_core::{ClassHistograms, CommandClass};
/// use ssdx_hostif::HostOp;
/// use ssdx_sim::SimTime;
///
/// let mut classes = ClassHistograms::new();
/// classes.record(HostOp::Read, SimTime::from_us(80));
/// classes.record(HostOp::Write, SimTime::from_us(250));
/// assert_eq!(classes.class(CommandClass::Read).count(), 1);
/// assert_eq!(classes.total().count(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassHistograms {
    classes: [LatencyHistogram; 3],
}

impl ClassHistograms {
    /// Creates empty per-class histograms.
    pub const fn new() -> Self {
        ClassHistograms {
            classes: [LatencyHistogram::new(); 3],
        }
    }

    /// Records one sample into the class of `op`.
    #[inline]
    pub fn record(&mut self, op: HostOp, latency: SimTime) {
        self.classes[CommandClass::from(op).slot()].record(latency);
    }

    /// The histogram of one class.
    pub fn class(&self, class: CommandClass) -> &LatencyHistogram {
        &self.classes[class.slot()]
    }

    /// Total samples across all classes.
    pub fn count(&self) -> u64 {
        self.classes.iter().map(LatencyHistogram::count).sum()
    }

    /// All classes merged into one histogram.
    pub fn total(&self) -> LatencyHistogram {
        let mut total = LatencyHistogram::new();
        for h in &self.classes {
            total.merge(h);
        }
        total
    }

    /// Merges every class of `other` into `self` (exact, order
    /// independent).
    pub fn merge(&mut self, other: &ClassHistograms) {
        for (mine, theirs) in self.classes.iter_mut().zip(other.classes.iter()) {
            mine.merge(theirs);
        }
    }

    /// One [`TailSummary`] per class, in [`CommandClass::ALL`] order.
    pub fn summaries(&self) -> [TailSummary; 3] {
        CommandClass::ALL.map(|class| TailSummary::from_histogram(class, self.class(class)))
    }

    /// Encodes every class histogram in [`CommandClass::ALL`] order.
    pub fn encode_state(&self, enc: &mut Encoder) {
        for h in &self.classes {
            h.encode_state(enc);
        }
    }

    /// Restores state captured by [`encode_state`](Self::encode_state).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or malformed input.
    pub fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        for h in &mut self.classes {
            h.decode_state(dec)?;
        }
        Ok(())
    }
}

impl Default for ClassHistograms {
    fn default() -> Self {
        Self::new()
    }
}

/// Warmup trimming for steady-state tail metrics: which completions a
/// session's per-class histograms admit.
///
/// The transient while caches fill and queues ramp up is not what a fleet's
/// p99 means; trimming it is standard benchmarking practice (and what the
/// `experiments -- tails` driver does). The cutoff never affects the
/// whole-run [`PerfReport::latency`](crate::PerfReport::latency) histogram,
/// which merges the trimmed warmup back in, so existing report fields stay
/// byte-identical.
///
/// # Example
///
/// ```
/// use ssdx_core::SteadyStateCutoff;
/// use ssdx_sim::SimTime;
///
/// // Skip the first 100 completions.
/// let by_count = SteadyStateCutoff::Commands(100);
/// assert!(!by_count.admits(99, SimTime::ZERO));
/// assert!(by_count.admits(100, SimTime::ZERO));
///
/// // Skip everything completing before 1 ms of simulated time.
/// let by_time = SteadyStateCutoff::SimulatedTime(SimTime::from_ms(1));
/// assert!(by_time.admits(0, SimTime::from_ms(2)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SteadyStateCutoff {
    /// No trimming: every completion is recorded (the default).
    #[default]
    None,
    /// Skip the first `n` commands of the stream (by stream index).
    Commands(u64),
    /// Skip completions whose host-visible completion instant is earlier
    /// than the given simulated time.
    SimulatedTime(SimTime),
}

impl SteadyStateCutoff {
    /// `true` if a completion with the given stream index and completion
    /// instant belongs to the steady state.
    #[inline]
    pub fn admits(&self, index: u64, completed_at: SimTime) -> bool {
        match *self {
            SteadyStateCutoff::None => true,
            SteadyStateCutoff::Commands(n) => index >= n,
            SteadyStateCutoff::SimulatedTime(t) => completed_at >= t,
        }
    }
}

/// The percentile digest of one command class: what `experiments -- tails`
/// prints and what dashboards would ingest.
///
/// # Example
///
/// ```
/// use ssdx_core::{CommandClass, LatencyHistogram, TailSummary};
/// use ssdx_sim::SimTime;
///
/// let mut h = LatencyHistogram::new();
/// for us in 1..=100u64 {
///     h.record(SimTime::from_us(us));
/// }
/// let tail = TailSummary::from_histogram(CommandClass::Read, &h);
/// assert_eq!(tail.count, 100);
/// assert!(tail.p50 <= tail.p95 && tail.p95 <= tail.p99 && tail.p99 <= tail.p999);
/// assert!(tail.p999 <= tail.max);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailSummary {
    /// The command class summarised.
    pub class: CommandClass,
    /// Samples in the class (post-warmup).
    pub count: u64,
    /// Mean latency.
    pub mean: SimTime,
    /// Median latency.
    pub p50: SimTime,
    /// 95th-percentile latency.
    pub p95: SimTime,
    /// 99th-percentile latency.
    pub p99: SimTime,
    /// 99.9th-percentile latency.
    pub p999: SimTime,
    /// Largest observed latency.
    pub max: SimTime,
}

impl TailSummary {
    /// Digests one class histogram into its headline percentiles.
    pub fn from_histogram(class: CommandClass, h: &LatencyHistogram) -> Self {
        TailSummary {
            class,
            count: h.count(),
            mean: h.mean(),
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
            p999: h.quantile(0.999),
            max: h.max(),
        }
    }
}

/// The result of a [`tail_latency_study`]: one sweep point per workload
/// (the "workload" axis), each carrying a full
/// [`PerfReport`](crate::PerfReport) with per-class histograms.
///
/// # Example
///
/// ```no_run
/// use ssdx_core::{metrics, SsdConfig, SteadyStateCutoff};
///
/// let study = metrics::tail_latency_study(
///     &SsdConfig::default(),
///     2_048,
///     SteadyStateCutoff::Commands(256),
/// )?;
/// println!("{}", study.to_table());
/// # Ok::<(), ssdx_core::SweepError>(())
/// ```
#[must_use = "a tail study carries the measured percentiles"]
#[derive(Debug, Clone)]
pub struct TailStudy {
    /// The underlying sweep, one point per workload.
    pub sweep: Sweep,
}

impl TailStudy {
    /// Formats the study as an aligned percentile table (all times in
    /// microseconds): one row per workload × command class (classes with
    /// no samples are skipped).
    ///
    /// Rendered through one shared `fmt::Write` buffer — no per-cell
    /// `String` allocations; the exact rendering is pinned by a unit test.
    pub fn to_table(&self) -> String {
        let mut out = String::with_capacity(128 + self.sweep.points.len() * 256);
        let _ = writeln!(
            out,
            "{:<22} {:<6} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "workload", "class", "count", "mean(us)", "p50(us)", "p95(us)", "p99(us)", "p99.9(us)"
        );
        for point in &self.sweep.points {
            let workload = point.value("workload").unwrap_or(&point.report.workload);
            for tail in point.report.tails() {
                if tail.count == 0 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "{:<22} {:<6} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
                    workload,
                    tail.class.label(),
                    tail.count,
                    tail.mean.as_us_f64(),
                    tail.p50.as_us_f64(),
                    tail.p95.as_us_f64(),
                    tail.p99.as_us_f64(),
                    tail.p999.as_us_f64(),
                );
            }
        }
        out
    }

    /// Machine-readable JSON emission (hand rolled — the workspace has no
    /// serialization framework), mirroring `experiments -- tails --json`.
    /// Workload labels are caller-chosen strings and are JSON-escaped.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.sweep.points.len() * 512);
        out.push_str("{\n  \"schema\": \"ssdx-tail-latency/v1\",\n  \"workloads\": [\n");
        for (wi, point) in self.sweep.points.iter().enumerate() {
            let workload = point.value("workload").unwrap_or(&point.report.workload);
            let _ = writeln!(out, "    {{");
            out.push_str("      \"workload\": \"");
            push_json_escaped(&mut out, workload);
            out.push_str("\",\n");
            let _ = writeln!(out, "      \"classes\": [");
            let tails: Vec<TailSummary> = point
                .report
                .tails()
                .into_iter()
                .filter(|t| t.count > 0)
                .collect();
            for (ci, tail) in tails.iter().enumerate() {
                let _ = write!(
                    out,
                    "        {{\"class\": \"{}\", \"count\": {}, \"mean_ns\": {}, \
                     \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \
                     \"max_ns\": {}}}",
                    tail.class.label(),
                    tail.count,
                    tail.mean.as_ns(),
                    tail.p50.as_ns(),
                    tail.p95.as_ns(),
                    tail.p99.as_ns(),
                    tail.p999.as_ns(),
                    tail.max.as_ns(),
                );
                out.push_str(if ci + 1 < tails.len() { ",\n" } else { "\n" });
            }
            let _ = writeln!(out, "      ]");
            out.push_str("    }");
            out.push_str(if wi + 1 < self.sweep.points.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Appends `s` to `out` with JSON string escaping (quotes, backslashes and
/// control characters) — labels are caller-chosen and must not be able to
/// break the emitted document. Shared with the fault campaign's JSON
/// emission ([`crate::faults::FaultStudy::to_json`]).
pub(crate) fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Runs the generative workload suite — zipfian-skewed, bursty on/off,
/// mixed block sizes and read-modify-write — on `base`, reporting
/// steady-state per-class tail latencies for each workload.
///
/// The workloads fan out as a "workload" axis through
/// [`Explorer::run_workloads`]; each point's report carries the full
/// per-class histograms, digested by [`TailStudy::to_table`]. All four
/// sources are seeded from `base.seed`, so the study is fully
/// deterministic: same configuration, same table, byte for byte.
///
/// # Errors
///
/// Returns [`SweepError::InvalidPoint`] if `base` does not validate.
pub fn tail_latency_study(
    base: &SsdConfig,
    commands_per_workload: u64,
    warmup: SteadyStateCutoff,
) -> Result<TailStudy, SweepError> {
    tail_study_impl(base, commands_per_workload, warmup, SteadyStateCutoff::None)
}

/// [`tail_latency_study`] with warm-start execution: each workload's
/// warmup prefix (the `warmup` cutoff) is simulated once, captured as a
/// [`Snapshot`](crate::Snapshot), and every run of that workload's
/// platform forks from the image ([`Explorer::warm_start`]). The study is
/// **byte-identical** to the cold [`tail_latency_study`] — same table,
/// same JSON — which `experiments -- tails --warm-start` and the
/// warm-start equivalence suite both assert.
///
/// # Errors
///
/// Returns [`SweepError::InvalidPoint`] if `base` does not validate.
pub fn tail_latency_study_warm(
    base: &SsdConfig,
    commands_per_workload: u64,
    warmup: SteadyStateCutoff,
) -> Result<TailStudy, SweepError> {
    tail_study_impl(base, commands_per_workload, warmup, warmup)
}

fn tail_study_impl(
    base: &SsdConfig,
    commands_per_workload: u64,
    warmup: SteadyStateCutoff,
    warm_start: SteadyStateCutoff,
) -> Result<TailStudy, SweepError> {
    let footprint = 256 << 20;
    let zipf = ZipfianWorkload::new(0.99, base.seed)
        .command_count(commands_per_workload)
        .footprint_bytes(footprint)
        .read_fraction(0.7);
    let bursty = BurstyWorkload::new(base.seed)
        .command_count(commands_per_workload)
        .footprint_bytes(footprint)
        .burst(64, SimTime::from_us(2), SimTime::from_ms(1))
        .read_fraction(0.5);
    let mixed = MixedSizeWorkload::new([(4096, 6), (16 << 10, 3), (128 << 10, 1)], base.seed)
        .command_count(commands_per_workload)
        .footprint_bytes(footprint)
        .read_fraction(0.5);
    let rmw = RmwWorkload::new(base.seed)
        .updates(commands_per_workload / 2)
        .footprint_bytes(footprint);

    let explorer = Explorer::new(base.clone())
        .steady_state(warmup)
        .warm_start(warm_start);
    let sweep = explorer.run_workloads(&[&zipf, &bursty, &mixed, &rmw])?;
    Ok(TailStudy { sweep })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for ns in 0..32u64 {
            h.record(SimTime::from_ns(ns));
        }
        // Every value below SUBS lands in its own bucket: the 50 % quantile
        // of 0..=31 is exactly 15 (rank 16).
        assert_eq!(h.quantile(0.5), SimTime::from_ns(15));
        assert_eq!(h.min(), SimTime::ZERO);
        assert_eq!(h.max(), SimTime::from_ns(31));
    }

    #[test]
    fn bucket_bounds_tile_the_axis() {
        // lower_bound(i + 1) == upper_bound(i) + 1 everywhere, and index()
        // maps both bounds of every bucket back to it.
        for i in 0..BUCKETS - 1 {
            assert_eq!(
                LatencyHistogram::lower_bound(i + 1),
                LatencyHistogram::upper_bound(i) + 1,
                "bucket {i}"
            );
            assert_eq!(LatencyHistogram::index(LatencyHistogram::lower_bound(i)), i);
            assert_eq!(LatencyHistogram::index(LatencyHistogram::upper_bound(i)), i);
        }
        assert_eq!(LatencyHistogram::index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantile_is_monotone_and_bounded() {
        let mut h = LatencyHistogram::new();
        for i in 1..=10_000u64 {
            h.record(SimTime::from_ns(i * 37));
        }
        let qs = [0.0, 0.5, 0.9, 0.99, 0.999, 1.0];
        for pair in qs.windows(2) {
            assert!(h.quantile(pair[0]) <= h.quantile(pair[1]));
        }
        assert_eq!(h.quantile(1.0), h.max());
        assert_eq!(h.percentile(99.9), h.quantile(0.999));
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimTime::ZERO);
        assert_eq!(h.min(), SimTime::ZERO);
        assert_eq!(h.max(), SimTime::ZERO);
        assert_eq!(h.quantile(0.99), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_rejects_out_of_range() {
        let _ = LatencyHistogram::new().quantile(1.5);
    }

    #[test]
    fn merge_matches_recording_into_one() {
        let samples_a = [10u64, 500, 80_000, 3];
        let samples_b = [7u64, 7, 1_000_000_000];
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for &ns in &samples_a {
            a.record(SimTime::from_ns(ns));
            all.record(SimTime::from_ns(ns));
        }
        for &ns in &samples_b {
            b.record(SimTime::from_ns(ns));
            all.record(SimTime::from_ns(ns));
        }
        a.merge(&b);
        assert_eq!(a, all);
        // Merging an empty histogram is the identity.
        a.merge(&LatencyHistogram::new());
        assert_eq!(a, all);
    }

    #[test]
    fn class_histograms_split_by_op() {
        let mut classes = ClassHistograms::new();
        classes.record(HostOp::Read, SimTime::from_us(10));
        classes.record(HostOp::Read, SimTime::from_us(20));
        classes.record(HostOp::Write, SimTime::from_us(100));
        classes.record(HostOp::Trim, SimTime::from_ns(500));
        assert_eq!(classes.class(CommandClass::Read).count(), 2);
        assert_eq!(classes.class(CommandClass::Write).count(), 1);
        assert_eq!(classes.class(CommandClass::Trim).count(), 1);
        assert_eq!(classes.count(), 4);
        assert_eq!(classes.total().count(), 4);
        let summaries = classes.summaries();
        assert_eq!(summaries[0].class, CommandClass::Read);
        assert_eq!(summaries[0].count, 2);
        assert_eq!(summaries[2].count, 1);
    }

    #[test]
    fn cutoff_admits_by_index_and_time() {
        assert!(SteadyStateCutoff::None.admits(0, SimTime::ZERO));
        let by_count = SteadyStateCutoff::Commands(8);
        assert!(!by_count.admits(7, SimTime::MAX));
        assert!(by_count.admits(8, SimTime::ZERO));
        let by_time = SteadyStateCutoff::SimulatedTime(SimTime::from_us(5));
        assert!(!by_time.admits(u64::MAX, SimTime::from_us(4)));
        assert!(by_time.admits(0, SimTime::from_us(5)));
        assert_eq!(SteadyStateCutoff::default(), SteadyStateCutoff::None);
    }

    #[test]
    fn debug_rendering_is_compact() {
        let mut h = LatencyHistogram::new();
        h.record(SimTime::from_us(3));
        let text = format!("{h:?}");
        assert!(text.contains("count: 1"), "{text}");
        assert!(
            !text.contains('['),
            "bucket array must not be dumped: {text}"
        );
    }

    #[test]
    fn json_escapes_caller_chosen_labels() {
        let mut out = String::new();
        push_json_escaped(&mut out, "8\"-drive \\ tab:\there");
        assert_eq!(out, "8\\\"-drive \\\\ tab:\\u0009here");
    }

    #[test]
    fn tail_table_rendering_is_pinned() {
        use crate::explorer::{AxisValue, SweepPoint};
        use crate::report::{PerfReport, UtilizationBreakdown};

        let mut classes = ClassHistograms::new();
        for us in [100u64, 200, 300, 400] {
            classes.record(HostOp::Read, SimTime::from_us(us));
        }
        classes.record(HostOp::Write, SimTime::from_us(1000));
        let report = PerfReport {
            config_name: "C1".to_string(),
            architecture: "arch".to_string(),
            workload: "zipf-0.99".to_string(),
            policy: "cache".to_string(),
            commands: 5,
            bytes: 20_480,
            elapsed: SimTime::from_ms(1),
            throughput_mbps: 20.48,
            iops: 5_000.0,
            waf: 1.0,
            nand_page_programs: 2,
            nand_page_reads: 8,
            latency: Box::new(classes.total()),
            utilization: UtilizationBreakdown::default(),
            class_latency: Box::new(classes),
        };
        let study = TailStudy {
            sweep: Sweep {
                axes: vec!["workload".to_string()],
                points: vec![SweepPoint {
                    coordinates: vec![AxisValue {
                        axis: "workload".to_string(),
                        value: "zipf-0.99".to_string(),
                    }],
                    report,
                }],
            },
        };
        // The trim row is skipped (no samples); the quantiles resolve to
        // bucket upper bounds clamped to the observed maxima.
        // p50 of [100, 200, 300, 400] us is the 200 us sample, resolved to
        // its bucket's upper bound (200 703 ns ≈ 200.7 us); the
        // p95/p99/p99.9 ranks all land on the 400 us sample, clamped to the
        // observed maximum.
        let expected = "\
workload               class     count   mean(us)    p50(us)    p95(us)    p99(us)  p99.9(us)\n\
zipf-0.99              read          4      250.0      200.7      400.0      400.0      400.0\n\
zipf-0.99              write         1     1000.0     1000.0     1000.0     1000.0     1000.0\n";
        assert_eq!(study.to_table(), expected);
        let json = study.to_json();
        assert!(
            json.contains("\"schema\": \"ssdx-tail-latency/v1\""),
            "{json}"
        );
        assert!(json.contains("\"class\": \"write\""), "{json}");
        assert!(!json.contains("\"class\": \"trim\""), "{json}");
    }
}
