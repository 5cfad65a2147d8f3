//! Performance-statistics collection: the power-of-two latency histogram
//! carried in every report and the busy-time tracker behind each
//! [`Resource`](crate::Resource)'s utilization.
//!
//! Throughput is not accumulated here. The paper's `SSD` columns come from
//! the bytes and elapsed time of a whole session run, and its `SATA+DDR` and
//! `DDR+FLASH` reference series from dedicated component-path runs in
//! `ssdx-core`.

use crate::codec::{DecodeError, Decoder, Encoder};
use crate::time::SimTime;

/// Online latency statistics with logarithmic histogram buckets.
///
/// Buckets are powers of two of nanoseconds, which is plenty of resolution to
/// distinguish microsecond-scale interface latencies from millisecond-scale
/// NAND program times.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

const BUCKETS: usize = 48;

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    fn bucket_for(ns: u64) -> usize {
        if ns == 0 {
            0
        } else {
            (64 - ns.leading_zeros() as usize).min(BUCKETS - 1)
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: SimTime) {
        let ns = latency.as_ns();
        self.buckets[Self::bucket_for(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency, or zero if no samples were recorded.
    pub fn mean(&self) -> SimTime {
        if self.count == 0 {
            return SimTime::ZERO;
        }
        SimTime::from_ns((self.sum_ns / self.count as u128) as u64)
    }

    /// Smallest recorded latency, or zero if no samples were recorded.
    pub fn min(&self) -> SimTime {
        if self.count == 0 {
            SimTime::ZERO
        } else {
            SimTime::from_ns(self.min_ns)
        }
    }

    /// Largest recorded latency.
    pub fn max(&self) -> SimTime {
        SimTime::from_ns(self.max_ns)
    }

    /// Approximate latency at percentile `p` (0–100), resolved to the upper
    /// bound of the histogram bucket containing that rank.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=100.0`.
    pub fn percentile(&self, p: f64) -> SimTime {
        assert!((0.0..=100.0).contains(&p), "percentile must be in 0..=100");
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
        self.max()
    }

    /// Encodes the histogram, in stable field order: bucket array (length
    /// prefix + counts), `count`, `sum_ns`, `min_ns`, `max_ns`.
    pub fn encode_state(&self, enc: &mut Encoder) {
        enc.put_len(self.buckets.len());
        for &b in &self.buckets {
            enc.put_u64(b);
        }
        enc.put_u64(self.count);
        enc.put_u128(self.sum_ns);
        enc.put_u64(self.min_ns);
        enc.put_u64(self.max_ns);
    }

    /// Restores state captured by [`encode_state`](Self::encode_state).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed input or a bucket count other
    /// than this histogram's fixed layout.
    pub fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        dec.get_exact_len(self.buckets.len())?;
        for b in &mut self.buckets {
            *b = dec.get_u64()?;
        }
        self.count = dec.get_u64()?;
        self.sum_ns = dec.get_u128()?;
        self.min_ns = dec.get_u64()?;
        self.max_ns = dec.get_u64()?;
        Ok(())
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Tracks how much of the simulated horizon a component spent busy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Utilization {
    busy: SimTime,
}

impl Utilization {
    /// Creates a tracker with no busy time.
    pub fn new() -> Self {
        Utilization::default()
    }

    /// Adds a busy interval.
    pub fn add_busy(&mut self, duration: SimTime) {
        self.busy += duration;
    }

    /// Accumulated busy time.
    pub fn busy(&self) -> SimTime {
        self.busy
    }

    /// Busy fraction of `horizon` (clamped to 1.0 for multi-server owners).
    pub fn ratio(&self, horizon: SimTime) -> f64 {
        if horizon.is_zero() {
            return 0.0;
        }
        self.busy.as_ps() as f64 / horizon.as_ps() as f64
    }

    /// Encodes the accumulated busy time (the tracker's only state).
    pub fn encode_state(&self, enc: &mut Encoder) {
        enc.put_time(self.busy);
    }

    /// Restores state captured by [`encode_state`](Self::encode_state).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated input.
    pub fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        self.busy = dec.get_time()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_min_max() {
        let mut h = LatencyHistogram::new();
        h.record(SimTime::from_us(10));
        h.record(SimTime::from_us(20));
        h.record(SimTime::from_us(30));
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean().as_us(), 20);
        assert_eq!(h.min().as_us(), 10);
        assert_eq!(h.max().as_us(), 30);
    }

    #[test]
    fn histogram_percentile_monotone() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(SimTime::from_ns(i * 100));
        }
        let p50 = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        assert!(p50 <= p99);
        assert!(p99 <= h.max());
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.mean(), SimTime::ZERO);
        assert_eq!(h.min(), SimTime::ZERO);
        assert_eq!(h.percentile(99.0), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn histogram_rejects_bad_percentile() {
        let h = LatencyHistogram::new();
        let _ = h.percentile(150.0);
    }

    #[test]
    fn utilization_ratio() {
        let mut u = Utilization::new();
        u.add_busy(SimTime::from_ms(1));
        assert!((u.ratio(SimTime::from_ms(4)) - 0.25).abs() < 1e-12);
        assert_eq!(u.ratio(SimTime::ZERO), 0.0);
    }
}
