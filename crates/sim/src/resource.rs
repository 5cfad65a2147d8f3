//! The resource-reservation primitive every shared hardware block is modelled
//! with.
//!
//! A [`Resource`] models a single-ported hardware unit (a bus, a DMA engine,
//! a NAND die, …): requests are served first-come-first-served and a request
//! arriving while the unit is busy waits until it frees up.
//!
//! Reservations return a [`Grant`] describing when service actually starts
//! and ends, so callers can chain stages of a pipeline by feeding one grant's
//! `end` into the next stage's earliest start.

use crate::codec::{DecodeError, Decoder, Encoder};
use crate::stats::Utilization;
use crate::time::SimTime;

/// The outcome of reserving a resource: when service started and ended, and
/// how long the request waited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Instant at which service began (>= requested time).
    pub start: SimTime,
    /// Instant at which service completed.
    pub end: SimTime,
    /// Queueing delay suffered before service began.
    pub wait: SimTime,
}

impl Grant {
    /// Total time from the request instant to completion.
    pub fn latency(&self) -> SimTime {
        self.wait + (self.end - self.start)
    }
}

/// A single-ported, first-come-first-served resource.
///
/// # Example
///
/// ```
/// use ssdx_sim::{Resource, SimTime};
/// let mut dma = Resource::new("pp-dma");
/// let g1 = dma.reserve(SimTime::ZERO, SimTime::from_us(10));
/// let g2 = dma.reserve(SimTime::from_us(3), SimTime::from_us(10));
/// assert_eq!(g2.start, g1.end);
/// assert_eq!(g2.wait, SimTime::from_us(7));
/// ```
#[derive(Debug, Clone)]
pub struct Resource {
    name: String,
    free_at: SimTime,
    util: Utilization,
    served: u64,
}

impl Resource {
    /// Creates an idle resource with a diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        Resource {
            name: name.into(),
            free_at: SimTime::ZERO,
            util: Utilization::new(),
            served: 0,
        }
    }

    /// Diagnostic name given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The earliest instant at which the resource is idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Number of requests served so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Reserves the resource for `duration`, starting no earlier than `at`.
    ///
    /// Returns the grant describing the actual service window.
    pub fn reserve(&mut self, at: SimTime, duration: SimTime) -> Grant {
        let start = at.max(self.free_at);
        let end = start + duration;
        self.free_at = end;
        self.util.add_busy(duration);
        self.served += 1;
        Grant {
            start,
            end,
            wait: start - at,
        }
    }

    /// Fraction of time the resource was busy up to `horizon`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.util.ratio(horizon)
    }

    /// Total busy time accumulated so far.
    pub fn busy_time(&self) -> SimTime {
        self.util.busy()
    }

    /// Resets the resource to idle at time zero, clearing statistics.
    pub fn reset(&mut self) {
        self.free_at = SimTime::ZERO;
        self.util = Utilization::new();
        self.served = 0;
    }

    /// Encodes the mutable state, in stable field order:
    /// `free_at`, `util`, `served`. The diagnostic name is
    /// construction-derived and deliberately not part of the snapshot.
    pub fn encode_state(&self, enc: &mut Encoder) {
        enc.put_time(self.free_at);
        self.util.encode_state(enc);
        enc.put_u64(self.served);
    }

    /// Restores state captured by [`encode_state`](Self::encode_state) onto
    /// this (already constructed) resource.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated or malformed input.
    pub fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        self.free_at = dec.get_time()?;
        self.util.decode_state(dec)?;
        self.served = dec.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcfs_resource_serializes_overlapping_requests() {
        let mut r = Resource::new("bus");
        let g1 = r.reserve(SimTime::from_ns(0), SimTime::from_ns(100));
        let g2 = r.reserve(SimTime::from_ns(10), SimTime::from_ns(100));
        let g3 = r.reserve(SimTime::from_ns(500), SimTime::from_ns(100));
        assert_eq!(g1.end, SimTime::from_ns(100));
        assert_eq!(g2.start, SimTime::from_ns(100));
        assert_eq!(g2.wait, SimTime::from_ns(90));
        // A request arriving after the backlog drains starts immediately.
        assert_eq!(g3.start, SimTime::from_ns(500));
        assert_eq!(g3.wait, SimTime::ZERO);
        assert_eq!(r.served(), 3);
    }

    #[test]
    fn grant_latency_includes_wait() {
        let mut r = Resource::new("x");
        r.reserve(SimTime::ZERO, SimTime::from_ns(50));
        let g = r.reserve(SimTime::ZERO, SimTime::from_ns(30));
        assert_eq!(g.latency(), SimTime::from_ns(80));
    }

    #[test]
    fn utilization_is_busy_over_horizon() {
        let mut r = Resource::new("x");
        r.reserve(SimTime::ZERO, SimTime::from_ns(250));
        let u = r.utilization(SimTime::from_ns(1000));
        assert!((u - 0.25).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_state() {
        let mut r = Resource::new("x");
        r.reserve(SimTime::ZERO, SimTime::from_ns(250));
        r.reset();
        assert_eq!(r.free_at(), SimTime::ZERO);
        assert_eq!(r.served(), 0);
        assert_eq!(r.busy_time(), SimTime::ZERO);
    }
}
