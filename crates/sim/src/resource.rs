//! The resource-reservation primitive every shared hardware block is modelled
//! with.
//!
//! A [`Resource`] models a single-ported hardware unit (a bus, a DMA engine,
//! a NAND die, …): requests are served first-come-first-served and a request
//! arriving while the unit is busy waits until it frees up.
//!
//! Reservations return a [`Grant`] describing when service actually starts
//! and ends, so callers can chain stages of a pipeline by feeding one grant's
//! `end` into the next stage's earliest start. The resource also accumulates
//! its busy time, which is where every component's utilization comes from.

use crate::codec::{DecodeError, Decoder, Encoder};
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
    name: &'static str,
    free_at: SimTime,
    busy: SimTime,
}

impl Resource {
    /// Creates an idle resource with a diagnostic name. The name is a
    /// static string, so building and copying a platform's thousands of
    /// resources allocates nothing for them; a unit's index lives with its
    /// owner (a die or a channel keeps its own `id`).
    pub fn new(name: &'static str) -> Self {
        Resource {
            name,
            free_at: SimTime::ZERO,
            busy: SimTime::ZERO,
        }
    }

    /// Diagnostic name given at construction.
    pub fn name(&self) -> &str {
        self.name
    }

    /// The earliest instant at which the resource is idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Reserves the resource for `duration`, starting no earlier than `at`.
    ///
    /// Returns the grant describing the actual service window.
    pub fn reserve(&mut self, at: SimTime, duration: SimTime) -> Grant {
        let start = at.max(self.free_at);
        let end = start + duration;
        self.free_at = end;
        self.busy += duration;
        Grant {
            start,
            end,
            wait: start - at,
        }
    }

    /// Busy time accumulated so far as a fraction of `horizon`, or zero for
    /// a zero horizon. Not clamped: a horizon shorter than the booked
    /// windows yields a ratio above 1.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon.is_zero() {
            return 0.0;
        }
        self.busy.as_ps() as f64 / horizon.as_ps() as f64
    }

    /// Total busy time accumulated so far.
    pub fn busy_time(&self) -> SimTime {
        self.busy
    }

    /// Resets the resource to idle at time zero, clearing its busy time.
    pub fn reset(&mut self) {
        self.free_at = SimTime::ZERO;
        self.busy = SimTime::ZERO;
    }

    /// Encodes the mutable state, in stable field order: `free_at`, `busy`.
    /// The diagnostic name is construction-derived and deliberately not
    /// part of the snapshot.
    pub fn encode_state(&self, enc: &mut Encoder) {
        enc.put_time(self.free_at);
        enc.put_time(self.busy);
    }

    /// Restores state captured by [`encode_state`](Self::encode_state) onto
    /// this (already constructed) resource.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated or malformed input.
    pub fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        self.free_at = dec.get_time()?;
        self.busy = dec.get_time()?;
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
    fn utilization_ratio() {
        let mut r = Resource::new("x");
        r.reserve(SimTime::ZERO, SimTime::from_ms(1));
        assert!((r.utilization(SimTime::from_ms(4)) - 0.25).abs() < 1e-12);
        assert_eq!(r.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut r = Resource::new("x");
        r.reserve(SimTime::ZERO, SimTime::from_ns(250));
        r.reset();
        assert_eq!(r.free_at(), SimTime::ZERO);
        assert_eq!(r.busy_time(), SimTime::ZERO);
    }
}
