//! Simulation kernel for the SSDExplorer virtual platform.
//!
//! The original SSDExplorer is built on SystemC's event kernel. This port
//! models the platform as a reservation calendar instead: every shared
//! hardware block is a [`Resource`] that books service windows first come,
//! first served, and a command's latency is the chain of [`Grant`]s its
//! pipeline stages receive. The crate provides that substrate in pure Rust:
//! a simulated time base with picosecond resolution ([`SimTime`]), the
//! reservation primitive ([`Resource`], which also accumulates the busy time
//! behind each component's utilization), a deterministic random number
//! generator ([`rng::SimRng`]) so simulations are reproducible, and the
//! versioned binary [`codec`] every component's state is captured with.
//! Latency statistics live with the reports that carry them, in `ssdx-core`.
//!
//! Every primitive is thread-safe by construction — plain data with no
//! interior mutability, no globals, no thread-locals — so a whole platform
//! built from them is `Send` and can be constructed and driven on a worker
//! thread of a parallel sweep executor. A compile-time test pins
//! [`SimTime`], [`SimRng`](rng::SimRng) and [`Resource`] as `Send + Sync`.
//!
//! # Example
//!
//! ```
//! use ssdx_sim::{SimTime, Resource};
//!
//! // A single-ported resource (e.g. a bus) that takes 100 ns per transfer.
//! let mut bus = Resource::new("bus");
//! let grant_a = bus.reserve(SimTime::ZERO, SimTime::from_ns(100));
//! let grant_b = bus.reserve(SimTime::ZERO, SimTime::from_ns(100));
//! assert_eq!(grant_a.start, SimTime::ZERO);
//! // The second request had to wait for the first to finish.
//! assert_eq!(grant_b.start, SimTime::from_ns(100));
//! ```

#![warn(rust_2018_idioms)]

pub mod codec;
pub mod hash;
pub mod resource;
pub mod rng;
pub mod time;

pub use codec::{DecodeError, Decoder, Encoder};
pub use resource::{Grant, Resource};
pub use time::{Frequency, SimTime};

#[cfg(test)]
mod thread_safety {
    use super::*;

    /// The kernel's thread-safety contract, pinned at compile time: every
    /// primitive the parallel sweep executor moves to (or shares with) a
    /// worker thread must be `Send`/`Sync`. A regression here (e.g. an `Rc`
    /// or `RefCell` slipping into a model) fails this test at compile time.
    #[test]
    fn kernel_primitives_are_send_and_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<SimTime>();
        assert_sync::<SimTime>();
        assert_send::<rng::SimRng>();
        assert_sync::<rng::SimRng>();
        assert_send::<Resource>();
        assert_sync::<Resource>();
    }
}
