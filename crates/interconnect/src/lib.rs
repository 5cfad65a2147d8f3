//! AMBA AHB 2.0 system-interconnect model.
//!
//! SSDExplorer keeps the system interconnect at RTL-equivalent accuracy
//! because arbitration, burst formation and wait states directly shape the
//! internal transfer rates of the SSD. This crate models an AMBA AHB v2.0
//! bus with 16 master and 16 slave ports: each transfer is split into
//! INCR16/8/4 and single bursts, every burst pays its arbitration and
//! address cycles, slaves may add wait states, and the bus grants transfers
//! in the order they are reserved. The Multi-Layer AHB variant the paper
//! mentions as a possible evolution is provided too.
//!
//! # Example
//!
//! ```
//! use ssdx_interconnect::{AhbBus, AhbConfig};
//! use ssdx_sim::SimTime;
//!
//! let mut bus = AhbBus::new(AhbConfig::default());
//! let xfer = bus.transfer(SimTime::ZERO, 0, 1, 4096);
//! assert!(xfer.end > xfer.start);
//! ```

#![warn(rust_2018_idioms)]

pub mod ahb;
pub mod multilayer;

pub use ahb::{AhbBus, AhbConfig, AhbError, BurstKind, BusStats, Transfer};
pub use multilayer::MultiLayerAhb;
