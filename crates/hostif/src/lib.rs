//! Host interface models and workload generation.
//!
//! The host interface is where an SSD's performance is ultimately delivered
//! and, as the paper shows, where it can be silently throttled: the SATA
//! protocol manages at most 32 outstanding commands (Native Command
//! Queuing), so a no-cache SSD cannot expose its internal parallelism, while
//! the NVMe protocol over PCI Express handles up to 64 K commands and
//! unlocks it. This crate models both interfaces at the timing level —
//! link rate, encoding overhead, packetization/FIS latency and queue depth —
//! plus the command/data trace player, the IOZone-like synthetic workload
//! generators used by every experiment in the paper, and the generative
//! suite ([`generative`]: zipfian-skewed, bursty, mixed block sizes,
//! read-modify-write) behind the platform's tail-latency studies.
//!
//! # Example
//!
//! ```
//! use ssdx_hostif::{HostInterface, SataInterface, NvmeInterface};
//!
//! let sata = SataInterface::sata2();
//! let nvme = NvmeInterface::gen2_x8();
//! assert!(nvme.ideal_bandwidth() > 3 * sata.ideal_bandwidth());
//! assert!(nvme.queue_depth() > sata.queue_depth());
//! ```

#![warn(rust_2018_idioms)]

pub mod command;
pub mod generative;
pub mod interface;
pub mod nvme;
pub mod sata;
pub mod source;
pub mod trace;
pub mod workload;

pub use command::{HostCommand, HostOp};
pub use generative::{
    degraded_probe, BurstyWorkload, MixedSizeWorkload, RmwWorkload, ZipfianWorkload,
};
pub use interface::HostInterface;
pub use nvme::{NvmeInterface, PcieGen};
pub use sata::SataInterface;
pub use source::{source_fn, AsDynSource, CommandSource, FnSource, StreamBounds};
pub use trace::{ParseTraceError, TracePlayer};
pub use workload::{AccessPattern, Workload, WorkloadBuilder};
