//! SSDExplorer-RS — a virtual platform for fine-grained design space
//! exploration of Solid State Drives.
//!
//! This is the facade crate of the workspace: it re-exports every component
//! crate under a stable, discoverable namespace so applications can depend
//! on a single crate. See the [`core`] module for the assembled platform
//! ([`core::Ssd`]) and the README for a guided tour.
//!
//! # Quick start
//!
//! ```
//! use ssdexplorer::core::{Ssd, SsdConfig};
//! use ssdexplorer::hostif::{AccessPattern, Workload};
//!
//! let config = SsdConfig::builder("quickstart")
//!     .topology(4, 4, 2)
//!     .dram_buffers(4)
//!     .build()?;
//! let mut ssd = Ssd::try_new(config)?;
//! let workload = Workload::builder(AccessPattern::SequentialWrite)
//!     .command_count(128)
//!     .build();
//! let report = ssd.simulate(&workload);
//! assert!(report.throughput_mbps > 0.0);
//! # Ok::<(), ssdexplorer::core::ConfigError>(())
//! ```

#![warn(rust_2018_idioms)]

/// Simulation kernel (time base, resource reservation, RNG, state codec).
pub use ssdx_sim as sim;

/// NAND flash memory array model.
pub use ssdx_nand as nand;

/// DDR2 DRAM data-buffer model.
pub use ssdx_dram as dram;

/// AMBA AHB system-interconnect model.
pub use ssdx_interconnect as interconnect;

/// Controller CPU / firmware cost model.
pub use ssdx_cpu as cpu;

/// BCH / adaptive-BCH error-correction latency models.
pub use ssdx_ecc as ecc;

/// Parametric compressor model.
pub use ssdx_compress as compress;

/// Flash translation layer: WAF abstraction and page-mapped FTL.
pub use ssdx_ftl as ftl;

/// Host interfaces (SATA, NVMe/PCIe), workloads and trace player.
pub use ssdx_hostif as hostif;

/// Channel/way controller model.
pub use ssdx_channel as channel;

/// The assembled SSD virtual platform, configuration and exploration drivers.
pub use ssdx_core as core;
