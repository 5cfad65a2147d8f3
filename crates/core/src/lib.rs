//! SSDExplorer core: a virtual platform for fine-grained design space
//! exploration of Solid State Drives.
//!
//! This crate assembles the substrate models (NAND array, DDR2 buffers,
//! AMBA AHB interconnect, controller CPU, channel/way controllers, ECC,
//! compressor, host interfaces and the WAF-based FTL abstraction) into a
//! complete SSD platform ([`Ssd`]) driven by a single configuration object
//! ([`SsdConfig`]). Execution is session based: any
//! [`CommandSource`](ssdx_hostif::CommandSource) — a synthetic workload, a
//! trace, a closure generator — runs through [`Ssd::simulate`] in one shot,
//! or through a steppable [`SimSession`] with [`Probe`] observers for
//! mid-run sampling. On top sits the generic [`Explorer`] sweep engine —
//! with the [`ParallelExecutor`] fanning its [`SweepJob`]s out across all
//! cores while keeping results byte-identical to a sequential run (see the
//! determinism contract on [`Explorer`]) — and the drivers that regenerate
//! the paper's experiments:
//!
//! * [`explorer::host_interface_study`] — the optimal-design-point sweeps of
//!   Figs. 3 and 4 over the Table II configurations ([`configs::table2_configs`]);
//! * [`explorer::wearout_study`] — the ECC/wear-out study of Fig. 5;
//! * [`metrics::tail_latency_study`] — steady-state p50/p95/p99/p99.9 per
//!   command class across the generative workload suite (zipfian skew,
//!   bursty arrivals, mixed block sizes, read-modify-write);
//! * [`configs::table3_configs`] — the configurations of the Fig. 6
//!   simulation-speed study, which the harness crates time (this crate
//!   never reads the host clock);
//! * [`configs::ocz_vertex_like`] — the validation configuration of Fig. 2.
//!
//! # Quick start
//!
//! ```
//! use ssdx_core::{Ssd, SsdConfig};
//! use ssdx_hostif::{AccessPattern, Workload};
//!
//! // A 4-channel SATA II drive with the write cache enabled.
//! let config = SsdConfig::builder("demo")
//!     .topology(4, 4, 2)
//!     .dram_buffers(4)
//!     .build()?;
//! let mut ssd = Ssd::try_new(config)?;
//!
//! // 4 KB sequential writes, as in the paper's experiments.
//! let workload = Workload::builder(AccessPattern::SequentialWrite)
//!     .command_count(256)
//!     .build();
//! let report = ssd.simulate(&workload);
//! println!("{report}");
//! # Ok::<(), ssdx_core::ConfigError>(())
//! ```

#![warn(rust_2018_idioms)]

pub mod config;
pub mod configs;
pub mod explorer;
pub mod faults;
pub mod layout;
pub mod metrics;
pub mod parallel;
pub mod report;
pub mod session;
pub mod snapshot;
pub mod ssd;

pub use config::{
    CachePolicy, CompressorConfig, ConfigError, FaultConfig, FtlMode, HostInterfaceConfig,
    SsdConfig, SsdConfigBuilder, MAX_TOTAL_DIES,
};
pub use explorer::{
    endurance_axis, host_interface_study, wearout_study, Axis, AxisValue, Explorer, HostSweep,
    HostSweepPoint, Sweep, SweepError, SweepJob, SweepPoint, WearoutPoint,
};
pub use faults::{
    fault_campaign, power_loss_axis, read_disturb_axis, retention_axis, retirement_axis, FaultStudy,
};
pub use layout::{PageAllocator, PageTarget};
pub use metrics::{
    tail_latency_study, ClassHistograms, CommandClass, LatencyHistogram, SteadyStateCutoff,
    TailStudy, TailSummary,
};
pub use parallel::ParallelExecutor;
pub use report::{PerfReport, UtilizationBreakdown};
pub use session::{CommandRecord, CompletionLog, Probe, SessionSnapshot, SimSession};
pub use snapshot::{Snapshot, StateInventoryEntry, SNAPSHOT_VERSION, STATE_INVENTORY};
pub use ssd::Ssd;
