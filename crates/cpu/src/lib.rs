//! Firmware execution cost model for the SSD controller CPU.
//!
//! SSDExplorer models an ARM7TDMI core with 16 MB of SRAM and a DMA engine
//! running at 200 MHz, on which the SSD firmware (or its WAF abstraction)
//! executes. During fine-grained design space exploration the *functional*
//! behaviour of the firmware is not needed — only its cost: how many CPU
//! cycles and bus transactions each host command consumes before the data
//! path can move on. This crate models exactly that: a cycle-budgeted
//! firmware profile executed on a single-issue core that contends for the
//! AHB bus with the data-moving DMA engines.
//!
//! # Example
//!
//! ```
//! use ssdx_cpu::{CpuModel, FirmwareProfile};
//! use ssdx_sim::SimTime;
//!
//! let mut cpu = CpuModel::new(FirmwareProfile::waf_abstracted());
//! let done = cpu.execute_command_overhead(SimTime::ZERO);
//! assert!(done.end > SimTime::ZERO);
//! ```

#![warn(rust_2018_idioms)]

pub mod firmware;
pub mod model;

pub use firmware::FirmwareProfile;
pub use model::{CpuModel, CpuStats};
