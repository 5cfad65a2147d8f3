//! SSD platform configuration.
//!
//! The paper stresses that SSDExplorer exposes a *high degree of platform
//! parameterization*: the number of channels, ways, dies and DRAM buffers,
//! the host interface, the ECC scheme, the compressor placement and the
//! DRAM-buffer management policy are all knobs of a single configuration
//! object, editable through a simple text configuration file. This module
//! provides that object ([`SsdConfig`]), a builder, validation, and the text
//! round-trip.

use ssdx_channel::GangMode;
use ssdx_compress::{CompressorModel, CompressorPlacement};
use ssdx_cpu::FirmwareProfile;
use ssdx_dram::DdrTimings;
use ssdx_ecc::EccScheme;
use ssdx_ftl::WafModel;
use ssdx_hostif::{HostInterface, NvmeInterface, PcieGen, SataInterface};
use ssdx_nand::{MlcTimingProfile, NandConfig, NandGeometry, OnfiSpeed, WearModel};
use std::fmt;

/// DRAM-buffer management policy (the paper's "caching" vs "no caching").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CachePolicy {
    /// The controller notifies command completion as soon as the data has
    /// been moved from the host interface into the DRAM buffers.
    WriteCache,
    /// Completion is notified only when all data has actually been written
    /// to the NAND flash memory.
    NoCache,
}

impl CachePolicy {
    /// Short label used in reports ("cache" / "no cache").
    pub fn label(self) -> &'static str {
        match self {
            CachePolicy::WriteCache => "cache",
            CachePolicy::NoCache => "no cache",
        }
    }
}

/// Host interface selection, serialisable form of the hostif crate models.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum HostInterfaceConfig {
    /// SATA II, 3 Gb/s, NCQ depth 32.
    #[default]
    Sata2,
    /// SATA III, 6 Gb/s, NCQ depth 32.
    Sata3,
    /// PCI Express + NVMe with the given generation and lane count.
    NvmePcie {
        /// PCIe generation (1–3).
        gen: u8,
        /// Lane count.
        lanes: u32,
    },
}

impl HostInterfaceConfig {
    /// The PCIe Gen2 x8 NVMe link of the paper's Fig. 4.
    pub fn nvme_gen2_x8() -> Self {
        HostInterfaceConfig::NvmePcie { gen: 2, lanes: 8 }
    }

    /// Instantiates the concrete interface model.
    pub fn build(&self) -> Box<dyn HostInterface> {
        match *self {
            HostInterfaceConfig::Sata2 => Box::new(SataInterface::sata2()),
            HostInterfaceConfig::Sata3 => Box::new(SataInterface::sata3()),
            HostInterfaceConfig::NvmePcie { gen, lanes } => {
                let gen = match gen {
                    1 => PcieGen::Gen1,
                    2 => PcieGen::Gen2,
                    _ => PcieGen::Gen3,
                };
                Box::new(NvmeInterface::new(gen, lanes.max(1)))
            }
        }
    }

    /// Short name used in the text configuration format.
    pub fn name(&self) -> String {
        match self {
            HostInterfaceConfig::Sata2 => "sata2".to_string(),
            HostInterfaceConfig::Sata3 => "sata3".to_string(),
            HostInterfaceConfig::NvmePcie { gen, lanes } => format!("nvme-gen{gen}-x{lanes}"),
        }
    }
}

/// How the flash translation layer is accounted for during simulation.
///
/// The paper supports both: the WAF abstraction for fast fine-grained design
/// space exploration (the validated instance), and an actual FTL executed by
/// the platform for later refinement steps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum FtlMode {
    /// The greedy-policy Write Amplification Factor abstraction: host writes
    /// are inflated analytically, no mapping tables are maintained.
    #[default]
    WafAbstraction,
    /// A real page-mapped FTL (mapping table, greedy garbage collection,
    /// dynamic wear leveling) runs inside the simulation; garbage-collection
    /// relocations and erases are issued to the NAND array as real
    /// operations and compete for the same resources as host traffic.
    PageMapped,
}

/// Compressor placement selection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CompressorConfig {
    /// No compressor instantiated.
    #[default]
    None,
    /// GZIP engine between host interface and DRAM buffers.
    HostSide,
    /// GZIP engine between DRAM buffers and channel controllers.
    ChannelSide,
}

impl CompressorConfig {
    /// Instantiates the compressor model, if any.
    pub fn build(&self) -> Option<CompressorModel> {
        match self {
            CompressorConfig::None => None,
            CompressorConfig::HostSide => Some(CompressorModel::hardware_gzip(
                CompressorPlacement::HostSide,
            )),
            CompressorConfig::ChannelSide => Some(CompressorModel::hardware_gzip(
                CompressorPlacement::ChannelSide,
            )),
        }
    }
}

/// Degraded-device fault injection knobs.
///
/// All knobs default to "healthy device"; each one is an independent fault
/// source that the reliability campaign sweeps as an [`crate::Explorer`]
/// axis. They are construction parameters of the platform — none of them is
/// snapshot state, so enabling them changes neither the snapshot byte layout
/// nor the platform signature, and forked runs inherit them through the
/// configuration they were built with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Expected extra raw bit errors a page read accumulates per prior read
    /// of its block (read-disturb). `0.0` disables the mechanism.
    pub read_disturb_per_read: f64,
    /// Multiplier on the wear-model RBER modelling retention loss (`1.0` is
    /// nominal; larger values model long power-off intervals at
    /// temperature).
    pub retention_scale: f64,
    /// P/E-cycle budget after which an erased block is retired instead of
    /// returning to the free pool (page-mapped FTL only). `u64::MAX`
    /// disables retirement.
    pub retire_pe_limit: u64,
    /// Command index after which a power loss is injected: the FTL's
    /// volatile state is dropped mid-garbage-collection and rebuilt by the
    /// recovery replay (page-mapped FTL only). `u64::MAX` disables the
    /// fault.
    pub power_loss_at: u64,
}

impl FaultConfig {
    /// The healthy-device profile: every fault source disabled.
    pub fn healthy() -> Self {
        FaultConfig {
            read_disturb_per_read: 0.0,
            retention_scale: 1.0,
            retire_pe_limit: u64::MAX,
            power_loss_at: u64::MAX,
        }
    }

    /// True when no fault source is enabled (the default profile).
    pub fn is_healthy(&self) -> bool {
        *self == FaultConfig::healthy()
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::healthy()
    }
}

/// Most NAND dies one platform may hold: 65,536, which is 8× the largest
/// Table III design point (C8, 8,192 dies). [`SsdConfig::validate`]
/// rejects larger topologies before anything is allocated for them, and
/// applies the same bound to the DRAM buffer and CPU core counts, which
/// each size one allocation when the platform is built.
pub const MAX_TOTAL_DIES: u64 = 1 << 16;

/// Errors produced while building or parsing a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A structural parameter (channels, ways, dies, buffers) is zero.
    ZeroDimension(&'static str),
    /// `channels × ways × dies_per_way` exceeds [`MAX_TOTAL_DIES`] (or
    /// overflows `u32`); the value is the product computed in `u64`.
    TooManyDies(u64),
    /// A key in the text configuration is unknown.
    UnknownKey(String),
    /// A value cannot be parsed from the text configuration, or is out of
    /// range.
    BadValue {
        /// The configuration key whose value is invalid.
        key: String,
        /// The offending value.
        value: String,
    },
    /// A line in the text configuration is not `key = value`.
    MalformedLine(usize),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroDimension(what) => {
                write!(f, "configuration field `{what}` must be non-zero")
            }
            ConfigError::TooManyDies(dies) => write!(
                f,
                "channels × ways × dies_per_way = {dies} exceeds the {MAX_TOTAL_DIES}-die limit"
            ),
            ConfigError::UnknownKey(k) => write!(f, "unknown configuration key `{k}`"),
            ConfigError::BadValue { key, value } => {
                write!(f, "invalid value `{value}` for configuration key `{key}`")
            }
            ConfigError::MalformedLine(n) => write!(f, "malformed configuration line {n}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Complete configuration of one simulated SSD platform instance.
#[derive(Debug, Clone, PartialEq)]
pub struct SsdConfig {
    /// Human-readable name ("C1", "ocz-vertex-like", …).
    pub name: String,
    /// Number of NAND channels.
    pub channels: u32,
    /// Ways (chip-enable groups) per channel.
    pub ways: u32,
    /// Dies per way.
    pub dies_per_way: u32,
    /// Number of DRAM data buffers (the paper upper-bounds this by the
    /// channel count).
    pub dram_buffers: u32,
    /// Per-buffer capacity in bytes, which bounds how much un-flushed write
    /// data the cache policy may absorb before back-pressure kicks in.
    pub dram_buffer_capacity: u64,
    /// Host interface.
    pub host_interface: HostInterfaceConfig,
    /// Optional override of the host queue depth (clamped to the protocol
    /// maximum of the selected interface).
    pub queue_depth_override: Option<u32>,
    /// DRAM-buffer management policy.
    pub cache_policy: CachePolicy,
    /// ECC scheme.
    pub ecc: EccScheme,
    /// Compressor instantiation.
    pub compressor: CompressorConfig,
    /// FTL accounting mode (WAF abstraction or actual page-mapped FTL).
    pub ftl_mode: FtlMode,
    /// Write-amplification (FTL abstraction) model.
    pub waf: WafModel,
    /// Number of controller CPU cores executing the firmware.
    pub cpu_cores: u32,
    /// Firmware cycle budgets executed by the controller CPU.
    pub firmware: FirmwareProfile,
    /// NAND die configuration (geometry, timing, wear).
    pub nand: NandConfig,
    /// ONFI interface speed of every channel.
    pub onfi_speed: OnfiSpeed,
    /// Way interconnection scheme.
    pub gang: GangMode,
    /// DDR timing set of the data buffers.
    pub dram_timings: DdrTimings,
    /// Deterministic simulation seed.
    pub seed: u64,
    /// Degraded-device fault injection knobs (healthy by default).
    pub faults: FaultConfig,
}

impl SsdConfig {
    /// Starts a builder pre-loaded with the paper's default platform
    /// parameters.
    pub fn builder(name: impl Into<String>) -> SsdConfigBuilder {
        SsdConfigBuilder::new(name)
    }

    /// Total number of NAND dies in the device.
    pub fn total_dies(&self) -> u32 {
        self.channels * self.ways * self.dies_per_way
    }

    /// Raw NAND capacity in bytes.
    pub fn raw_capacity_bytes(&self) -> u64 {
        self.total_dies() as u64 * self.nand.geometry.die_capacity_bytes()
    }

    /// Effective host queue depth: the protocol maximum, optionally reduced
    /// by the override.
    pub fn queue_depth(&self) -> u32 {
        let max = self.host_interface.build().queue_depth();
        match self.queue_depth_override {
            Some(qd) => qd.clamp(1, max),
            None => max,
        }
    }

    /// Architecture summary in the paper's notation, e.g.
    /// `8-DDR-buf;8-CHN;4-WAY;2-DIE`.
    pub fn architecture_label(&self) -> String {
        format!(
            "{}-DDR-buf;{}-CHN;{}-WAY;{}-DIE",
            self.dram_buffers, self.channels, self.ways, self.dies_per_way
        )
    }

    /// Validates structural parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroDimension`] naming the offending field,
    /// [`ConfigError::TooManyDies`] when the topology holds more than
    /// [`MAX_TOTAL_DIES`] dies, or [`ConfigError::BadValue`] when
    /// `dram_buffers` or `cpu_cores` exceeds that bound or the aggregate
    /// buffer capacity overflows `u64`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn out_of_range(key: &str, value: impl fmt::Display) -> ConfigError {
            ConfigError::BadValue {
                key: key.to_string(),
                value: value.to_string(),
            }
        }
        if self.channels == 0 {
            return Err(ConfigError::ZeroDimension("channels"));
        }
        if self.ways == 0 {
            return Err(ConfigError::ZeroDimension("ways"));
        }
        if self.dies_per_way == 0 {
            return Err(ConfigError::ZeroDimension("dies_per_way"));
        }
        let dies = self.channels as u64 * self.ways as u64 * self.dies_per_way as u64;
        if dies > MAX_TOTAL_DIES {
            return Err(ConfigError::TooManyDies(dies));
        }
        if self.dram_buffers == 0 {
            return Err(ConfigError::ZeroDimension("dram_buffers"));
        }
        if self.dram_buffers as u64 > MAX_TOTAL_DIES {
            return Err(out_of_range("dram_buffers", self.dram_buffers));
        }
        if self.dram_buffer_capacity == 0 {
            return Err(ConfigError::ZeroDimension("dram_buffer_capacity"));
        }
        if (self.dram_buffers as u64)
            .checked_mul(self.dram_buffer_capacity)
            .is_none()
        {
            return Err(out_of_range(
                "dram_buffer_capacity",
                self.dram_buffer_capacity,
            ));
        }
        if self.cpu_cores == 0 {
            return Err(ConfigError::ZeroDimension("cpu_cores"));
        }
        if self.cpu_cores as u64 > MAX_TOTAL_DIES {
            return Err(out_of_range("cpu_cores", self.cpu_cores));
        }
        Ok(())
    }

    /// Serialises the structural knobs to the simple `key = value` text
    /// format the paper mentions.
    pub fn to_text(&self) -> String {
        let ecc = match &self.ecc {
            EccScheme::None => "none".to_string(),
            EccScheme::FixedBch(c) => format!("fixed-bch:{}", c.t),
            EccScheme::AdaptiveBch { codec, .. } => format!("adaptive-bch:{}", codec.t),
        };
        let compressor = match self.compressor {
            CompressorConfig::None => "none",
            CompressorConfig::HostSide => "host",
            CompressorConfig::ChannelSide => "channel",
        };
        let gang = match self.gang {
            GangMode::SharedBus => "shared-bus",
            GangMode::SharedControl => "shared-control",
        };
        let cache = match self.cache_policy {
            CachePolicy::WriteCache => "on",
            CachePolicy::NoCache => "off",
        };
        let ftl = match self.ftl_mode {
            FtlMode::WafAbstraction => "waf",
            FtlMode::PageMapped => "page-mapped",
        };
        // Fault keys are emitted only when they deviate from the healthy
        // profile (like `queue_depth`, which is parsed but never emitted for
        // the default), keeping healthy-device files byte-stable.
        let mut faults = String::new();
        if self.faults.read_disturb_per_read != 0.0 {
            faults.push_str(&format!(
                "read_disturb = {}\n",
                self.faults.read_disturb_per_read
            ));
        }
        if self.faults.retention_scale != 1.0 {
            faults.push_str(&format!(
                "retention_scale = {}\n",
                self.faults.retention_scale
            ));
        }
        if self.faults.retire_pe_limit != u64::MAX {
            faults.push_str(&format!(
                "retire_pe_limit = {}\n",
                self.faults.retire_pe_limit
            ));
        }
        if self.faults.power_loss_at != u64::MAX {
            faults.push_str(&format!("power_loss_at = {}\n", self.faults.power_loss_at));
        }
        format!(
            "# SSDExplorer platform configuration\n\
             name = {}\n\
             channels = {}\n\
             ways = {}\n\
             dies_per_way = {}\n\
             dram_buffers = {}\n\
             dram_buffer_capacity = {}\n\
             host = {}\n\
             cache = {}\n\
             ecc = {}\n\
             compressor = {}\n\
             ftl = {}\n\
             cpu_cores = {}\n\
             gang = {}\n\
             over_provisioning = {}\n\
             seed = {}\n{}",
            self.name,
            self.channels,
            self.ways,
            self.dies_per_way,
            self.dram_buffers,
            self.dram_buffer_capacity,
            self.host_interface.name(),
            cache,
            ecc,
            compressor,
            ftl,
            self.cpu_cores,
            gang,
            self.waf.over_provisioning,
            self.seed,
            faults,
        )
    }

    /// Parses a configuration from the `key = value` text format, starting
    /// from the default platform and overriding whatever keys are present.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first malformed line, unknown
    /// key or unparsable value.
    pub fn from_text(text: &str) -> Result<SsdConfig, ConfigError> {
        let mut config = SsdConfig {
            name: "from-text".to_string(),
            ..SsdConfig::default()
        };
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or(ConfigError::MalformedLine(idx + 1))?;
            let key = key.trim();
            let value = value.trim();
            let bad = || ConfigError::BadValue {
                key: key.to_string(),
                value: value.to_string(),
            };
            match key {
                "name" => config.name = value.to_string(),
                "channels" => config.channels = value.parse().map_err(|_| bad())?,
                "ways" => config.ways = value.parse().map_err(|_| bad())?,
                "dies_per_way" => config.dies_per_way = value.parse().map_err(|_| bad())?,
                "dram_buffers" => config.dram_buffers = value.parse().map_err(|_| bad())?,
                "dram_buffer_capacity" => {
                    config.dram_buffer_capacity = value.parse().map_err(|_| bad())?
                }
                "queue_depth" => {
                    config.queue_depth_override = Some(value.parse().map_err(|_| bad())?)
                }
                "host" => {
                    config.host_interface = match value {
                        "sata2" => HostInterfaceConfig::Sata2,
                        "sata3" => HostInterfaceConfig::Sata3,
                        other => {
                            // nvme-gen2-x8
                            let rest = other.strip_prefix("nvme-gen").ok_or_else(bad)?;
                            let (gen, lanes) = rest.split_once("-x").ok_or_else(bad)?;
                            HostInterfaceConfig::NvmePcie {
                                gen: gen.parse().map_err(|_| bad())?,
                                lanes: lanes.parse().map_err(|_| bad())?,
                            }
                        }
                    }
                }
                "cache" => {
                    config.cache_policy = match value {
                        "on" | "true" | "cache" => CachePolicy::WriteCache,
                        "off" | "false" | "no-cache" => CachePolicy::NoCache,
                        _ => return Err(bad()),
                    }
                }
                "ecc" => {
                    config.ecc = if value == "none" {
                        EccScheme::None
                    } else if let Some(t) = value.strip_prefix("fixed-bch:") {
                        EccScheme::fixed_bch(t.parse().map_err(|_| bad())?)
                    } else if let Some(t) = value.strip_prefix("adaptive-bch:") {
                        // The default wear table corrects at least 4 bits,
                        // so a smaller worst case cannot hold it.
                        let max_t: u32 = t.parse().map_err(|_| bad())?;
                        if max_t < 4 {
                            return Err(bad());
                        }
                        EccScheme::adaptive_bch(max_t)
                    } else {
                        return Err(bad());
                    }
                }
                "compressor" => {
                    config.compressor = match value {
                        "none" => CompressorConfig::None,
                        "host" => CompressorConfig::HostSide,
                        "channel" => CompressorConfig::ChannelSide,
                        _ => return Err(bad()),
                    }
                }
                "ftl" => {
                    config.ftl_mode = match value {
                        "waf" => FtlMode::WafAbstraction,
                        "page-mapped" | "real" => FtlMode::PageMapped,
                        _ => return Err(bad()),
                    }
                }
                "cpu_cores" => config.cpu_cores = value.parse().map_err(|_| bad())?,
                "gang" => {
                    config.gang = match value {
                        "shared-bus" => GangMode::SharedBus,
                        "shared-control" => GangMode::SharedControl,
                        _ => return Err(bad()),
                    }
                }
                "over_provisioning" => {
                    let op: f64 = value.parse().map_err(|_| bad())?;
                    if !op.is_finite() || op <= 0.0 {
                        return Err(bad());
                    }
                    config.waf = WafModel::new(op);
                }
                "seed" => config.seed = value.parse().map_err(|_| bad())?,
                "read_disturb" => {
                    let v: f64 = value.parse().map_err(|_| bad())?;
                    if !v.is_finite() || v < 0.0 {
                        return Err(bad());
                    }
                    config.faults.read_disturb_per_read = v;
                }
                "retention_scale" => {
                    let v: f64 = value.parse().map_err(|_| bad())?;
                    if !v.is_finite() || v <= 0.0 {
                        return Err(bad());
                    }
                    config.faults.retention_scale = v;
                }
                "retire_pe_limit" => {
                    config.faults.retire_pe_limit = value.parse().map_err(|_| bad())?
                }
                "power_loss_at" => {
                    config.faults.power_loss_at = value.parse().map_err(|_| bad())?
                }
                other => return Err(ConfigError::UnknownKey(other.to_string())),
            }
        }
        config.validate()?;
        Ok(config)
    }
}

impl Default for SsdConfig {
    /// The paper's default platform, named `default`: a 4-channel, 4-way,
    /// 2-die SSD with a SATA II host interface, 2 KB-page MLC NAND behind a
    /// legacy asynchronous ONFI bus, a 40-bit fixed BCH code, the WAF FTL
    /// abstraction at 7 % over-provisioning and the write cache enabled.
    fn default() -> Self {
        SsdConfig {
            name: "default".to_string(),
            channels: 4,
            ways: 4,
            dies_per_way: 2,
            dram_buffers: 4,
            dram_buffer_capacity: 8 * 1024 * 1024,
            host_interface: HostInterfaceConfig::Sata2,
            queue_depth_override: None,
            cache_policy: CachePolicy::WriteCache,
            ecc: EccScheme::fixed_bch(40),
            compressor: CompressorConfig::None,
            ftl_mode: FtlMode::WafAbstraction,
            waf: WafModel::new(0.07),
            cpu_cores: 1,
            firmware: FirmwareProfile::waf_abstracted(),
            nand: NandConfig {
                geometry: NandGeometry::mlc_2kb(),
                timing: MlcTimingProfile::paper_mlc(),
                wear: WearModel::paper_mlc(),
            },
            onfi_speed: OnfiSpeed::Sdr20,
            gang: GangMode::SharedBus,
            dram_timings: DdrTimings::ddr2_800(),
            seed: 0x55DE,
            faults: FaultConfig::healthy(),
        }
    }
}

/// Builder for [`SsdConfig`]: a configuration under construction, which
/// each setter edits in place and [`build`](Self::build) validates.
#[derive(Debug, Clone)]
pub struct SsdConfigBuilder {
    config: SsdConfig,
}

impl SsdConfigBuilder {
    /// Creates a builder pre-loaded with the paper's default platform
    /// ([`SsdConfig::default`]) under the given name.
    pub fn new(name: impl Into<String>) -> Self {
        SsdConfigBuilder {
            config: SsdConfig {
                name: name.into(),
                ..SsdConfig::default()
            },
        }
    }

    /// Sets the channel/way/die topology.
    pub fn topology(mut self, channels: u32, ways: u32, dies_per_way: u32) -> Self {
        self.config.channels = channels;
        self.config.ways = ways;
        self.config.dies_per_way = dies_per_way;
        self
    }

    /// Sets the number of DRAM buffers.
    pub fn dram_buffers(mut self, buffers: u32) -> Self {
        self.config.dram_buffers = buffers;
        self
    }

    /// Sets the per-buffer capacity in bytes.
    pub fn dram_buffer_capacity(mut self, bytes: u64) -> Self {
        self.config.dram_buffer_capacity = bytes;
        self
    }

    /// Selects the host interface.
    pub fn host_interface(mut self, host: HostInterfaceConfig) -> Self {
        self.config.host_interface = host;
        self
    }

    /// Overrides the host queue depth.
    pub fn queue_depth(mut self, depth: u32) -> Self {
        self.config.queue_depth_override = Some(depth);
        self
    }

    /// Selects the DRAM-buffer management policy.
    pub fn cache_policy(mut self, policy: CachePolicy) -> Self {
        self.config.cache_policy = policy;
        self
    }

    /// Selects the ECC scheme.
    pub fn ecc(mut self, ecc: EccScheme) -> Self {
        self.config.ecc = ecc;
        self
    }

    /// Selects the compressor placement.
    pub fn compressor(mut self, compressor: CompressorConfig) -> Self {
        self.config.compressor = compressor;
        self
    }

    /// Selects the FTL accounting mode.
    pub fn ftl_mode(mut self, mode: FtlMode) -> Self {
        self.config.ftl_mode = mode;
        self
    }

    /// Sets the number of controller CPU cores.
    pub fn cpu_cores(mut self, cores: u32) -> Self {
        self.config.cpu_cores = cores;
        self
    }

    /// Sets the over-provisioning factor of the WAF model.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not positive and finite.
    pub fn over_provisioning(mut self, op: f64) -> Self {
        self.config.waf = WafModel::new(op);
        self
    }

    /// Sets the firmware cycle budgets.
    pub fn firmware(mut self, firmware: FirmwareProfile) -> Self {
        self.config.firmware = firmware;
        self
    }

    /// Sets the NAND geometry.
    pub fn nand_geometry(mut self, geometry: NandGeometry) -> Self {
        self.config.nand.geometry = geometry;
        self
    }

    /// Sets the NAND timing profile.
    pub fn nand_timing(mut self, timing: MlcTimingProfile) -> Self {
        self.config.nand.timing = timing;
        self
    }

    /// Sets the wear/RBER model.
    pub fn wear(mut self, wear: WearModel) -> Self {
        self.config.nand.wear = wear;
        self
    }

    /// Sets the ONFI interface speed.
    pub fn onfi_speed(mut self, speed: OnfiSpeed) -> Self {
        self.config.onfi_speed = speed;
        self
    }

    /// Sets the way interconnection scheme.
    pub fn gang(mut self, gang: GangMode) -> Self {
        self.config.gang = gang;
        self
    }

    /// Sets the DDR timing set.
    pub fn dram_timings(mut self, timings: DdrTimings) -> Self {
        self.config.dram_timings = timings;
        self
    }

    /// Sets the deterministic simulation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Installs a degraded-device fault profile.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.config.faults = faults;
        self
    }

    /// Finalises the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first error [`SsdConfig::validate`] reports.
    pub fn build(self) -> Result<SsdConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        let c = SsdConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.total_dies(), 32);
        assert_eq!(c.queue_depth(), 32);
        assert_eq!(c.architecture_label(), "4-DDR-buf;4-CHN;4-WAY;2-DIE");
    }

    #[test]
    fn builder_applies_every_knob() {
        let c = SsdConfig::builder("big")
            .topology(16, 8, 4)
            .dram_buffers(16)
            .dram_buffer_capacity(1 << 20)
            .host_interface(HostInterfaceConfig::nvme_gen2_x8())
            .queue_depth(256)
            .cache_policy(CachePolicy::NoCache)
            .ecc(EccScheme::adaptive_bch(40))
            .compressor(CompressorConfig::ChannelSide)
            .over_provisioning(0.28)
            .gang(GangMode::SharedControl)
            .onfi_speed(OnfiSpeed::Ddr166)
            .seed(9)
            .build()
            .unwrap();
        assert_eq!(c.total_dies(), 512);
        assert_eq!(c.queue_depth(), 256);
        assert_eq!(c.cache_policy, CachePolicy::NoCache);
        assert_eq!(c.compressor, CompressorConfig::ChannelSide);
        assert!((c.waf.over_provisioning - 0.28).abs() < 1e-12);
        assert_eq!(c.gang, GangMode::SharedControl);
        assert_eq!(c.host_interface.name(), "nvme-gen2-x8");
    }

    #[test]
    fn ftl_mode_and_cpu_cores_knobs() {
        let c = SsdConfig::builder("real-ftl")
            .ftl_mode(FtlMode::PageMapped)
            .cpu_cores(2)
            .build()
            .unwrap();
        assert_eq!(c.ftl_mode, FtlMode::PageMapped);
        assert_eq!(c.cpu_cores, 2);
        // Round trip through the text format.
        let parsed = SsdConfig::from_text(&c.to_text()).unwrap();
        assert_eq!(parsed.ftl_mode, FtlMode::PageMapped);
        assert_eq!(parsed.cpu_cores, 2);
        // Defaults stay on the WAF abstraction with one core.
        let d = SsdConfig::default();
        assert_eq!(d.ftl_mode, FtlMode::WafAbstraction);
        assert_eq!(d.cpu_cores, 1);
        // Zero cores is rejected.
        assert_eq!(
            SsdConfig::builder("bad").cpu_cores(0).build().unwrap_err(),
            ConfigError::ZeroDimension("cpu_cores")
        );
        // Unknown ftl value is rejected.
        assert!(matches!(
            SsdConfig::from_text("ftl = magic\n").unwrap_err(),
            ConfigError::BadValue { .. }
        ));
    }

    #[test]
    fn queue_depth_override_is_clamped_to_protocol_maximum() {
        let c = SsdConfig::builder("qd")
            .host_interface(HostInterfaceConfig::Sata2)
            .queue_depth(1000)
            .build()
            .unwrap();
        assert_eq!(c.queue_depth(), 32);
    }

    #[test]
    fn zero_dimensions_are_rejected() {
        assert_eq!(
            SsdConfig::builder("bad")
                .topology(0, 1, 1)
                .build()
                .unwrap_err(),
            ConfigError::ZeroDimension("channels")
        );
        assert_eq!(
            SsdConfig::builder("bad")
                .topology(1, 0, 1)
                .build()
                .unwrap_err(),
            ConfigError::ZeroDimension("ways")
        );
        assert_eq!(
            SsdConfig::builder("bad")
                .topology(1, 1, 0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroDimension("dies_per_way")
        );
        assert_eq!(
            SsdConfig::builder("bad")
                .dram_buffers(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroDimension("dram_buffers")
        );
    }

    #[test]
    fn die_counts_beyond_the_limit_are_rejected() {
        // 65536 × 65536 × 16 wraps a u32 product to zero; the check must
        // see the true product.
        let huge = SsdConfig::builder("huge")
            .topology(65_536, 65_536, 16)
            .build();
        assert_eq!(huge.unwrap_err(), ConfigError::TooManyDies(1 << 36));
        let over = SsdConfig::builder("over").topology(64, 64, 17).build();
        assert_eq!(over.unwrap_err(), ConfigError::TooManyDies(64 * 64 * 17));
        let limit = SsdConfig::builder("limit").topology(64, 64, 16).build();
        assert_eq!(limit.unwrap().total_dies() as u64, MAX_TOTAL_DIES);
        let text = "channels = 65536\nways = 65536\ndies_per_way = 16\n";
        assert!(matches!(
            SsdConfig::from_text(text),
            Err(ConfigError::TooManyDies(_))
        ));
    }

    #[test]
    fn allocation_sizing_counts_beyond_the_limit_are_rejected() {
        let bad = |key: &str, value: String| {
            Err(ConfigError::BadValue {
                key: key.to_string(),
                value,
            })
        };
        // Each of these would size one allocation far past memory, or
        // overflow the session's aggregate buffer capacity.
        let text = "dram_buffers = 4294967295\n";
        assert_eq!(
            SsdConfig::from_text(text),
            bad("dram_buffers", u32::MAX.to_string())
        );
        let text = "cpu_cores = 4294967295\n";
        assert_eq!(
            SsdConfig::from_text(text),
            bad("cpu_cores", u32::MAX.to_string())
        );
        let text = "dram_buffers = 16\ndram_buffer_capacity = 18446744073709551615\n";
        assert_eq!(
            SsdConfig::from_text(text),
            bad("dram_buffer_capacity", u64::MAX.to_string())
        );
        // The bound itself still validates.
        let limit = SsdConfig::builder("limit")
            .dram_buffers(MAX_TOTAL_DIES as u32)
            .cpu_cores(MAX_TOTAL_DIES as u32)
            .dram_buffer_capacity(u64::MAX / MAX_TOTAL_DIES)
            .build();
        assert!(limit.is_ok(), "{limit:?}");
        let over = SsdConfig::builder("over")
            .dram_buffers(MAX_TOTAL_DIES as u32 + 1)
            .build();
        assert_eq!(over, bad("dram_buffers", (MAX_TOTAL_DIES + 1).to_string()));
    }

    #[test]
    fn text_round_trip_preserves_structural_knobs() {
        let original = SsdConfig::builder("round-trip")
            .topology(8, 8, 2)
            .dram_buffers(8)
            .host_interface(HostInterfaceConfig::nvme_gen2_x8())
            .cache_policy(CachePolicy::NoCache)
            .ecc(EccScheme::adaptive_bch(40))
            .compressor(CompressorConfig::HostSide)
            .gang(GangMode::SharedControl)
            .over_provisioning(0.28)
            .seed(77)
            .build()
            .unwrap();
        let text = original.to_text();
        let parsed = SsdConfig::from_text(&text).unwrap();
        assert_eq!(parsed.name, "round-trip");
        assert_eq!(parsed.channels, 8);
        assert_eq!(parsed.ways, 8);
        assert_eq!(parsed.dies_per_way, 2);
        assert_eq!(parsed.host_interface, original.host_interface);
        assert_eq!(parsed.cache_policy, CachePolicy::NoCache);
        assert_eq!(parsed.compressor, CompressorConfig::HostSide);
        assert_eq!(parsed.gang, GangMode::SharedControl);
        assert_eq!(parsed.ecc.name(), "adaptive-bch");
        assert_eq!(parsed.seed, 77);
    }

    #[test]
    fn fault_keys_round_trip_and_default_stays_silent() {
        // Healthy profile: no fault keys in the text form, parses healthy.
        let healthy = SsdConfig::default();
        assert!(healthy.faults.is_healthy());
        let text = healthy.to_text();
        for key in [
            "read_disturb",
            "retention_scale",
            "retire_pe_limit",
            "power_loss_at",
        ] {
            assert!(!text.contains(key), "healthy config leaked `{key}`");
        }
        assert!(SsdConfig::from_text(&text).unwrap().faults.is_healthy());

        // Degraded profile round-trips through the text format.
        let degraded = SsdConfig::builder("aged")
            .faults(FaultConfig {
                read_disturb_per_read: 0.125,
                retention_scale: 2.5,
                retire_pe_limit: 4_000,
                power_loss_at: 777,
            })
            .build()
            .unwrap();
        let parsed = SsdConfig::from_text(&degraded.to_text()).unwrap();
        assert_eq!(parsed.faults, degraded.faults);

        // Invalid fault values are rejected.
        for bad in [
            "read_disturb = -0.5\n",
            "read_disturb = nan\n",
            "retention_scale = 0\n",
            "retention_scale = inf\n",
            "retire_pe_limit = soon\n",
            "power_loss_at = never\n",
        ] {
            assert!(
                matches!(
                    SsdConfig::from_text(bad).unwrap_err(),
                    ConfigError::BadValue { .. }
                ),
                "`{bad}` should be rejected"
            );
        }
    }

    #[test]
    fn parser_reports_errors_precisely() {
        assert!(matches!(
            SsdConfig::from_text("channels 8\n").unwrap_err(),
            ConfigError::MalformedLine(1)
        ));
        assert!(matches!(
            SsdConfig::from_text("wombats = 3\n").unwrap_err(),
            ConfigError::UnknownKey(k) if k == "wombats"
        ));
        assert!(matches!(
            SsdConfig::from_text("channels = many\n").unwrap_err(),
            ConfigError::BadValue { .. }
        ));
        assert!(matches!(
            SsdConfig::from_text("host = scsi\n").unwrap_err(),
            ConfigError::BadValue { .. }
        ));
        assert!(matches!(
            SsdConfig::from_text("over_provisioning = -1\n").unwrap_err(),
            ConfigError::BadValue { .. }
        ));
        // Values the models they build would panic on are refused before
        // anything is built: an infinite spare factor, and an adaptive code
        // too weak for the default wear table's 4-bit floor.
        for (key, value) in [
            ("over_provisioning", "inf"),
            ("over_provisioning", "1e400"),
            ("ecc", "adaptive-bch:3"),
            ("ecc", "adaptive-bch:0"),
        ] {
            assert_eq!(
                SsdConfig::from_text(&format!("{key} = {value}\n")),
                Err(ConfigError::BadValue {
                    key: key.to_string(),
                    value: value.to_string(),
                })
            );
        }
        assert!(SsdConfig::from_text("ecc = adaptive-bch:4\n").is_ok());
    }

    #[test]
    fn parser_ignores_comments_and_blank_lines() {
        let c = SsdConfig::from_text("# comment\n\nchannels = 2\n").unwrap();
        assert_eq!(c.channels, 2);
    }

    #[test]
    fn cache_policy_labels() {
        assert_eq!(CachePolicy::WriteCache.label(), "cache");
        assert_eq!(CachePolicy::NoCache.label(), "no cache");
    }

    #[test]
    fn host_interface_config_builds_correct_models() {
        assert_eq!(HostInterfaceConfig::Sata2.build().queue_depth(), 32);
        assert_eq!(
            HostInterfaceConfig::nvme_gen2_x8().build().queue_depth(),
            65_536
        );
        assert!(
            HostInterfaceConfig::Sata3.build().ideal_bandwidth()
                > HostInterfaceConfig::Sata2.build().ideal_bandwidth()
        );
    }
}
