//! The named SSD configurations used by the paper's experiments.
//!
//! * [`table2_configs`] — the ten design points C1–C10 of Table II, swept by
//!   the optimal-design-point experiments (Figs. 3 and 4).
//! * [`table3_configs`] — the eight design points C1–C8 of Table III, used by
//!   the simulation-speed study (Fig. 6).
//! * [`ocz_vertex_like`] — the consumer-drive configuration validated against
//!   the OCZ Vertex 120 GB in Fig. 2, with the drive's reported throughput
//!   in [`OCZ_REFERENCE_MBPS`].
//! * [`fig5_config`] — the 4-channel / 2-way / 4-die configuration of the
//!   wear-out experiment (Fig. 5).

use crate::config::{CachePolicy, HostInterfaceConfig, SsdConfig};
use ssdx_ecc::EccScheme;
use ssdx_hostif::AccessPattern;
use ssdx_nand::{NandGeometry, OnfiSpeed};

fn table2_entry(name: &str, buffers: u32, channels: u32, ways: u32, dies: u32) -> SsdConfig {
    SsdConfig::builder(name)
        .topology(channels, ways, dies)
        .dram_buffers(buffers)
        .build()
        .expect("table II configurations are structurally valid")
}

/// The ten SSD configurations of Table II
/// (`DDR-buf; CHN; WAY; DIE` in the paper's notation).
pub fn table2_configs() -> Vec<SsdConfig> {
    vec![
        table2_entry("C1", 4, 4, 4, 2),
        table2_entry("C2", 8, 8, 4, 2),
        table2_entry("C3", 8, 8, 8, 2),
        table2_entry("C4", 8, 8, 8, 4),
        table2_entry("C5", 8, 8, 8, 8),
        table2_entry("C6", 16, 16, 8, 4),
        table2_entry("C7", 16, 16, 4, 2),
        table2_entry("C8", 32, 32, 4, 2),
        table2_entry("C9", 32, 32, 1, 1),
        table2_entry("C10", 32, 32, 8, 4),
    ]
}

/// The eight SSD configurations of Table III, used by the simulation-speed
/// study.
pub fn table3_configs() -> Vec<SsdConfig> {
    vec![
        table2_entry("C1", 1, 1, 1, 1),
        table2_entry("C2", 1, 2, 1, 2),
        table2_entry("C3", 1, 4, 1, 2),
        table2_entry("C4", 1, 4, 2, 4),
        table2_entry("C5", 4, 4, 2, 4),
        table2_entry("C6", 4, 4, 2, 8),
        table2_entry("C7", 4, 4, 2, 16),
        table2_entry("C8", 32, 32, 16, 16),
    ]
}

/// A configuration calibrated to behave like the OCZ Vertex 120 GB consumer
/// drive the paper validates against: a SATA II Barefoot-class controller
/// with eight channels of 4 KB-page MLC NAND on a faster asynchronous bus, a
/// modest fixed BCH code, a write cache and ~7 % over-provisioning.
pub fn ocz_vertex_like() -> SsdConfig {
    SsdConfig::builder("ocz-vertex-like")
        .topology(8, 4, 2)
        .dram_buffers(8)
        .dram_buffer_capacity(8 * 1024 * 1024)
        .host_interface(HostInterfaceConfig::Sata2)
        .cache_policy(CachePolicy::WriteCache)
        .ecc(EccScheme::fixed_bch(12))
        .nand_geometry(NandGeometry::mlc_4kb())
        .onfi_speed(OnfiSpeed::Sdr40)
        .over_provisioning(0.07)
        .build()
        .expect("ocz-vertex-like configuration is structurally valid")
}

/// Paper-reported throughput of the OCZ Vertex 120 GB, in MB/s, for each
/// Fig. 2 access pattern: the reference [`ocz_vertex_like`] is validated
/// against. The figure is plotted, not tabulated, so these values are read
/// off the plot.
pub const OCZ_REFERENCE_MBPS: [(AccessPattern, f64); 4] = [
    (AccessPattern::SequentialWrite, 160.0),
    (AccessPattern::SequentialRead, 200.0),
    (AccessPattern::RandomWrite, 22.0),
    (AccessPattern::RandomRead, 145.0),
];

/// The configuration of the wear-out experiment (Fig. 5): 4 channels, 2 ways
/// and 4 dies, differing only in ECC adaptability between the two runs.
pub fn fig5_config(ecc: EccScheme) -> SsdConfig {
    SsdConfig::builder(format!("fig5-{}", ecc.name()))
        .topology(4, 2, 4)
        .dram_buffers(4)
        // Keep the write cache small so even the short per-endurance-point
        // workloads reach the flash-limited steady state.
        .dram_buffer_capacity(256 * 1024)
        .ecc(ecc)
        .build()
        .expect("fig5 configuration is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_the_paper() {
        let configs = table2_configs();
        assert_eq!(configs.len(), 10);
        assert_eq!(
            configs[0].architecture_label(),
            "4-DDR-buf;4-CHN;4-WAY;2-DIE"
        );
        assert_eq!(
            configs[5].architecture_label(),
            "16-DDR-buf;16-CHN;8-WAY;4-DIE"
        );
        assert_eq!(
            configs[8].architecture_label(),
            "32-DDR-buf;32-CHN;1-WAY;1-DIE"
        );
        assert_eq!(configs[9].total_dies(), 32 * 8 * 4);
        for c in &configs {
            assert!(c.validate().is_ok());
        }
    }

    #[test]
    fn table3_matches_the_paper() {
        let configs = table3_configs();
        assert_eq!(configs.len(), 8);
        assert_eq!(configs[0].total_dies(), 1);
        assert_eq!(
            configs[7].architecture_label(),
            "32-DDR-buf;32-CHN;16-WAY;16-DIE"
        );
        assert_eq!(configs[7].total_dies(), 8192);
    }

    #[test]
    fn ocz_vertex_like_is_a_sata_cache_drive() {
        let c = ocz_vertex_like();
        assert_eq!(c.host_interface, HostInterfaceConfig::Sata2);
        assert_eq!(c.cache_policy, CachePolicy::WriteCache);
        assert_eq!(c.total_dies(), 64);
        // ~128 GiB raw capacity, of which ~120 GB is exported.
        let raw_gib = c.raw_capacity_bytes() as f64 / (1u64 << 30) as f64;
        assert!((100.0..160.0).contains(&raw_gib), "raw = {raw_gib} GiB");
    }

    #[test]
    fn fig5_configs_differ_only_in_ecc() {
        let fixed = fig5_config(EccScheme::fixed_bch(40));
        let adaptive = fig5_config(EccScheme::adaptive_bch(40));
        assert_eq!(fixed.total_dies(), 32);
        assert_eq!(fixed.architecture_label(), adaptive.architecture_label());
        assert_ne!(fixed.ecc.name(), adaptive.ecc.name());
    }
}
