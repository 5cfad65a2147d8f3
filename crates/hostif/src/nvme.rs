//! PCI Express / NVM Express host interface model.

use crate::interface::{HostInterface, HostInterfaceKind};
use ssdx_sim::SimTime;

/// PCI Express generations supported by the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PcieGen {
    /// Gen 1: 2.5 GT/s per lane, 8b/10b encoding.
    Gen1,
    /// Gen 2: 5.0 GT/s per lane, 8b/10b encoding.
    Gen2,
    /// Gen 3: 8.0 GT/s per lane, 128b/130b encoding.
    Gen3,
}

impl PcieGen {
    /// Raw line rate of one lane in transfers per second.
    pub fn line_rate_per_lane(self) -> u64 {
        match self {
            PcieGen::Gen1 => 2_500_000_000,
            PcieGen::Gen2 => 5_000_000_000,
            PcieGen::Gen3 => 8_000_000_000,
        }
    }

    /// Encoding efficiency (payload bits per line bit).
    pub fn encoding_efficiency(self) -> f64 {
        match self {
            PcieGen::Gen1 | PcieGen::Gen2 => 0.8,
            PcieGen::Gen3 => 128.0 / 130.0,
        }
    }
}

/// An NVMe controller attached through a PCI Express link.
///
/// NVMe reduces per-command packetization latency dramatically compared to
/// SATA (doorbell write + DMA of a 64-byte submission entry instead of FIS
/// exchanges) and supports up to 64 K entries per queue, which is what lets
/// highly parallel SSD configurations expose their internal bandwidth even
/// without a DRAM write cache (the paper's Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NvmeInterface {
    /// PCIe generation of the link.
    pub gen: PcieGen,
    /// Number of lanes (x1, x4, x8, x16).
    pub lanes: u32,
    /// Fraction of raw link bandwidth available to payload after TLP
    /// headers and flow control (0–1).
    pub protocol_efficiency: f64,
    /// Fixed per-command overhead (doorbell, submission/completion entry
    /// DMA, interrupt), nanoseconds.
    pub command_overhead_ns: u64,
    /// Submission queue depth (NVMe allows up to 65 536).
    pub queue_depth: u32,
}

impl NvmeInterface {
    /// The PCIe Gen2 x8 + NVMe configuration explored in the paper's Fig. 4.
    pub fn gen2_x8() -> Self {
        NvmeInterface {
            gen: PcieGen::Gen2,
            lanes: 8,
            protocol_efficiency: 0.85,
            command_overhead_ns: 1_200,
            queue_depth: 65_536,
        }
    }

    /// A Gen3 x4 link, typical of early enterprise NVMe drives.
    pub fn gen3_x4() -> Self {
        NvmeInterface {
            gen: PcieGen::Gen3,
            lanes: 4,
            protocol_efficiency: 0.85,
            command_overhead_ns: 1_000,
            queue_depth: 65_536,
        }
    }

    /// A custom link configuration.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(gen: PcieGen, lanes: u32) -> Self {
        assert!(lanes > 0, "a PCIe link needs at least one lane");
        NvmeInterface {
            gen,
            lanes,
            ..Self::gen2_x8()
        }
    }
}

impl Default for NvmeInterface {
    fn default() -> Self {
        Self::gen2_x8()
    }
}

impl HostInterface for NvmeInterface {
    fn kind(&self) -> HostInterfaceKind {
        HostInterfaceKind::NvmePcie
    }

    fn ideal_bandwidth(&self) -> u64 {
        let raw_bits = self.gen.line_rate_per_lane() as f64 * self.lanes as f64;
        let payload_bits = raw_bits * self.gen.encoding_efficiency() * self.protocol_efficiency;
        (payload_bits / 8.0) as u64
    }

    fn queue_depth(&self) -> u32 {
        self.queue_depth
    }

    fn command_overhead(&self) -> SimTime {
        SimTime::from_ns(self.command_overhead_ns)
    }

    fn data_transfer_time(&self, bytes: u32) -> SimTime {
        ssdx_sim::time::transfer_time(bytes as u64, self.ideal_bandwidth())
    }

    fn name(&self) -> String {
        let gen = match self.gen {
            PcieGen::Gen1 => 1,
            PcieGen::Gen2 => 2,
            PcieGen::Gen3 => 3,
        };
        format!("PCIe Gen{} x{} + NVMe", gen, self.lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sata::SataInterface;

    #[test]
    fn gen2_x8_bandwidth_is_multiple_gigabytes() {
        let n = NvmeInterface::gen2_x8();
        let bw = n.ideal_bandwidth();
        // 5 GT/s * 8 lanes * 0.8 * 0.85 / 8 = 3.4 GB/s.
        assert!((3_000_000_000..3_800_000_000).contains(&bw), "bw = {bw}");
    }

    #[test]
    fn nvme_outruns_sata_by_an_order_of_magnitude() {
        let n = NvmeInterface::gen2_x8();
        let s = SataInterface::sata2();
        assert!(n.ideal_bandwidth() > 10 * s.ideal_bandwidth());
        assert!(n.command_overhead() < s.command_overhead());
        assert!(n.queue_depth() > 1000 * s.queue_depth());
    }

    #[test]
    fn lane_count_scales_bandwidth_linearly() {
        let x1 = NvmeInterface::new(PcieGen::Gen2, 1).ideal_bandwidth();
        let x8 = NvmeInterface::new(PcieGen::Gen2, 8).ideal_bandwidth();
        assert!((x8 as f64 / x1 as f64 - 8.0).abs() < 0.01);
    }

    #[test]
    fn gen3_uses_more_efficient_encoding() {
        assert!(PcieGen::Gen3.encoding_efficiency() > PcieGen::Gen2.encoding_efficiency());
        let g2 = NvmeInterface::new(PcieGen::Gen2, 4).ideal_bandwidth();
        let g3 = NvmeInterface::new(PcieGen::Gen3, 4).ideal_bandwidth();
        assert!(g3 > g2);
    }

    #[test]
    fn queue_depth_clamping() {
        // Every link exposes the protocol's 65,536-entry ceiling; a
        // narrower window is the configuration's queue-depth override.
        for nvme in [
            NvmeInterface::gen2_x8(),
            NvmeInterface::gen3_x4(),
            NvmeInterface::new(PcieGen::Gen1, 1),
        ] {
            assert_eq!(nvme.queue_depth(), 65_536);
        }
    }

    #[test]
    fn name_mentions_gen_and_lanes() {
        assert_eq!(NvmeInterface::gen2_x8().name(), "PCIe Gen2 x8 + NVMe");
        assert_eq!(NvmeInterface::gen3_x4().name(), "PCIe Gen3 x4 + NVMe");
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let _ = NvmeInterface::new(PcieGen::Gen2, 0);
    }
}
