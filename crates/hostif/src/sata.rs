//! Serial ATA host interface model.

use crate::interface::{HostInterface, HostInterfaceKind};
use ssdx_sim::SimTime;

/// A SATA host interface with Native Command Queuing.
///
/// All protocol layers are reduced to their timing behaviour: the link moves
/// payload at the 8b/10b-decoded line rate degraded by framing efficiency,
/// and every command additionally pays a fixed FIS exchange overhead
/// (command FIS, DMA setup/activate FIS, status FIS). The NCQ window — at
/// most 32 outstanding commands — is the protocol property responsible for
/// the performance flattening of no-cache SSDs in the paper's Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SataInterface {
    /// Line rate in bits per second (3 Gb/s for SATA II, 6 Gb/s for SATA III).
    pub line_rate_bps: u64,
    /// Framing/flow-control efficiency after 8b/10b decoding (0–1).
    pub framing_efficiency: f64,
    /// Fixed FIS exchange overhead per command, nanoseconds.
    pub fis_overhead_ns: u64,
    /// NCQ queue depth (the standard allows at most 32).
    pub ncq_depth: u32,
    /// `true` for SATA III timing, `false` for SATA II.
    gen3: bool,
}

impl SataInterface {
    /// SATA II: 3 Gb/s line rate, 32-deep NCQ.
    pub fn sata2() -> Self {
        SataInterface {
            line_rate_bps: 3_000_000_000,
            framing_efficiency: 0.93,
            fis_overhead_ns: 5_000,
            ncq_depth: 32,
            gen3: false,
        }
    }

    /// SATA III: 6 Gb/s line rate, 32-deep NCQ.
    pub fn sata3() -> Self {
        SataInterface {
            line_rate_bps: 6_000_000_000,
            framing_efficiency: 0.93,
            fis_overhead_ns: 4_000,
            ncq_depth: 32,
            gen3: true,
        }
    }
}

impl Default for SataInterface {
    fn default() -> Self {
        Self::sata2()
    }
}

impl HostInterface for SataInterface {
    fn kind(&self) -> HostInterfaceKind {
        if self.gen3 {
            HostInterfaceKind::Sata3
        } else {
            HostInterfaceKind::Sata2
        }
    }

    fn ideal_bandwidth(&self) -> u64 {
        // 8b/10b: 10 line bits per payload byte, then framing efficiency.
        ((self.line_rate_bps / 10) as f64 * self.framing_efficiency) as u64
    }

    fn queue_depth(&self) -> u32 {
        self.ncq_depth
    }

    fn command_overhead(&self) -> SimTime {
        SimTime::from_ns(self.fis_overhead_ns)
    }

    fn data_transfer_time(&self, bytes: u32) -> SimTime {
        ssdx_sim::time::transfer_time(bytes as u64, self.ideal_bandwidth())
    }

    fn name(&self) -> String {
        if self.gen3 {
            "SATA III (6 Gb/s)".to_string()
        } else {
            "SATA II (3 Gb/s)".to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sata2_ideal_bandwidth_is_about_280_mbps() {
        let s = SataInterface::sata2();
        let bw = s.ideal_bandwidth();
        assert!((270_000_000..=290_000_000).contains(&bw), "bw = {bw}");
    }

    #[test]
    fn sata3_doubles_the_line_rate() {
        let s2 = SataInterface::sata2();
        let s3 = SataInterface::sata3();
        assert!(s3.ideal_bandwidth() > 19 * s2.ideal_bandwidth() / 10);
        assert_eq!(s3.kind(), HostInterfaceKind::Sata3);
        assert_eq!(s2.kind(), HostInterfaceKind::Sata2);
    }

    #[test]
    fn ncq_window_is_bounded_at_32() {
        assert_eq!(SataInterface::sata2().queue_depth(), 32);
        assert_eq!(SataInterface::sata3().queue_depth(), 32);
    }

    #[test]
    fn four_kb_transfer_time_is_tens_of_microseconds() {
        let s = SataInterface::sata2();
        let t = s.transfer_time(4096);
        assert!(
            t >= SimTime::from_us(15) && t <= SimTime::from_us(25),
            "t = {t}"
        );
    }

    #[test]
    fn effective_bandwidth_for_4kb_is_well_below_ideal() {
        let s = SataInterface::sata2();
        let eff = s.effective_bandwidth(4096);
        assert!(eff < 0.85 * s.ideal_bandwidth() as f64);
        assert!(eff > 0.4 * s.ideal_bandwidth() as f64);
    }

    #[test]
    fn names_mention_generation() {
        assert!(SataInterface::sata2().name().contains("3 Gb/s"));
        assert!(SataInterface::sata3().name().contains("6 Gb/s"));
    }
}
