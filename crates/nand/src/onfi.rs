//! ONFI channel-interface timing.
//!
//! Commands, addresses and data move between the channel controller and the
//! NAND dies over a shared 8-bit ONFI bus. The time spent on the bus is what
//! couples dies on the same channel: while one die's page data is being
//! transferred, the other dies must wait for the bus even if their arrays are
//! idle. SSDExplorer models this contention explicitly; so do we, by
//! exposing per-transfer bus occupancy times that the channel controller
//! reserves on a shared [`ssdx_sim::Resource`].

use ssdx_sim::SimTime;

/// Supported ONFI interface speeds (mega-transfers per second on the 8-bit
/// data bus).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum OnfiSpeed {
    /// Asynchronous SDR interface with a 50 ns cycle, ~20 MB/s (the legacy
    /// mode of the 2 KB-page MLC parts the paper's experiments model).
    Sdr20,
    /// Asynchronous SDR interface, ~40 MB/s (legacy mode, Barefoot-era SSDs).
    Sdr40,
    /// ONFI 2.x source-synchronous DDR, 133 MT/s.
    Ddr133,
    /// ONFI 2.x source-synchronous DDR, 166 MT/s.
    #[default]
    Ddr166,
    /// ONFI 3.x, 200 MT/s.
    Ddr200,
    /// ONFI 3.x, 400 MT/s.
    Ddr400,
}

impl OnfiSpeed {
    /// Peak data rate of the bus in bytes per second.
    pub fn bytes_per_sec(self) -> u64 {
        match self {
            OnfiSpeed::Sdr20 => 20_000_000,
            OnfiSpeed::Sdr40 => 40_000_000,
            OnfiSpeed::Ddr133 => 133_000_000,
            OnfiSpeed::Ddr166 => 166_000_000,
            OnfiSpeed::Ddr200 => 200_000_000,
            OnfiSpeed::Ddr400 => 400_000_000,
        }
    }
}

/// Timing model of one ONFI channel bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnfiBus {
    /// Interface speed grade.
    pub speed: OnfiSpeed,
    /// Command cycle time, ns (one cycle per command byte).
    pub command_cycle_ns: u64,
    /// Number of address cycles per page-addressed command.
    pub address_cycles: u32,
    /// Turnaround/overhead per command phase, ns (tWB, tRHW and friends).
    pub phase_overhead_ns: u64,
}

impl OnfiBus {
    /// Creates a bus with default command/address timing for a speed grade.
    pub fn new(speed: OnfiSpeed) -> Self {
        OnfiBus {
            speed,
            command_cycle_ns: 25,
            address_cycles: 5,
            phase_overhead_ns: 100,
        }
    }

    /// Time to issue a command + address sequence (no data phase).
    pub fn command_time(&self) -> SimTime {
        // Two command cycles (e.g. 80h/10h) plus the address cycles plus the
        // turnaround overhead.
        let cycles = 2 + self.address_cycles as u64;
        SimTime::from_ns(cycles * self.command_cycle_ns + self.phase_overhead_ns)
    }

    /// Time to move `bytes` of page data over the bus.
    pub fn data_transfer_time(&self, bytes: u64) -> SimTime {
        ssdx_sim::time::transfer_time(bytes, self.speed.bytes_per_sec())
    }

    /// Total bus occupancy for a data-out (read) or data-in (program) phase
    /// of `bytes`, including the command/address phase.
    pub fn transfer_time(&self, bytes: u64) -> SimTime {
        self.command_time() + self.data_transfer_time(bytes)
    }

    /// Bus occupancy of an erase command (no data phase).
    pub fn erase_command_time(&self) -> SimTime {
        self.command_time()
    }
}

impl Default for OnfiBus {
    fn default() -> Self {
        OnfiBus::new(OnfiSpeed::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_rate_matches_speed_grade() {
        let bus = OnfiBus::new(OnfiSpeed::Sdr40);
        // 4 KB at 40 MB/s = 102.4 µs.
        let t = bus.data_transfer_time(4096);
        assert!(t >= SimTime::from_us(102) && t <= SimTime::from_us(103));
        let fast = OnfiBus::new(OnfiSpeed::Ddr400).data_transfer_time(4096);
        assert!(fast < t / 9);
    }

    #[test]
    fn command_phase_is_small_but_nonzero() {
        let bus = OnfiBus::default();
        let c = bus.command_time();
        assert!(c > SimTime::ZERO);
        assert!(c < SimTime::from_us(1));
    }

    #[test]
    fn transfer_includes_command_phase() {
        let bus = OnfiBus::default();
        assert_eq!(
            bus.transfer_time(4096),
            bus.command_time() + bus.data_transfer_time(4096)
        );
    }

    #[test]
    fn faster_grades_are_monotonically_faster() {
        let grades = [
            OnfiSpeed::Sdr20,
            OnfiSpeed::Sdr40,
            OnfiSpeed::Ddr133,
            OnfiSpeed::Ddr166,
            OnfiSpeed::Ddr200,
            OnfiSpeed::Ddr400,
        ];
        for w in grades.windows(2) {
            assert!(w[0].bytes_per_sec() < w[1].bytes_per_sec());
        }
    }

    #[test]
    fn erase_command_has_no_data_phase() {
        let bus = OnfiBus::default();
        assert_eq!(bus.erase_command_time(), bus.command_time());
    }
}
