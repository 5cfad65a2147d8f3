//! DDR2 timing parameter sets.

use ssdx_sim::{Frequency, SimTime};

/// A DDR2 SDRAM timing set, expressed in memory-clock cycles plus the clock
/// itself, following JEDEC notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DdrTimings {
    /// Memory clock (the data bus runs at twice this rate, DDR).
    pub clock: Frequency,
    /// CAS latency, cycles.
    pub cl: u32,
    /// RAS-to-CAS delay, cycles.
    pub t_rcd: u32,
    /// Row precharge time, cycles.
    pub t_rp: u32,
    /// Row active time, cycles.
    pub t_ras: u32,
    /// Refresh cycle time, cycles.
    pub t_rfc: u32,
    /// Average refresh interval, nanoseconds.
    pub t_refi_ns: u64,
    /// Burst length in beats (DDR2 supports 4 or 8).
    pub burst_length: u32,
    /// Data-bus width in bytes (x16 devices on a 64-bit DIMM → 8 bytes).
    pub bus_width_bytes: u32,
    /// Number of banks.
    pub banks: u32,
    /// Row size (page size) in bytes.
    pub row_bytes: u32,
}

impl DdrTimings {
    /// DDR2-800 (400 MHz clock), 5-5-5-18 timings — the kind of part found on
    /// SATA-era SSD controllers and the configuration used for the paper's
    /// experiments.
    pub fn ddr2_800() -> Self {
        DdrTimings {
            clock: Frequency::from_mhz(400),
            cl: 5,
            t_rcd: 5,
            t_rp: 5,
            t_ras: 18,
            t_rfc: 51,
            t_refi_ns: 7_800,
            burst_length: 8,
            bus_width_bytes: 8,
            banks: 8,
            row_bytes: 8192,
        }
    }

    /// DDR2-533 (266 MHz clock), 4-4-4-12: a slower, cheaper option useful
    /// for buffer-bandwidth ablations.
    pub fn ddr2_533() -> Self {
        DdrTimings {
            clock: Frequency::from_mhz(266),
            cl: 4,
            t_rcd: 4,
            t_rp: 4,
            t_ras: 12,
            t_rfc: 36,
            t_refi_ns: 7_800,
            burst_length: 8,
            bus_width_bytes: 8,
            banks: 8,
            row_bytes: 8192,
        }
    }

    /// Duration of `cycles` memory-clock cycles.
    pub fn cycles(&self, cycles: u32) -> SimTime {
        self.clock.cycles_to_time(cycles as u64)
    }

    /// Time to activate a closed row (tRCD).
    pub fn activate_time(&self) -> SimTime {
        self.cycles(self.t_rcd)
    }

    /// Time to precharge an open row (tRP).
    pub fn precharge_time(&self) -> SimTime {
        self.cycles(self.t_rp)
    }

    /// CAS latency as time.
    pub fn cas_time(&self) -> SimTime {
        self.cycles(self.cl)
    }

    /// Time to refresh (tRFC).
    pub fn refresh_time(&self) -> SimTime {
        self.cycles(self.t_rfc)
    }

    /// Average refresh interval (tREFI).
    pub fn refresh_interval(&self) -> SimTime {
        SimTime::from_ns(self.t_refi_ns)
    }

    /// Bytes moved by one burst.
    pub fn burst_bytes(&self) -> u32 {
        self.burst_length * self.bus_width_bytes
    }

    /// Time occupied on the data bus by one burst (DDR: two beats per clock).
    pub fn burst_time(&self) -> SimTime {
        self.clock.cycles_to_time(self.burst_length as u64) / 2
    }

    /// Peak data-bus bandwidth in bytes per second.
    pub fn peak_bandwidth(&self) -> u64 {
        // DDR: two transfers per clock.
        2 * self.clock.as_hz() * self.bus_width_bytes as u64
    }

    /// Validates the parameter set.
    pub fn validate(&self) -> Result<(), TimingsError> {
        if self.burst_length == 0
            || self.bus_width_bytes == 0
            || self.banks == 0
            || self.row_bytes == 0
        {
            return Err(TimingsError::ZeroDimension);
        }
        if self.cl == 0 || self.t_rcd == 0 || self.t_rp == 0 {
            return Err(TimingsError::ZeroLatency);
        }
        Ok(())
    }
}

impl Default for DdrTimings {
    fn default() -> Self {
        Self::ddr2_800()
    }
}

/// Error returned by [`DdrTimings::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingsError {
    /// A structural dimension (burst, width, banks, row) is zero.
    ZeroDimension,
    /// A core latency (CL, tRCD, tRP) is zero.
    ZeroLatency,
}

impl std::fmt::Display for TimingsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimingsError::ZeroDimension => write!(f, "dram structural dimension is zero"),
            TimingsError::ZeroLatency => write!(f, "dram core latency is zero"),
        }
    }
}

impl std::error::Error for TimingsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr2_800_parameters() {
        let t = DdrTimings::ddr2_800();
        assert!(t.validate().is_ok());
        // 400 MHz clock -> 2.5 ns period; CL5 = 12.5 ns.
        assert_eq!(t.cas_time().as_ps(), 12_500);
        assert_eq!(t.burst_bytes(), 64);
        // Peak bandwidth 6.4 GB/s.
        assert_eq!(t.peak_bandwidth(), 6_400_000_000);
    }

    #[test]
    fn burst_time_is_half_burst_length_clocks() {
        let t = DdrTimings::ddr2_800();
        // 8 beats at 2 beats per 2.5 ns clock = 10 ns.
        assert_eq!(t.burst_time().as_ns(), 10);
    }

    #[test]
    fn slower_grade_has_lower_bandwidth() {
        assert!(DdrTimings::ddr2_533().peak_bandwidth() < DdrTimings::ddr2_800().peak_bandwidth());
    }

    #[test]
    fn validation_catches_zeroes() {
        let mut t = DdrTimings::ddr2_800();
        t.banks = 0;
        assert_eq!(t.validate(), Err(TimingsError::ZeroDimension));
        let mut t = DdrTimings::ddr2_800();
        t.cl = 0;
        assert_eq!(t.validate(), Err(TimingsError::ZeroLatency));
    }

    #[test]
    fn refresh_interval_is_in_microsecond_range() {
        let t = DdrTimings::default();
        assert_eq!(t.refresh_interval().as_ns(), 7_800);
        assert!(t.refresh_time() > SimTime::ZERO);
    }
}
