//! Single-layer AMBA AHB bus.

use ssdx_sim::codec::{DecodeError, Decoder, Encoder};
use ssdx_sim::{Frequency, Resource, SimTime};
use std::fmt;

/// Static configuration of an AHB bus instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AhbConfig {
    /// Bus clock (the paper runs the AHB at the CPU frequency, 200 MHz).
    pub clock: Frequency,
    /// Data bus width in bytes (AHB is 32-bit in the modelled platform).
    pub data_width_bytes: u32,
    /// Number of master ports.
    pub masters: u32,
    /// Number of slave ports.
    pub slaves: u32,
    /// Maximum beats per burst (INCR16).
    pub max_burst_beats: u32,
    /// Default wait states inserted by slaves per data beat.
    pub default_wait_states: u32,
    /// Arbitration cycles charged at the start of every burst.
    pub arbitration_cycles: u32,
}

impl AhbConfig {
    /// The configuration used by the paper: AMBA AHB 2.0 at 200 MHz, 32-bit
    /// data, 16 masters and 16 slaves, INCR16 bursts.
    ///
    /// The bus is one [`Resource`]: it grants transfers in the order they
    /// are reserved, and there is no round-robin arbiter. Arbitration is
    /// modelled only as its cost, [`arbitration_cycles`](Self::arbitration_cycles)
    /// per burst.
    pub fn paper_default() -> Self {
        AhbConfig {
            clock: Frequency::from_mhz(200),
            data_width_bytes: 4,
            masters: 16,
            slaves: 16,
            max_burst_beats: 16,
            default_wait_states: 0,
            arbitration_cycles: 1,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), AhbError> {
        if self.masters == 0 || self.slaves == 0 {
            return Err(AhbError::NoPorts);
        }
        if self.data_width_bytes == 0 || self.max_burst_beats == 0 {
            return Err(AhbError::ZeroDimension);
        }
        Ok(())
    }
}

impl Default for AhbConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Errors produced by the AHB model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AhbError {
    /// Master or slave port index out of range.
    PortOutOfRange,
    /// Configuration has zero masters or slaves.
    NoPorts,
    /// Configuration has a zero width or burst length.
    ZeroDimension,
}

impl fmt::Display for AhbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AhbError::PortOutOfRange => write!(f, "master or slave port index out of range"),
            AhbError::NoPorts => write!(f, "bus must have at least one master and one slave"),
            AhbError::ZeroDimension => write!(f, "bus width and burst length must be non-zero"),
        }
    }
}

impl std::error::Error for AhbError {}

/// The burst type chosen for (a portion of) a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BurstKind {
    /// Single beat.
    Single,
    /// 4-beat incrementing burst.
    Incr4,
    /// 8-beat incrementing burst.
    Incr8,
    /// 16-beat incrementing burst.
    Incr16,
}

impl BurstKind {
    /// Number of data beats in this burst kind.
    pub fn beats(self) -> u32 {
        match self {
            BurstKind::Single => 1,
            BurstKind::Incr4 => 4,
            BurstKind::Incr8 => 8,
            BurstKind::Incr16 => 16,
        }
    }

    /// Largest burst kind not exceeding `beats` beats.
    pub fn largest_fitting(beats: u32) -> BurstKind {
        if beats >= 16 {
            BurstKind::Incr16
        } else if beats >= 8 {
            BurstKind::Incr8
        } else if beats >= 4 {
            BurstKind::Incr4
        } else {
            BurstKind::Single
        }
    }
}

/// Timing of one completed bus transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// When the bus started serving this transfer.
    pub start: SimTime,
    /// When the last data beat completed.
    pub end: SimTime,
    /// Number of bursts the transfer was split into.
    pub bursts: u32,
    /// Total number of data beats.
    pub beats: u32,
    /// Bus-clock cycles spent (arbitration + address + data + wait states).
    pub cycles: u64,
}

/// Per-master accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Transfers completed.
    pub transfers: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Total time spent owning the bus.
    pub ownership: SimTime,
}

/// A single-layer AHB bus shared by all masters and slaves.
#[derive(Debug, Clone)]
pub struct AhbBus {
    config: AhbConfig,
    bus: Resource,
    per_master: Vec<BusStats>,
    slave_wait_states: Vec<u32>,
    /// One-entry `(cycles, duration)` memo: within a run almost every
    /// transfer moves the same descriptor, and each cycle-to-time
    /// conversion costs a 128-bit division.
    duration_memo: (u64, SimTime),
}

impl AhbBus {
    /// Creates an idle bus.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use [`AhbConfig::validate`]
    /// to check beforehand.
    pub fn new(config: AhbConfig) -> Self {
        config.validate().expect("invalid AHB configuration");
        AhbBus {
            config,
            bus: Resource::new("ahb"),
            per_master: vec![BusStats::default(); config.masters as usize],
            slave_wait_states: vec![config.default_wait_states; config.slaves as usize],
            duration_memo: (0, SimTime::ZERO),
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &AhbConfig {
        &self.config
    }

    /// Overrides the wait states of one slave port.
    ///
    /// # Errors
    ///
    /// Returns [`AhbError::PortOutOfRange`] if the slave index is invalid.
    pub fn set_slave_wait_states(&mut self, slave: u32, wait_states: u32) -> Result<(), AhbError> {
        let slot = self
            .slave_wait_states
            .get_mut(slave as usize)
            .ok_or(AhbError::PortOutOfRange)?;
        *slot = wait_states;
        Ok(())
    }

    /// Statistics of one master port.
    ///
    /// # Errors
    ///
    /// Returns [`AhbError::PortOutOfRange`] if the master index is invalid.
    pub fn master_stats(&self, master: u32) -> Result<BusStats, AhbError> {
        self.per_master
            .get(master as usize)
            .copied()
            .ok_or(AhbError::PortOutOfRange)
    }

    /// Earliest instant at which the bus is idle.
    pub fn free_at(&self) -> SimTime {
        self.bus.free_at()
    }

    /// Bus utilization over a simulated horizon.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.bus.utilization(horizon)
    }

    /// Number of cycles a transfer of `bytes` bytes to `slave` occupies,
    /// including arbitration, address phases and wait states.
    pub fn transfer_cycles(&self, slave: u32, bytes: u32) -> u64 {
        let (_, _, cycles) = self.split(slave, bytes);
        cycles
    }

    /// Splits a transfer of `bytes` bytes to `slave` into INCR16/8/4 and
    /// single bursts, returning its `(beats, bursts, cycles)`.
    fn split(&self, slave: u32, bytes: u32) -> (u32, u32, u64) {
        let beats_total = bytes.div_ceil(self.config.data_width_bytes).max(1);
        let wait = self
            .slave_wait_states
            .get(slave as usize)
            .copied()
            .unwrap_or(self.config.default_wait_states) as u64;
        let mut remaining = beats_total;
        let mut bursts = 0;
        let mut cycles = 0u64;
        while remaining > 0 {
            let kind = BurstKind::largest_fitting(remaining.min(self.config.max_burst_beats));
            let beats = kind.beats().min(remaining);
            // Arbitration + one address phase per burst; data beats overlap
            // address phases of following beats (pipelined), wait states add
            // per-beat stalls.
            cycles += self.config.arbitration_cycles as u64 + 1 + beats as u64 * (1 + wait);
            bursts += 1;
            remaining -= beats;
        }
        (beats_total, bursts, cycles)
    }

    /// Performs a transfer of `bytes` bytes from `master` to `slave`,
    /// starting no earlier than `at`. Every burst pays its arbitration
    /// cycles, but the whole transfer is booked as one ownership window:
    /// the master holds the bus for all of its bursts.
    ///
    /// # Panics
    ///
    /// Panics if the master or slave index is out of range; use
    /// [`try_transfer`](Self::try_transfer) for a fallible variant.
    pub fn transfer(&mut self, at: SimTime, master: u32, slave: u32, bytes: u32) -> Transfer {
        self.try_transfer(at, master, slave, bytes)
            .expect("master or slave port out of range")
    }

    /// Fallible variant of [`transfer`](Self::transfer).
    ///
    /// # Errors
    ///
    /// Returns [`AhbError::PortOutOfRange`] if `master` or `slave` is not a
    /// valid port index.
    pub fn try_transfer(
        &mut self,
        at: SimTime,
        master: u32,
        slave: u32,
        bytes: u32,
    ) -> Result<Transfer, AhbError> {
        if master >= self.config.masters || slave >= self.config.slaves {
            return Err(AhbError::PortOutOfRange);
        }
        let (beats, bursts, cycles) = self.split(slave, bytes);
        if self.duration_memo.0 != cycles {
            self.duration_memo = (cycles, self.config.clock.cycles_to_time(cycles));
        }
        let duration = self.duration_memo.1;
        let grant = self.bus.reserve(at, duration);

        let stats = &mut self.per_master[master as usize];
        stats.transfers += 1;
        stats.bytes += bytes as u64;
        stats.ownership += duration;

        Ok(Transfer {
            start: grant.start,
            end: grant.end,
            bursts,
            beats,
            cycles,
        })
    }

    /// Peak bandwidth of the bus in bytes per second (one beat per cycle).
    pub fn peak_bandwidth(&self) -> u64 {
        self.config.clock.as_hz() * self.config.data_width_bytes as u64
    }

    /// Resets dynamic state and statistics.
    pub fn reset(&mut self) {
        self.bus.reset();
        for s in &mut self.per_master {
            *s = BusStats::default();
        }
    }

    /// Encodes the bus's mutable state, in stable field order: the bus
    /// resource, per-master statistics
    /// (construction-fixed count, no length prefix; transfers, bytes,
    /// ownership each), then the per-slave wait-state overrides. Wait states
    /// are runtime-mutable via
    /// [`set_slave_wait_states`](Self::set_slave_wait_states), so they are
    /// snapshot state even though they usually hold the configured default.
    pub fn encode_state(&self, enc: &mut Encoder) {
        self.bus.encode_state(enc);
        for s in &self.per_master {
            enc.put_u64(s.transfers);
            enc.put_u64(s.bytes);
            enc.put_time(s.ownership);
        }
        for &w in &self.slave_wait_states {
            enc.put_u32(w);
        }
    }

    /// Restores state captured by [`encode_state`](Self::encode_state) onto
    /// a bus constructed with the same configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or malformed input.
    pub fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        self.bus.decode_state(dec)?;
        for s in &mut self.per_master {
            s.transfers = dec.get_u64()?;
            s.bytes = dec.get_u64()?;
            s.ownership = dec.get_time()?;
        }
        for w in &mut self.slave_wait_states {
            *w = dec.get_u32()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        let c = AhbConfig::paper_default();
        assert!(c.validate().is_ok());
        assert_eq!(c.masters, 16);
        assert_eq!(c.slaves, 16);
    }

    #[test]
    fn burst_kind_selection() {
        assert_eq!(BurstKind::largest_fitting(1), BurstKind::Single);
        assert_eq!(BurstKind::largest_fitting(5), BurstKind::Incr4);
        assert_eq!(BurstKind::largest_fitting(9), BurstKind::Incr8);
        assert_eq!(BurstKind::largest_fitting(100), BurstKind::Incr16);
        assert_eq!(BurstKind::Incr8.beats(), 8);
    }

    #[test]
    fn transfer_cycle_count_scales_with_size() {
        let bus = AhbBus::new(AhbConfig::default());
        let small = bus.transfer_cycles(0, 4);
        let large = bus.transfer_cycles(0, 4096);
        assert!(small < 10);
        // 4096/4 = 1024 beats, 64 bursts of 16 beats: 64*(1+1+16) = 1152.
        assert_eq!(large, 64 * (1 + 1 + 16));
        assert!(large > small * 100);
    }

    #[test]
    fn bursts_count_the_incr_split_the_cycles_charge() {
        let mut bus = AhbBus::new(AhbConfig::default());
        // (bytes, bursts): 7 beats = INCR4 + 3 singles, 12 = INCR8 + INCR4,
        // 17 = INCR16 + single, 32 = 2 x INCR16, 1024 = 64 x INCR16.
        for (bytes, bursts) in [(28, 4), (48, 2), (68, 2), (128, 2), (4096, 64)] {
            let t = bus.transfer(SimTime::ZERO, 0, 0, bytes);
            assert_eq!(t.bursts, bursts, "{bytes} bytes");
            assert_eq!(t.beats, bytes.div_ceil(4), "{bytes} bytes");
            // Each burst pays one arbitration and one address cycle; each
            // beat one data cycle.
            assert_eq!(
                t.cycles,
                2 * bursts as u64 + t.beats as u64,
                "{bytes} bytes"
            );
            assert_eq!(t.cycles, bus.transfer_cycles(0, bytes), "{bytes} bytes");
        }
    }

    #[test]
    fn wait_states_slow_down_a_slave() {
        let mut bus = AhbBus::new(AhbConfig::default());
        let fast = bus.transfer_cycles(1, 1024);
        bus.set_slave_wait_states(1, 2).unwrap();
        let slow = bus.transfer_cycles(1, 1024);
        assert!(slow > fast);
    }

    #[test]
    fn overlapping_transfers_serialize_on_the_bus() {
        let mut bus = AhbBus::new(AhbConfig::default());
        let a = bus.transfer(SimTime::ZERO, 0, 0, 4096);
        let b = bus.transfer(SimTime::ZERO, 1, 0, 4096);
        assert_eq!(b.start, a.end);
    }

    #[test]
    fn transfer_duration_matches_cycles_at_200mhz() {
        let mut bus = AhbBus::new(AhbConfig::default());
        let t = bus.transfer(SimTime::ZERO, 0, 0, 64);
        // 64 bytes = 16 beats: 1 arb + 1 addr + 16 data = 18 cycles at 5 ns.
        assert_eq!(t.cycles, 18);
        assert_eq!(t.end - t.start, SimTime::from_ns(90));
    }

    #[test]
    fn out_of_range_ports_error() {
        let mut bus = AhbBus::new(AhbConfig::default());
        assert_eq!(
            bus.try_transfer(SimTime::ZERO, 99, 0, 64).unwrap_err(),
            AhbError::PortOutOfRange
        );
        assert_eq!(
            bus.try_transfer(SimTime::ZERO, 0, 99, 64).unwrap_err(),
            AhbError::PortOutOfRange
        );
        assert_eq!(bus.master_stats(99).unwrap_err(), AhbError::PortOutOfRange);
        assert_eq!(
            bus.set_slave_wait_states(99, 1).unwrap_err(),
            AhbError::PortOutOfRange
        );
    }

    #[test]
    fn stats_accumulate_per_master() {
        let mut bus = AhbBus::new(AhbConfig::default());
        bus.transfer(SimTime::ZERO, 2, 0, 512);
        bus.transfer(SimTime::ZERO, 2, 1, 512);
        let s = bus.master_stats(2).unwrap();
        assert_eq!(s.transfers, 2);
        assert_eq!(s.bytes, 1024);
        assert!(s.ownership > SimTime::ZERO);
        assert_eq!(bus.master_stats(3).unwrap().transfers, 0);
    }

    #[test]
    fn peak_bandwidth_is_clock_times_width() {
        let bus = AhbBus::new(AhbConfig::default());
        assert_eq!(bus.peak_bandwidth(), 800_000_000);
    }

    #[test]
    fn reset_clears_everything() {
        let mut bus = AhbBus::new(AhbConfig::default());
        bus.transfer(SimTime::ZERO, 0, 0, 4096);
        bus.reset();
        assert_eq!(bus.free_at(), SimTime::ZERO);
        assert_eq!(bus.master_stats(0).unwrap().transfers, 0);
    }

    #[test]
    #[should_panic(expected = "invalid AHB configuration")]
    fn invalid_config_panics_on_construction() {
        let c = AhbConfig {
            masters: 0,
            ..AhbConfig::default()
        };
        let _ = AhbBus::new(c);
    }
}
