//! The channel controller proper.

use crate::config::{ChannelConfig, GangMode};
use ssdx_nand::{NandConfig, NandDie, NandOp, PageAddr};
use ssdx_sim::codec::{DecodeError, Decoder, Encoder};
use ssdx_sim::{Resource, SimTime};
use std::fmt;

/// Errors reported by the channel controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelError {
    /// Way index out of range.
    WayOutOfRange,
    /// Die index out of range for the way.
    DieOutOfRange,
    /// The page address does not fit the die geometry.
    BadPageAddress,
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::WayOutOfRange => write!(f, "way index out of range"),
            ChannelError::DieOutOfRange => write!(f, "die index out of range"),
            ChannelError::BadPageAddress => write!(f, "page address out of range"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// Timing of one operation carried out by the channel controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelOutcome {
    /// When the PP-DMA movement between the AHB side and the SRAM buffer
    /// finished (write path) or started (read path).
    pub dma_done: SimTime,
    /// When the ONFI bus finished moving data/commands for this operation.
    pub bus_done: SimTime,
    /// When the NAND array operation completed and the result is available.
    pub complete_at: SimTime,
    /// Expected raw bit errors for the page at its current wear (reads).
    pub expected_raw_errors: f64,
}

/// Aggregate channel statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Page programs issued.
    pub programs: u64,
    /// Page reads issued.
    pub reads: u64,
    /// Block erases issued.
    pub erases: u64,
    /// Bytes moved over the ONFI data bus.
    pub bus_bytes: u64,
}

/// One channel controller and the NAND dies behind it.
///
/// The controller serialises data transfers on the resources implied by the
/// configured [`GangMode`], serialises SRAM-side movements on the PP-DMA
/// engine, and lets the dies' array operations proceed in parallel once
/// their data has been delivered.
#[derive(Debug, Clone)]
pub struct ChannelController {
    id: u32,
    config: ChannelConfig,
    /// Shared command/data bus (SharedBus) or command-only bus (SharedControl).
    channel_bus: Resource,
    /// Per-way data paths, used only in SharedControl mode.
    way_buses: Vec<Resource>,
    ppdma: Resource,
    dies: Vec<Vec<NandDie>>,
    stats: ChannelStats,
    /// ONFI command/address phase time, cached at construction.
    command_time: SimTime,
    /// ONFI erase-command phase time, cached at construction.
    erase_command_time: SimTime,
    /// One-entry `(bytes, (ppdma, onfi data))` transfer-time memo: within a
    /// run, almost every operation moves the same raw page size, and each
    /// recomputation costs two 128-bit divisions on the per-page hot path.
    transfer_memo: (u32, (SimTime, SimTime)),
}

impl ChannelController {
    /// Creates a channel controller with `config`, populating its dies from
    /// `nand` and the deterministic `seed`.
    pub fn new(id: u32, config: ChannelConfig, nand: NandConfig, seed: u64) -> Self {
        let dies = (0..config.ways)
            .map(|w| {
                (0..config.dies_per_way)
                    .map(|d| {
                        let die_id = w * config.dies_per_way + d;
                        NandDie::new(
                            die_id,
                            nand,
                            seed ^ ((id as u64) << 32) ^ ((die_id as u64) << 8),
                        )
                    })
                    .collect()
            })
            .collect();
        let way_buses = (0..config.ways)
            .map(|_| Resource::new("chan-way-data"))
            .collect();
        ChannelController {
            id,
            channel_bus: Resource::new("chan-onfi"),
            way_buses,
            ppdma: Resource::new("chan-ppdma"),
            dies,
            stats: ChannelStats::default(),
            command_time: config.onfi.command_time(),
            erase_command_time: config.onfi.erase_command_time(),
            // Poisoned with a size no page operation uses (erases pass 0
            // bytes but skip the data phase entirely).
            transfer_memo: (u32::MAX, (SimTime::ZERO, SimTime::ZERO)),
            config,
        }
    }

    /// PP-DMA and ONFI data-phase times for a `bytes`-sized transfer,
    /// through the one-entry memo.
    #[inline]
    fn transfer_times(&mut self, bytes: u32) -> (SimTime, SimTime) {
        if self.transfer_memo.0 != bytes {
            self.transfer_memo = (
                bytes,
                (
                    ssdx_sim::time::transfer_time(bytes as u64, self.config.ppdma_bandwidth),
                    self.config.onfi.data_transfer_time(bytes as u64),
                ),
            );
        }
        self.transfer_memo.1
    }

    /// Channel identifier.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Configuration in use.
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Immutable access to one die.
    ///
    /// # Errors
    ///
    /// Returns an error if the way or die index is out of range.
    pub fn die(&self, way: u32, die: u32) -> Result<&NandDie, ChannelError> {
        self.dies
            .get(way as usize)
            .ok_or(ChannelError::WayOutOfRange)?
            .get(die as usize)
            .ok_or(ChannelError::DieOutOfRange)
    }

    /// Ages every die on the channel to `pe_cycles` program/erase cycles.
    pub fn age_all(&mut self, pe_cycles: u64) {
        for way in &mut self.dies {
            for die in way {
                die.age_all_blocks(pe_cycles);
            }
        }
    }

    /// Installs a degraded-device error profile (`read_disturb` extra raw
    /// errors per accumulated block read, `retention_scale` multiplier on
    /// the wear-model RBER) on every die of the channel.
    pub fn set_fault_profile(&mut self, read_disturb: f64, retention_scale: f64) {
        for way in &mut self.dies {
            for die in way {
                die.set_fault_profile(read_disturb, retention_scale);
            }
        }
    }

    fn data_bus_for(&mut self, way: u32) -> &mut Resource {
        match self.config.gang {
            GangMode::SharedBus => &mut self.channel_bus,
            GangMode::SharedControl => &mut self.way_buses[way as usize],
        }
    }

    /// Executes one NAND operation on die `(way, die)`.
    ///
    /// The write path is: PP-DMA moves `bytes` from the AHB side into the
    /// SRAM buffer, the ONFI port streams them to the die, then the die
    /// programs. The read path is: command to the die, die array read, data
    /// streamed back over the ONFI port, PP-DMA drains the SRAM buffer.
    /// Erase only needs the command phase.
    ///
    /// # Errors
    ///
    /// Returns an error if the indices or the page address are out of range.
    pub fn try_execute(
        &mut self,
        at: SimTime,
        way: u32,
        die: u32,
        op: NandOp,
        addr: PageAddr,
        bytes: u32,
    ) -> Result<ChannelOutcome, ChannelError> {
        // Validate indices up front.
        let _ = self.die(way, die)?;
        // Erases have no data phase and always pass `bytes == 0`; computing
        // transfer times only for the page operations keeps them from
        // clobbering the one-entry memo between GC-interleaved programs.
        let (ppdma_time, data_time) = if op.is_page_op() {
            self.transfer_times(bytes)
        } else {
            (SimTime::ZERO, SimTime::ZERO)
        };
        let command_time = self.command_time;

        let outcome = match op {
            NandOp::Program => {
                // PP-DMA into the SRAM buffer.
                let dma = self.ppdma.reserve(at, ppdma_time);
                // Command + data over the ONFI path of this way's gang.
                let command_grant = match self.config.gang {
                    GangMode::SharedBus => None,
                    GangMode::SharedControl => {
                        Some(self.channel_bus.reserve(dma.end, command_time))
                    }
                };
                let bus_start = command_grant.map(|g| g.end).unwrap_or(dma.end);
                let bus_occupancy = match self.config.gang {
                    GangMode::SharedBus => command_time + data_time,
                    GangMode::SharedControl => data_time,
                };
                let bus = self.data_bus_for(way).reserve(bus_start, bus_occupancy);
                // Array program starts once the data is in the page register.
                let die_ref = self
                    .dies
                    .get_mut(way as usize)
                    .ok_or(ChannelError::WayOutOfRange)?
                    .get_mut(die as usize)
                    .ok_or(ChannelError::DieOutOfRange)?;
                let array = die_ref
                    .try_execute(bus.end, NandOp::Program, addr)
                    .map_err(|_| ChannelError::BadPageAddress)?;
                self.stats.programs += 1;
                self.stats.bus_bytes += bytes as u64;
                ChannelOutcome {
                    dma_done: dma.end,
                    bus_done: bus.end,
                    complete_at: array.end,
                    expected_raw_errors: array.expected_raw_errors,
                }
            }
            NandOp::Read => {
                // Command to the die, then the array read.
                let cmd = self.channel_bus.reserve(at, command_time);
                let die_ref = self
                    .dies
                    .get_mut(way as usize)
                    .ok_or(ChannelError::WayOutOfRange)?
                    .get_mut(die as usize)
                    .ok_or(ChannelError::DieOutOfRange)?;
                let array = die_ref
                    .try_execute(cmd.end, NandOp::Read, addr)
                    .map_err(|_| ChannelError::BadPageAddress)?;
                // Data out over the way's data path, then PP-DMA to the AHB side.
                let bus = self.data_bus_for(way).reserve(array.end, data_time);
                let dma = self.ppdma.reserve(bus.end, ppdma_time);
                self.stats.reads += 1;
                self.stats.bus_bytes += bytes as u64;
                ChannelOutcome {
                    dma_done: dma.end,
                    bus_done: bus.end,
                    complete_at: dma.end,
                    expected_raw_errors: array.expected_raw_errors,
                }
            }
            NandOp::Erase => {
                let cmd = self.channel_bus.reserve(at, self.erase_command_time);
                let die_ref = self
                    .dies
                    .get_mut(way as usize)
                    .ok_or(ChannelError::WayOutOfRange)?
                    .get_mut(die as usize)
                    .ok_or(ChannelError::DieOutOfRange)?;
                let array = die_ref
                    .try_execute(cmd.end, NandOp::Erase, addr)
                    .map_err(|_| ChannelError::BadPageAddress)?;
                self.stats.erases += 1;
                ChannelOutcome {
                    dma_done: cmd.end,
                    bus_done: cmd.end,
                    complete_at: array.end,
                    expected_raw_errors: 0.0,
                }
            }
        };
        Ok(outcome)
    }

    /// Infallible wrapper around [`try_execute`](Self::try_execute).
    ///
    /// # Panics
    ///
    /// Panics if the indices or the page address are out of range.
    pub fn execute(
        &mut self,
        at: SimTime,
        way: u32,
        die: u32,
        op: NandOp,
        addr: PageAddr,
        bytes: u32,
    ) -> ChannelOutcome {
        self.try_execute(at, way, die, op, addr, bytes)
            // ssdx-lint::allow(no-panic-in-hot-path): the documented
            // infallible twin of try_execute (see `# Panics` above);
            // callers who cannot prove their range use try_execute.
            .expect("way/die/page address out of range")
    }

    /// ONFI data-bus utilization of the channel over a horizon (SharedBus
    /// mode reports the shared bus, SharedControl the average of the way
    /// buses).
    pub fn bus_utilization(&self, horizon: SimTime) -> f64 {
        match self.config.gang {
            GangMode::SharedBus => self.channel_bus.utilization(horizon),
            GangMode::SharedControl => {
                let sum: f64 = self.way_buses.iter().map(|b| b.utilization(horizon)).sum();
                sum / self.way_buses.len() as f64
            }
        }
    }

    /// Resets dynamic activity (busy windows and statistics), keeping wear.
    pub fn reset_activity(&mut self) {
        self.channel_bus.reset();
        for b in &mut self.way_buses {
            b.reset();
        }
        self.ppdma.reset();
        for way in &mut self.dies {
            for die in way {
                die.reset_activity();
            }
        }
        self.stats = ChannelStats::default();
    }

    /// Encodes the channel's mutable state, in stable field order: the
    /// channel bus, each per-way data bus, the PP-DMA engine, each die in
    /// way-major order (all counts construction-fixed, no length prefixes),
    /// then the statistics (programs, reads, erases, bus bytes). The
    /// identifier, configuration, cached command times and the transfer-time
    /// memo (a value-identical cache, re-primed lazily) are not snapshot
    /// state.
    pub fn encode_state(&self, enc: &mut Encoder) {
        self.channel_bus.encode_state(enc);
        for bus in &self.way_buses {
            bus.encode_state(enc);
        }
        self.ppdma.encode_state(enc);
        for way in &self.dies {
            for die in way {
                die.encode_state(enc);
            }
        }
        enc.put_u64(self.stats.programs);
        enc.put_u64(self.stats.reads);
        enc.put_u64(self.stats.erases);
        enc.put_u64(self.stats.bus_bytes);
    }

    /// Restores state captured by [`encode_state`](Self::encode_state) onto
    /// a controller constructed with the same configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or malformed input.
    pub fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        self.channel_bus.decode_state(dec)?;
        for bus in &mut self.way_buses {
            bus.decode_state(dec)?;
        }
        self.ppdma.decode_state(dec)?;
        for way in &mut self.dies {
            for die in way {
                die.decode_state(dec)?;
            }
        }
        self.stats.programs = dec.get_u64()?;
        self.stats.reads = dec.get_u64()?;
        self.stats.erases = dec.get_u64()?;
        self.stats.bus_bytes = dec.get_u64()?;
        self.transfer_memo = (u32::MAX, (SimTime::ZERO, SimTime::ZERO));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(block: u32, page: u32) -> PageAddr {
        PageAddr {
            plane: 0,
            block,
            page,
        }
    }

    fn controller(gang: GangMode) -> ChannelController {
        ChannelController::new(
            0,
            ChannelConfig::new(2, 2).with_gang(gang),
            NandConfig::default(),
            42,
        )
    }

    #[test]
    fn program_pipeline_orders_dma_bus_array() {
        let mut c = controller(GangMode::SharedBus);
        let o = c.execute(SimTime::ZERO, 0, 0, NandOp::Program, addr(0, 0), 4096);
        assert!(o.dma_done > SimTime::ZERO);
        assert!(o.bus_done > o.dma_done);
        assert!(o.complete_at > o.bus_done + SimTime::from_us(800));
    }

    #[test]
    fn read_pipeline_orders_array_bus_dma() {
        let mut c = controller(GangMode::SharedBus);
        let o = c.execute(SimTime::ZERO, 0, 0, NandOp::Read, addr(0, 0), 4096);
        // Array read is ~60 µs, then the data moves out.
        assert!(o.bus_done > SimTime::from_us(60));
        assert!(o.complete_at >= o.bus_done);
        assert_eq!(c.stats().reads, 1);
    }

    #[test]
    fn erase_needs_only_the_command_phase() {
        let mut c = controller(GangMode::SharedBus);
        let o = c.execute(SimTime::ZERO, 1, 1, NandOp::Erase, addr(3, 0), 0);
        assert_eq!(o.dma_done, o.bus_done);
        // tBERS is at least 1 ms nominal, minus the ±5 % per-operation jitter.
        assert!(o.complete_at >= SimTime::from_us(940));
        assert_eq!(c.stats().erases, 1);
    }

    #[test]
    fn shared_bus_serialises_transfers_to_different_ways() {
        let mut c = controller(GangMode::SharedBus);
        let a = c.execute(SimTime::ZERO, 0, 0, NandOp::Program, addr(0, 0), 4096);
        let b = c.execute(SimTime::ZERO, 1, 0, NandOp::Program, addr(0, 0), 4096);
        // The second transfer's bus phase starts after the first one's.
        assert!(b.bus_done > a.bus_done);
        // But the array programs overlap (different dies).
        assert!(b.complete_at < a.complete_at + SimTime::from_ms(3));
    }

    #[test]
    fn shared_control_lets_way_data_paths_overlap() {
        let mut shared = controller(GangMode::SharedBus);
        let mut split = controller(GangMode::SharedControl);
        let a0 = shared.execute(SimTime::ZERO, 0, 0, NandOp::Program, addr(0, 0), 4096);
        let a1 = shared.execute(SimTime::ZERO, 1, 0, NandOp::Program, addr(0, 0), 4096);
        let b0 = split.execute(SimTime::ZERO, 0, 0, NandOp::Program, addr(0, 0), 4096);
        let b1 = split.execute(SimTime::ZERO, 1, 0, NandOp::Program, addr(0, 0), 4096);
        let shared_span = a1.bus_done.max(a0.bus_done);
        let split_span = b1.bus_done.max(b0.bus_done);
        assert!(split_span < shared_span, "{split_span} vs {shared_span}");
    }

    #[test]
    fn same_die_operations_serialise_on_the_array() {
        let mut c = controller(GangMode::SharedBus);
        let a = c.execute(SimTime::ZERO, 0, 0, NandOp::Program, addr(0, 0), 4096);
        let b = c.execute(SimTime::ZERO, 0, 0, NandOp::Program, addr(0, 1), 4096);
        assert!(b.complete_at >= a.complete_at + SimTime::from_us(900));
    }

    #[test]
    fn out_of_range_indices_error() {
        let mut c = controller(GangMode::SharedBus);
        assert_eq!(
            c.try_execute(SimTime::ZERO, 9, 0, NandOp::Read, addr(0, 0), 4096)
                .unwrap_err(),
            ChannelError::WayOutOfRange
        );
        assert_eq!(
            c.try_execute(SimTime::ZERO, 0, 9, NandOp::Read, addr(0, 0), 4096)
                .unwrap_err(),
            ChannelError::DieOutOfRange
        );
        let bad = PageAddr {
            plane: 7,
            block: 0,
            page: 0,
        };
        assert_eq!(
            c.try_execute(SimTime::ZERO, 0, 0, NandOp::Read, bad, 4096)
                .unwrap_err(),
            ChannelError::BadPageAddress
        );
        assert!(c.die(9, 0).is_err());
        assert!(c.die(0, 9).is_err());
    }

    #[test]
    fn aging_propagates_to_all_dies() {
        let mut c = controller(GangMode::SharedBus);
        c.age_all(3_000);
        for way in 0..2 {
            for die in 0..2 {
                assert_eq!(c.die(way, die).unwrap().block_pe_cycles(addr(0, 0)), 3_000);
            }
        }
    }

    #[test]
    fn fault_profile_propagates_to_all_dies() {
        let mut c = controller(GangMode::SharedBus);
        c.set_fault_profile(0.5, 2.0);
        c.age_all(1_000);
        let baseline = {
            let mut plain = controller(GangMode::SharedBus);
            plain.age_all(1_000);
            plain.die(0, 0).unwrap().expected_raw_errors(addr(0, 0))
        };
        for way in 0..2 {
            for die in 0..2 {
                let got = c.die(way, die).unwrap().expected_raw_errors(addr(0, 0));
                assert_eq!(got, baseline * 2.0);
            }
        }
    }

    #[test]
    fn stats_and_reset() {
        let mut c = controller(GangMode::SharedBus);
        c.execute(SimTime::ZERO, 0, 0, NandOp::Program, addr(0, 0), 4096);
        c.execute(SimTime::ZERO, 0, 1, NandOp::Read, addr(0, 0), 4096);
        assert_eq!(c.stats().programs, 1);
        assert_eq!(c.stats().reads, 1);
        assert_eq!(c.stats().bus_bytes, 8192);
        assert!(c.bus_utilization(SimTime::from_ms(1)) > 0.0);
        c.reset_activity();
        assert_eq!(c.stats().programs, 0);
        assert_eq!(c.die(0, 0).unwrap().ready_at(), SimTime::ZERO);
    }
}
