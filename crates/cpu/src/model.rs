//! The CPU execution model.

use crate::firmware::{FirmwareProfile, FirmwareTask};
use ssdx_sim::codec::{DecodeError, Decoder, Encoder};
use ssdx_sim::{Frequency, Grant, Resource, SimTime};

/// Aggregate CPU activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Firmware tasks executed.
    pub tasks: u64,
    /// Total CPU cycles consumed.
    pub cycles: u64,
    /// Total busy time of the core.
    pub busy: SimTime,
}

/// A single-issue controller CPU executing firmware tasks sequentially.
///
/// The core is modelled as a first-come-first-served resource: firmware
/// handling for different host commands serialises on it, which is exactly
/// how the single ARM7TDMI of the modelled platform behaves and is one of
/// the bottlenecks fine-grained exploration must expose. Multi-core
/// controller configurations can be modelled by instantiating several
/// `CpuModel`s and distributing commands across them.
#[derive(Debug, Clone)]
pub struct CpuModel {
    profile: FirmwareProfile,
    clock: Frequency,
    core: Resource,
    stats: CpuStats,
    /// Per-task `(cycles, duration)` cache in [`FirmwareTask::foreground`]
    /// order, derived once at construction. Cycle-count-to-time conversion
    /// costs a 128-bit division, and the foreground sequence runs four of
    /// them per host command on the hot path.
    foreground: [(u64, SimTime); 4],
}

impl CpuModel {
    /// Creates a CPU with the paper's 200 MHz clock and the given firmware
    /// profile.
    pub fn new(profile: FirmwareProfile) -> Self {
        Self::with_clock(profile, Frequency::from_mhz(200))
    }

    /// Creates a CPU with an explicit core clock.
    pub fn with_clock(profile: FirmwareProfile, clock: Frequency) -> Self {
        let foreground = FirmwareTask::foreground().map(|task| {
            let cycles = profile.cycles_for(task);
            (cycles, clock.cycles_to_time(cycles))
        });
        CpuModel {
            profile,
            clock,
            core: Resource::new("cpu-core"),
            stats: CpuStats::default(),
            foreground,
        }
    }

    /// Firmware profile in use.
    pub fn profile(&self) -> &FirmwareProfile {
        &self.profile
    }

    /// Core clock.
    pub fn clock(&self) -> Frequency {
        self.clock
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CpuStats {
        self.stats
    }

    /// Earliest instant the core is idle.
    pub fn free_at(&self) -> SimTime {
        self.core.free_at()
    }

    /// Executes one firmware task starting no earlier than `at`, returning
    /// the service window on the core.
    pub fn execute(&mut self, at: SimTime, task: FirmwareTask) -> Grant {
        let cycles = self.profile.cycles_for(task);
        let duration = self.clock.cycles_to_time(cycles);
        let grant = self.core.reserve(at, duration);
        self.stats.tasks += 1;
        self.stats.cycles += cycles;
        self.stats.busy += duration;
        grant
    }

    /// Executes the whole foreground task sequence for one command,
    /// returning the grant covering the full sequence.
    ///
    /// Uses the per-task durations cached at construction; the reservations
    /// and statistics are the same as issuing the four
    /// [`execute`](Self::execute) calls one by one.
    pub fn execute_command_overhead(&mut self, at: SimTime) -> Grant {
        let mut first: Option<Grant> = None;
        let mut cursor = at;
        for (cycles, duration) in self.foreground {
            let g = self.core.reserve(cursor, duration);
            self.stats.tasks += 1;
            self.stats.cycles += cycles;
            self.stats.busy += duration;
            cursor = g.end;
            if first.is_none() {
                first = Some(g);
            }
        }
        let first = first.expect("foreground sequence is non-empty");
        Grant {
            start: first.start,
            end: cursor,
            wait: first.wait,
        }
    }

    /// Core utilization over a simulated horizon.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.core.utilization(horizon)
    }

    /// Number of 32-bit bus accesses one task issues (used by the caller to
    /// load the system interconnect).
    pub fn bus_accesses_per_task(&self) -> u32 {
        self.profile.bus_accesses_per_task
    }

    /// Resets dynamic state and statistics.
    pub fn reset(&mut self) {
        self.core.reset();
        self.stats = CpuStats::default();
    }

    /// Encodes the CPU's mutable state, in stable field order: the core
    /// resource, then the statistics (tasks, cycles, busy time). The
    /// firmware profile, clock, and cached foreground durations are
    /// construction parameters, not snapshot state.
    pub fn encode_state(&self, enc: &mut Encoder) {
        self.core.encode_state(enc);
        enc.put_u64(self.stats.tasks);
        enc.put_u64(self.stats.cycles);
        enc.put_time(self.stats.busy);
    }

    /// Restores state captured by [`encode_state`](Self::encode_state) onto
    /// a CPU constructed with the same profile and clock.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or malformed input.
    pub fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        self.core.decode_state(dec)?;
        self.stats.tasks = dec.get_u64()?;
        self.stats.cycles = dec.get_u64()?;
        self.stats.busy = dec.get_time()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_duration_matches_cycle_budget() {
        let mut cpu = CpuModel::new(FirmwareProfile::waf_abstracted());
        let g = cpu.execute(SimTime::ZERO, FirmwareTask::CommandDecode);
        // 400 cycles at 5 ns = 2 µs.
        assert_eq!(g.end - g.start, SimTime::from_us(2));
    }

    #[test]
    fn tasks_serialise_on_the_core() {
        let mut cpu = CpuModel::new(FirmwareProfile::default());
        let a = cpu.execute(SimTime::ZERO, FirmwareTask::CommandDecode);
        let b = cpu.execute(SimTime::ZERO, FirmwareTask::FtlLookup);
        assert_eq!(b.start, a.end);
    }

    #[test]
    fn command_overhead_covers_all_foreground_cycles() {
        let mut cpu = CpuModel::new(FirmwareProfile::waf_abstracted());
        let g = cpu.execute_command_overhead(SimTime::ZERO);
        let expected = cpu
            .clock()
            .cycles_to_time(FirmwareProfile::waf_abstracted().per_command_cycles());
        assert_eq!(g.end - g.start, expected);
        assert_eq!(cpu.stats().tasks, 4);
    }

    #[test]
    fn real_ftl_profile_is_slower_end_to_end() {
        let mut waf = CpuModel::new(FirmwareProfile::waf_abstracted());
        let mut real = CpuModel::new(FirmwareProfile::real_ftl());
        let gw = waf.execute_command_overhead(SimTime::ZERO);
        let gr = real.execute_command_overhead(SimTime::ZERO);
        assert!(gr.end > gw.end);
    }

    #[test]
    fn custom_clock_scales_latency() {
        let slow = CpuModel::with_clock(FirmwareProfile::default(), Frequency::from_mhz(100));
        let fast = CpuModel::with_clock(FirmwareProfile::default(), Frequency::from_mhz(400));
        let mut slow = slow;
        let mut fast = fast;
        let gs = slow.execute(SimTime::ZERO, FirmwareTask::DmaSetup);
        let gf = fast.execute(SimTime::ZERO, FirmwareTask::DmaSetup);
        assert_eq!((gs.end - gs.start).as_ps(), 4 * (gf.end - gf.start).as_ps());
    }

    #[test]
    fn stats_and_reset() {
        let mut cpu = CpuModel::new(FirmwareProfile::default());
        cpu.execute(SimTime::ZERO, FirmwareTask::Completion);
        assert_eq!(cpu.stats().tasks, 1);
        assert!(cpu.stats().cycles > 0);
        assert!(cpu.utilization(SimTime::from_ms(1)) > 0.0);
        cpu.reset();
        assert_eq!(cpu.stats().tasks, 0);
        assert_eq!(cpu.free_at(), SimTime::ZERO);
    }
}
