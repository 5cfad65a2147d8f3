//! Firmware cycle budgets.

/// The firmware activities triggered by one host command as it traverses the
/// control path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FirmwareTask {
    /// Parsing the host command and allocating internal descriptors.
    CommandDecode,
    /// Logical-to-physical translation (table lookup in the WAF-abstracted
    /// mode, full mapping-table walk in real-FTL mode).
    FtlLookup,
    /// Programming the PP-DMA / host DMA descriptors for a data movement.
    DmaSetup,
    /// Handling the channel-controller interrupt and completing the command
    /// toward the host interface.
    Completion,
    /// Background garbage-collection bookkeeping charged per triggering
    /// write (only meaningful in real-FTL mode; the WAF abstraction folds
    /// this cost into the write amplification factor instead).
    GarbageCollection,
}

impl FirmwareTask {
    /// All per-command foreground tasks, in pipeline order.
    pub fn foreground() -> [FirmwareTask; 4] {
        [
            FirmwareTask::CommandDecode,
            FirmwareTask::FtlLookup,
            FirmwareTask::DmaSetup,
            FirmwareTask::Completion,
        ]
    }
}

/// Cycle budget of each firmware task on the modelled core.
///
/// The budgets are expressed in CPU cycles at the core clock (200 MHz in the
/// paper's platform), so one cycle is 5 ns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FirmwareProfile {
    /// Cycles to decode one host command.
    pub command_decode_cycles: u64,
    /// Cycles per logical-to-physical lookup.
    pub ftl_lookup_cycles: u64,
    /// Cycles to set up one DMA descriptor chain.
    pub dma_setup_cycles: u64,
    /// Cycles to complete one command back to the host.
    pub completion_cycles: u64,
    /// Cycles of garbage-collection bookkeeping per write command
    /// (real-FTL mode only).
    pub gc_cycles: u64,
    /// Average bus transactions (32-bit accesses to control registers and
    /// tables in SRAM) issued per task, used to load the AHB.
    pub bus_accesses_per_task: u32,
}

impl FirmwareProfile {
    /// Cycle budgets for the WAF-abstracted firmware: the FTL is replaced by
    /// the write-amplification model, so lookups are cheap and no GC runs on
    /// the core.
    pub fn waf_abstracted() -> Self {
        FirmwareProfile {
            command_decode_cycles: 400,
            ftl_lookup_cycles: 250,
            dma_setup_cycles: 300,
            completion_cycles: 350,
            gc_cycles: 0,
            bus_accesses_per_task: 8,
        }
    }

    /// Cycle budgets for a real page-mapped FTL executing on the core:
    /// mapping-table walks and GC bookkeeping make every task heavier.
    pub fn real_ftl() -> Self {
        FirmwareProfile {
            command_decode_cycles: 600,
            ftl_lookup_cycles: 1_200,
            dma_setup_cycles: 400,
            completion_cycles: 500,
            gc_cycles: 2_500,
            bus_accesses_per_task: 24,
        }
    }

    /// Cycle budget of one task.
    pub fn cycles_for(&self, task: FirmwareTask) -> u64 {
        match task {
            FirmwareTask::CommandDecode => self.command_decode_cycles,
            FirmwareTask::FtlLookup => self.ftl_lookup_cycles,
            FirmwareTask::DmaSetup => self.dma_setup_cycles,
            FirmwareTask::Completion => self.completion_cycles,
            FirmwareTask::GarbageCollection => self.gc_cycles,
        }
    }

    /// Total foreground cycles charged to one command (excludes GC).
    pub fn per_command_cycles(&self) -> u64 {
        FirmwareTask::foreground()
            .into_iter()
            .map(|t| self.cycles_for(t))
            .sum()
    }
}

impl Default for FirmwareProfile {
    fn default() -> Self {
        Self::waf_abstracted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_command_cycles_sums_foreground_tasks() {
        let p = FirmwareProfile::waf_abstracted();
        assert_eq!(p.per_command_cycles(), 400 + 250 + 300 + 350);
    }

    #[test]
    fn real_ftl_costs_more_than_waf_abstraction() {
        let waf = FirmwareProfile::waf_abstracted();
        let real = FirmwareProfile::real_ftl();
        assert!(real.per_command_cycles() > waf.per_command_cycles());
        assert!(real.gc_cycles > 0);
        assert_eq!(waf.gc_cycles, 0);
    }

    #[test]
    fn cycles_for_covers_all_tasks() {
        let p = FirmwareProfile::real_ftl();
        for task in [
            FirmwareTask::CommandDecode,
            FirmwareTask::FtlLookup,
            FirmwareTask::DmaSetup,
            FirmwareTask::Completion,
            FirmwareTask::GarbageCollection,
        ] {
            assert!(p.cycles_for(task) > 0);
        }
    }

    #[test]
    fn foreground_order_is_pipeline_order() {
        let f = FirmwareTask::foreground();
        assert_eq!(f[0], FirmwareTask::CommandDecode);
        assert_eq!(f[3], FirmwareTask::Completion);
    }
}
