//! Firmware cycle budgets.

/// Cycle budget of each firmware task on the modelled core.
///
/// One host command runs the four foreground tasks in pipeline order:
/// decode, logical-to-physical lookup, DMA setup and completion. The
/// budgets are expressed in CPU cycles at the core clock (200 MHz in the
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
            bus_accesses_per_task: 8,
        }
    }
}

impl Default for FirmwareProfile {
    fn default() -> Self {
        Self::waf_abstracted()
    }
}
