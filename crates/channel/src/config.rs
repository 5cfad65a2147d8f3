//! Channel controller configuration.

use ssdx_nand::OnfiBus;

/// How the ways attached to one channel share the channel resources
/// (Agrawal et al., USENIX ATC 2008).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum GangMode {
    /// All ways share both the control and the data lines of the channel:
    /// cheapest wiring, but data transfers of different ways serialise.
    #[default]
    SharedBus,
    /// Ways share only the control lines; each way has its own data path, so
    /// data transfers to different ways can overlap (only the short command
    /// phase serialises).
    SharedControl,
}

/// Static configuration of one channel controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelConfig {
    /// Number of ways (chip-enable groups) on the channel.
    pub ways: u32,
    /// Number of dies per way.
    pub dies_per_way: u32,
    /// ONFI bus timing of the channel.
    pub onfi: OnfiBus,
    /// Way interconnection scheme.
    pub gang: GangMode,
    /// Size of the controller's SRAM cache buffer, bytes.
    pub sram_buffer_bytes: u32,
    /// Push-Pull DMA engine bandwidth between the AHB side and the SRAM
    /// buffer, bytes per second.
    pub ppdma_bandwidth: u64,
}

impl ChannelConfig {
    /// Creates a configuration with `ways` ways of `dies_per_way` dies and
    /// default ONFI/PP-DMA parameters.
    ///
    /// # Panics
    ///
    /// Panics if `ways` or `dies_per_way` is zero.
    pub fn new(ways: u32, dies_per_way: u32) -> Self {
        assert!(ways > 0, "a channel needs at least one way");
        assert!(dies_per_way > 0, "a way needs at least one die");
        ChannelConfig {
            ways,
            dies_per_way,
            onfi: OnfiBus::default(),
            gang: GangMode::SharedBus,
            sram_buffer_bytes: 64 * 1024,
            ppdma_bandwidth: 800_000_000,
        }
    }

    /// Sets the gang mode.
    pub fn with_gang(mut self, gang: GangMode) -> Self {
        self.gang = gang;
        self
    }

    /// Sets the ONFI bus timing.
    pub fn with_onfi(mut self, onfi: OnfiBus) -> Self {
        self.onfi = onfi;
        self
    }

    /// Total dies attached to the channel.
    pub fn dies(&self) -> u32 {
        self.ways * self.dies_per_way
    }
}

impl Default for ChannelConfig {
    fn default() -> Self {
        Self::new(4, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dies_is_product_of_ways_and_dies_per_way() {
        let c = ChannelConfig::new(8, 4);
        assert_eq!(c.dies(), 32);
    }

    #[test]
    fn builder_methods_apply() {
        let c = ChannelConfig::new(2, 2)
            .with_gang(GangMode::SharedControl)
            .with_onfi(OnfiBus::new(ssdx_nand::OnfiSpeed::Ddr400));
        assert_eq!(c.gang, GangMode::SharedControl);
        assert_eq!(c.onfi.speed, ssdx_nand::OnfiSpeed::Ddr400);
    }

    #[test]
    fn default_gang_is_shared_bus() {
        assert_eq!(GangMode::default(), GangMode::SharedBus);
        assert_eq!(ChannelConfig::default().gang, GangMode::SharedBus);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_rejected() {
        let _ = ChannelConfig::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one die")]
    fn zero_dies_rejected() {
        let _ = ChannelConfig::new(1, 0);
    }
}
