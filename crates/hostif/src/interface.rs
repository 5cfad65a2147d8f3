//! The common host-interface abstraction.

use ssdx_sim::SimTime;

/// Timing behaviour every host interface model must expose.
///
/// The SSD model is interface-agnostic: it only needs the link occupancy of
/// a transfer, the per-command protocol overhead, and the command-window
/// depth that bounds how many commands may be outstanding inside the device.
///
/// The trait requires `Send + Sync` so a boxed interface — and therefore the
/// whole platform holding it — can be constructed and driven on a worker
/// thread of a parallel sweep executor. Interface models are timing
/// calculators over plain data, so the bound costs implementors nothing.
pub trait HostInterface: Send + Sync {
    /// Ideal payload bandwidth of the link, bytes per second, after encoding
    /// overhead but before protocol overhead ("SATA ideal" / "PCIE ideal" in
    /// the paper's figures).
    fn ideal_bandwidth(&self) -> u64;

    /// Maximum number of commands the protocol allows to be outstanding
    /// (NCQ window for SATA, submission-queue depth for NVMe).
    fn queue_depth(&self) -> u32;

    /// Fixed protocol overhead paid by each command (FIS exchanges,
    /// doorbells, completion handshakes), independent of payload size.
    fn command_overhead(&self) -> SimTime;

    /// Link occupancy of a data payload of `bytes` bytes (excluding the
    /// per-command overhead).
    fn data_transfer_time(&self, bytes: u32) -> SimTime;

    /// Total link occupancy of one command with a `bytes` payload.
    fn transfer_time(&self, bytes: u32) -> SimTime {
        self.command_overhead() + self.data_transfer_time(bytes)
    }

    /// Effective bandwidth achievable with back-to-back commands of `bytes`
    /// payload (what the paper calls the interface's real, as opposed to
    /// ideal, contribution).
    fn effective_bandwidth(&self, bytes: u32) -> f64 {
        let t = self.transfer_time(bytes);
        if t.is_zero() {
            return 0.0;
        }
        bytes as f64 / t.as_secs_f64()
    }

    /// Human-readable name for reports.
    fn name(&self) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy;

    impl HostInterface for Dummy {
        fn ideal_bandwidth(&self) -> u64 {
            100_000_000
        }
        fn queue_depth(&self) -> u32 {
            4
        }
        fn command_overhead(&self) -> SimTime {
            SimTime::from_us(10)
        }
        fn data_transfer_time(&self, bytes: u32) -> SimTime {
            ssdx_sim::time::transfer_time(bytes as u64, self.ideal_bandwidth())
        }
        fn name(&self) -> String {
            "dummy".to_string()
        }
    }

    #[test]
    fn default_methods_compose_overhead_and_payload() {
        let d = Dummy;
        let t = d.transfer_time(1_000_000);
        assert_eq!(t, SimTime::from_us(10) + SimTime::from_ms(10));
        // Effective bandwidth is below ideal because of the fixed overhead.
        assert!(d.effective_bandwidth(1_000_000) < d.ideal_bandwidth() as f64);
        assert!(d.effective_bandwidth(1_000_000) > 0.9 * d.ideal_bandwidth() as f64);
    }

    #[test]
    fn small_transfers_are_overhead_dominated() {
        let d = Dummy;
        // 512 B takes ~5 µs on the link but pays 10 µs of fixed overhead.
        let eff = d.effective_bandwidth(512);
        assert!(eff < 0.5 * d.ideal_bandwidth() as f64);
    }
}
