//! Property-based tests of the AMBA AHB model: cycle accounting and
//! bandwidth bounds.

use proptest::prelude::*;
use ssdx_interconnect::{AhbBus, AhbConfig, BurstKind};
use ssdx_sim::SimTime;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transfer_cycles_scale_linearly_with_burst_count(kilobytes in 1u32..64) {
        let bus = AhbBus::new(AhbConfig::paper_default());
        let bytes = kilobytes * 1024;
        let cycles = bus.transfer_cycles(0, bytes);
        // 16-beat bursts of 4-byte beats: 64 bytes per burst, 18 cycles each.
        let bursts = bytes.div_ceil(64) as u64;
        prop_assert_eq!(cycles, bursts * 18);
    }

    #[test]
    fn bus_throughput_never_exceeds_peak(transfers in prop::collection::vec(64u32..8_192, 1..60)) {
        let mut bus = AhbBus::new(AhbConfig::paper_default());
        let mut last_end = SimTime::ZERO;
        let mut bytes = 0u64;
        for (i, size) in transfers.iter().enumerate() {
            let t = bus.transfer(SimTime::ZERO, (i % 16) as u32, 0, *size);
            last_end = last_end.max(t.end);
            bytes += *size as u64;
        }
        let implied = bytes as f64 / last_end.as_secs_f64();
        prop_assert!(implied <= bus.peak_bandwidth() as f64);
    }

    #[test]
    fn burst_selection_never_exceeds_remaining_beats(beats in 1u32..1_000) {
        let kind = BurstKind::largest_fitting(beats);
        prop_assert!(kind.beats() <= beats.max(1));
    }

    #[test]
    fn wait_states_add_exactly_one_cycle_per_beat(bytes in 4u32..4_096, wait in 0u32..4) {
        let mut bus = AhbBus::new(AhbConfig::paper_default());
        let baseline = bus.transfer_cycles(2, bytes);
        bus.set_slave_wait_states(2, wait).unwrap();
        let slowed = bus.transfer_cycles(2, bytes);
        let beats = bytes.div_ceil(4).max(1) as u64;
        prop_assert_eq!(slowed - baseline, beats * wait as u64);
    }
}

#[test]
fn per_master_accounting_sums_to_total_traffic() {
    let mut bus = AhbBus::new(AhbConfig::paper_default());
    let sizes = [256u32, 512, 1024, 64, 4096];
    for (i, size) in sizes.iter().enumerate() {
        bus.transfer(SimTime::ZERO, (i % 4) as u32, 0, *size);
    }
    let total: u64 = (0..4).map(|m| bus.master_stats(m).unwrap().bytes).sum();
    assert_eq!(total, sizes.iter().map(|s| *s as u64).sum::<u64>());
}

#[test]
fn descriptor_sized_transfers_are_cheap_relative_to_data() {
    // The control path the SSD firmware exercises (a handful of 32-bit
    // register and descriptor accesses) must cost microseconds at most,
    // orders of magnitude below a NAND page program.
    let mut bus = AhbBus::new(AhbConfig::paper_default());
    let descriptor = bus.transfer(SimTime::ZERO, 0, 0, 128);
    assert!(descriptor.end - descriptor.start < SimTime::from_us(1));
    let page = bus.transfer(descriptor.end, 1, 1, 4096);
    assert!(page.end - page.start > (descriptor.end - descriptor.start) * 10);
}
