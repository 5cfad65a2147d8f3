//! Property-based tests of the simulation kernel: time arithmetic,
//! resource bookkeeping and the RNG's O(1) skip.

use proptest::prelude::*;
use ssdx_sim::rng::SimRng;
use ssdx_sim::{Frequency, Resource, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cycles_to_time_round_trips_for_platform_clocks(
        mhz in prop::sample::select(vec![100u64, 125, 133, 166, 200, 250, 266, 400, 500, 800, 1000]),
        cycles in 0u64..10_000_000
    ) {
        // The kernel guarantees exact conversions for the clocks the platform
        // actually uses (whose periods are whole picoseconds or recur within
        // the u128 intermediate precision of the conversion).
        let clock = Frequency::from_mhz(mhz);
        let time = clock.cycles_to_time(cycles);
        let back = clock.time_to_cycles(time);
        prop_assert!(back == cycles || back + 1 == cycles,
            "round trip drifted: {back} vs {cycles} at {mhz} MHz");
    }

    #[test]
    fn transfer_time_never_understates_bandwidth(bytes in 1u64..1_000_000_000, bw in 1u64..10_000_000_000u64) {
        let t = ssdx_sim::time::transfer_time(bytes, bw);
        // Moving `bytes` in time `t` must not imply a rate above `bw`.
        let implied = bytes as f64 / t.as_secs_f64();
        prop_assert!(implied <= bw as f64 * 1.000_001);
    }

    #[test]
    fn simtime_ordering_is_total_and_consistent(a in any::<u64>(), b in any::<u64>()) {
        let ta = SimTime::from_ps(a);
        let tb = SimTime::from_ps(b);
        prop_assert_eq!(ta < tb, a < b);
        prop_assert_eq!(ta.max(tb).as_ps(), a.max(b));
        prop_assert_eq!(ta.min(tb).as_ps(), a.min(b));
    }

    #[test]
    fn resource_total_busy_equals_sum_of_durations(durations in prop::collection::vec(1u64..10_000, 1..100)) {
        let mut resource = Resource::new("busy");
        let mut expected = SimTime::ZERO;
        for d in &durations {
            resource.reserve(SimTime::ZERO, SimTime::from_ns(*d));
            expected += SimTime::from_ns(*d);
        }
        prop_assert_eq!(resource.busy_time(), expected);
        prop_assert_eq!(resource.free_at(), expected);
    }

    #[test]
    fn rng_skip_equals_that_many_draws(seed in any::<u64>(), draws in 0u64..5_000) {
        let mut drawn = SimRng::new(seed);
        for _ in 0..draws {
            drawn.next_u64();
        }
        let mut skipped = SimRng::new(seed);
        skipped.skip(draws);
        prop_assert_eq!(skipped.next_u64(), drawn.next_u64());
        prop_assert_eq!(skipped, drawn);
    }
}
