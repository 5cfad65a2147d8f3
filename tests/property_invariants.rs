//! Property-based tests over the core data structures and models.
//!
//! Each property states an invariant the paper's methodology relies on:
//! simulated time never runs backwards, resources never double-book, the WAF
//! abstraction never deflates traffic, the page-mapped FTL never aliases two
//! logical pages onto one physical page, ECC latency grows with correction
//! strength, and the assembled SSD never reports more throughput than its
//! own host interface could deliver.

use proptest::prelude::*;
use ssdexplorer::core::{PageAllocator, Ssd, SsdConfig};
use ssdexplorer::ecc::{BchCodec, EccScheme};
use ssdexplorer::ftl::{PageMappedFtl, WafModel, WorkloadMix};
use ssdexplorer::hostif::{AccessPattern, HostInterface, SataInterface, Workload};
use ssdexplorer::nand::{MlcTimingProfile, PageKind, WearModel};
use ssdexplorer::sim::{Resource, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn simtime_addition_is_commutative_and_monotone(a in 0u64..1_000_000_000, b in 0u64..1_000_000_000) {
        let ta = SimTime::from_ns(a);
        let tb = SimTime::from_ns(b);
        prop_assert_eq!(ta + tb, tb + ta);
        prop_assert!(ta + tb >= ta);
        prop_assert_eq!((ta + tb).saturating_sub(tb), ta);
    }

    #[test]
    fn resource_reservations_never_overlap(requests in prop::collection::vec((0u64..10_000, 1u64..500), 1..100)) {
        let mut resource = Resource::new("prop");
        let mut windows: Vec<(SimTime, SimTime)> = Vec::new();
        for (at, dur) in requests {
            let grant = resource.reserve(SimTime::from_ns(at), SimTime::from_ns(dur));
            prop_assert!(grant.start >= SimTime::from_ns(at));
            prop_assert_eq!(grant.end - grant.start, SimTime::from_ns(dur));
            for (start, end) in &windows {
                prop_assert!(grant.end <= *start || grant.start >= *end, "service windows must not overlap");
            }
            windows.push((grant.start, grant.end));
        }
    }

    #[test]
    fn waf_is_at_least_one_and_monotone_in_randomness(
        op in 0.01f64..0.6,
        r1 in 0.0f64..1.0,
        r2 in 0.0f64..1.0
    ) {
        let model = WafModel::new(op);
        let (low, high) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        let waf_low = model.waf(WorkloadMix::mixed(low));
        let waf_high = model.waf(WorkloadMix::mixed(high));
        prop_assert!(waf_low >= 1.0);
        prop_assert!(waf_high + 1e-12 >= waf_low);
    }

    #[test]
    fn ftl_mapping_stays_injective_under_random_traffic(
        ops in prop::collection::vec((0u64..1_000, any::<bool>()), 1..400)
    ) {
        let mut ftl = PageMappedFtl::new(32, 16, 0.25);
        let logical = ftl.logical_pages();
        for (lpn, is_trim) in ops {
            let lpn = lpn % logical;
            if is_trim {
                ftl.trim(lpn).expect("lpn is in range");
            } else {
                ftl.write(lpn).expect("lpn is in range");
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        for lpn in 0..logical {
            if let Some(location) = ftl.lookup(lpn) {
                prop_assert!(seen.insert(location), "physical page mapped twice");
            }
        }
        prop_assert!(ftl.stats().waf() >= 1.0);
    }

    #[test]
    fn bch_decode_latency_grows_with_correction_strength(t1 in 1u32..60, t2 in 1u32..60) {
        let (low, high) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let weak = BchCodec::with_t(low);
        let strong = BchCodec::with_t(high);
        prop_assert!(strong.decode_latency(0.0) >= weak.decode_latency(0.0));
        prop_assert!(strong.parity_bytes() >= weak.parity_bytes());
    }

    #[test]
    fn adaptive_ecc_never_corrects_less_than_wear_requires(pe1 in 0u64..6_000, pe2 in 0u64..6_000) {
        let scheme = EccScheme::adaptive_bch(40);
        let (fresh, worn) = if pe1 <= pe2 { (pe1, pe2) } else { (pe2, pe1) };
        prop_assert!(scheme.t_for(worn) >= scheme.t_for(fresh));
        prop_assert!(scheme.t_for(worn) <= 40);
        prop_assert!(scheme.decode_latency(worn) >= scheme.decode_latency(fresh));
    }

    #[test]
    fn rber_is_monotone_in_pe_cycles(pe1 in 0u64..10_000, pe2 in 0u64..10_000) {
        let wear = WearModel::paper_mlc();
        let (low, high) = if pe1 <= pe2 { (pe1, pe2) } else { (pe2, pe1) };
        prop_assert!(wear.rber(high) + 1e-15 >= wear.rber(low));
    }

    #[test]
    fn program_time_stays_within_datasheet_range(page in 0u32..128, wear in 0.0f64..1.0) {
        let timing = MlcTimingProfile::paper_mlc();
        let kind = timing.page_kind(page);
        let t = timing.t_prog(kind, wear);
        prop_assert!(t >= SimTime::from_us(900));
        // Worst case: slowest page with full wear slowdown.
        prop_assert!(t <= SimTime::from_us(3_000).scale(1.0 + timing.wear_slowdown));
        prop_assert!(matches!(kind, PageKind::Lsb | PageKind::Msb));
    }

    #[test]
    fn workload_commands_stay_inside_the_footprint(
        count in 1u64..500,
        footprint_blocks in 1u64..10_000,
        seed in any::<u64>()
    ) {
        let footprint = footprint_blocks * 4096;
        for pattern in [AccessPattern::RandomWrite, AccessPattern::SequentialWrite] {
            let workload = Workload::builder(pattern)
                .command_count(count)
                .footprint_bytes(footprint)
                .seed(seed)
                .build();
            for cmd in workload.commands() {
                prop_assert!(cmd.offset + cmd.bytes as u64 <= footprint);
                prop_assert_eq!(cmd.offset % 4096, 0);
            }
        }
    }

    #[test]
    fn allocator_targets_always_fit_the_topology(
        channels in 1u32..8,
        ways in 1u32..8,
        dies in 1u32..4,
        writes in 1usize..500
    ) {
        let config = SsdConfig::builder("prop-alloc")
            .topology(channels, ways, dies)
            .dram_buffers(channels)
            .build()
            .expect("topology is valid");
        let mut allocator = PageAllocator::new(&config);
        for _ in 0..writes {
            let target = allocator.next_write();
            prop_assert!(target.channel < channels);
            prop_assert!(target.way < ways);
            prop_assert!(target.die < dies);
            prop_assert!(target.addr.validate(&config.nand.geometry).is_ok());
        }
    }

    #[test]
    fn sata_transfer_time_is_inverse_to_payload_bandwidth(bytes in 512u32..262_144) {
        let sata = SataInterface::sata2();
        let t = sata.data_transfer_time(bytes);
        let implied_bw = bytes as f64 / t.as_secs_f64();
        prop_assert!(implied_bw <= sata.ideal_bandwidth() as f64 * 1.001);
        prop_assert!(implied_bw >= sata.ideal_bandwidth() as f64 * 0.95);
    }
}

proptest! {
    // The full-pipeline property is more expensive, so fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn ssd_throughput_never_exceeds_the_host_interface(
        channels in 1u32..6,
        ways in 1u32..4,
        dies in 1u32..3,
        commands in 64u64..256
    ) {
        let config = SsdConfig::builder("prop-ssd")
            .topology(channels, ways, dies)
            .dram_buffers(channels)
            .dram_buffer_capacity(64 * 1024)
            .build()
            .expect("topology is valid");
        let mut ssd = Ssd::new(config);
        let ideal = ssd.interface_ideal_mbps();
        for pattern in [AccessPattern::SequentialWrite, AccessPattern::SequentialRead] {
            let workload = Workload::builder(pattern).command_count(commands).build();
            let report = ssd.simulate(&workload);
            prop_assert!(report.throughput_mbps <= ideal * 1.01,
                "{pattern:?}: {} MB/s exceeds the interface ideal {} MB/s",
                report.throughput_mbps, ideal);
            prop_assert!(report.throughput_mbps > 0.0);
        }
    }
}
