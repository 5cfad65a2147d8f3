//! Integration tests for the parallel sweep executor: a parallel `Sweep`
//! must be byte-identical to the sequential one at every thread count, and
//! the speedup meter must report self-consistent numbers.

use proptest::prelude::*;
use ssdexplorer::core::{
    explorer, measure_sweep_speedup, Axis, CachePolicy, Explorer, ParallelExecutor, SsdConfig,
    Sweep,
};
use ssdexplorer::hostif::{source_fn, AccessPattern, HostCommand, HostOp, Workload};
use ssdexplorer::sim::SimTime;

fn base_config() -> SsdConfig {
    SsdConfig::builder("parallel-base")
        .topology(2, 2, 1)
        .dram_buffers(2)
        .dram_buffer_capacity(128 * 1024)
        .build()
        .expect("valid test configuration")
}

fn workload(count: u64) -> Workload {
    Workload::builder(AccessPattern::SequentialWrite)
        .command_count(count)
        .build()
}

fn fingerprint(sweep: &Sweep) -> String {
    format!("{sweep:?}")
}

/// An 8-point sweep (2 channel counts × 2 cache policies × 2 seeds) that
/// exercises config mutation, whole-platform behaviour differences and
/// per-point RNG seeding at once.
fn eight_point_explorer() -> Explorer {
    Explorer::new(base_config())
        .over(Axis::over("channels", [2u32, 4], |cfg, &c| {
            cfg.channels = c;
            cfg.dram_buffers = c;
        }))
        .over(
            Axis::new("cache")
                .point("cache", |cfg| cfg.cache_policy = CachePolicy::WriteCache)
                .point("no cache", |cfg| cfg.cache_policy = CachePolicy::NoCache),
        )
        .over(Axis::over("seed", [7u64, 13], |cfg, &s| cfg.seed = s))
}

#[test]
fn parallel_sweep_is_byte_identical_at_every_thread_count() {
    let explorer = eight_point_explorer();
    let w = workload(128);
    let sequential = explorer.run(&w).expect("sweep points are valid");
    assert_eq!(sequential.len(), 8);
    for threads in [1, 2, 4, 8] {
        let parallel = ParallelExecutor::with_threads(threads)
            .run(&explorer, &w)
            .expect("sweep points are valid");
        assert_eq!(
            fingerprint(&sequential),
            fingerprint(&parallel),
            "parallel sweep diverged from sequential at {threads} threads"
        );
    }
}

#[test]
fn run_parallel_matches_run_on_the_machine_default() {
    let explorer = eight_point_explorer();
    let w = workload(96);
    let sequential = explorer.run(&w).unwrap();
    let parallel = explorer.run_parallel(&w).unwrap();
    assert_eq!(fingerprint(&sequential), fingerprint(&parallel));
}

#[test]
fn parallel_execution_works_with_setup_hooks_and_custom_sources() {
    // Endurance axes carry platform-preparation hooks (artificial aging)
    // that must also fan out deterministically; the source is a closure
    // generator shared by reference across the workers.
    let explorer =
        Explorer::new(base_config()).over(explorer::endurance_axis(&[0.0, 0.25, 0.5, 0.75, 1.0]));
    let source = source_fn("gen", 64, |i| HostCommand {
        id: i,
        op: HostOp::Read,
        offset: i * 4096,
        bytes: 4096,
        issue_at: SimTime::ZERO,
    });
    let sequential = explorer.run(&source).unwrap();
    let parallel = ParallelExecutor::with_threads(4)
        .run(&explorer, &source)
        .unwrap();
    assert_eq!(fingerprint(&sequential), fingerprint(&parallel));
    // Aging must actually bite: the end-of-life read point is slower than
    // the fresh one in both runs.
    let fresh = &sequential.points[0].report;
    let eol = &sequential.points[4].report;
    assert!(eol.throughput_mbps < fresh.throughput_mbps);
}

#[test]
fn speedup_meter_reports_identity_and_positive_times() {
    let explorer = eight_point_explorer();
    let w = workload(64);
    let speedup = measure_sweep_speedup(&explorer, &w, 4).unwrap();
    assert!(
        speedup.identical,
        "parallel sweep must match sequential byte for byte"
    );
    assert_eq!(speedup.points, 8);
    assert_eq!(speedup.threads, 4);
    assert!(speedup.sequential_seconds > 0.0);
    assert!(speedup.parallel_seconds > 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The core determinism property, randomised: any channel/seed product,
    /// any workload size, any thread count in 1..=8 — parallel equals
    /// sequential byte for byte.
    #[test]
    fn parallel_equals_sequential_for_arbitrary_sweeps(
        channel_counts in prop::collection::vec(1u32..5, 1..=3),
        seeds in prop::collection::vec(0u64..1_000, 1..=3),
        commands in 16u64..96,
        threads in 1usize..=8,
    ) {
        let explorer = Explorer::new(base_config())
            .over(Axis::over("channels", channel_counts, |cfg, &c| {
                cfg.channels = c;
                cfg.dram_buffers = c;
            }))
            .over(Axis::over("seed", seeds, |cfg, &s| cfg.seed = s));
        let w = workload(commands);
        let sequential = explorer.run(&w).expect("valid sweep");
        let parallel = ParallelExecutor::with_threads(threads)
            .run(&explorer, &w)
            .expect("valid sweep");
        prop_assert_eq!(fingerprint(&sequential), fingerprint(&parallel));
    }
}
