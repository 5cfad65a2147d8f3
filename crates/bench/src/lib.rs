//! Shared helpers for the SSDExplorer benchmark harness.
//!
//! Every table and figure of the paper's evaluation has a dedicated Criterion
//! bench target in `benches/`; the helpers here keep the workload sizing and
//! the steady-state adjustments consistent across them, and [`speed`] holds
//! the wall-clock meters behind the Fig. 6 KCPS table and the parallel
//! sweep speedup. The full-size experiment runs (larger workloads, all
//! configurations) live in the `experiments` binary:
//! `cargo run --release -p ssdx-bench --bin experiments`.

pub mod speed;

use ssdx_core::{Axis, CachePolicy, Explorer, SsdConfig};
use ssdx_hostif::{AccessPattern, Workload};

/// Number of 4 KB commands used by the bench-sized sweeps (the `experiments`
/// binary uses larger workloads for the recorded numbers).
pub const BENCH_COMMANDS: u64 = 8_192;

/// Shrinks the per-buffer write cache so that bench-sized workloads reach the
/// flash-limited steady state instead of being absorbed by the cache.
pub fn steady_state(mut cfg: SsdConfig) -> SsdConfig {
    cfg.dram_buffer_capacity = 128 * 1024;
    cfg
}

/// The canonical 4 KB sequential-write workload of the paper's sweeps.
pub fn sequential_write_workload(commands: u64) -> Workload {
    Workload::builder(AccessPattern::SequentialWrite)
        .command_count(commands)
        .build()
}

/// A 4 KB workload of the given pattern, sized for benching.
pub fn bench_workload(pattern: AccessPattern, commands: u64) -> Workload {
    Workload::builder(pattern)
        .command_count(commands)
        .footprint_bytes(4 << 30)
        .build()
}

/// Measures the canonical speedup series — 1/2/4/8 threads over
/// [`speedup_explorer`] with one shared sequential baseline — asserting
/// byte-identity for every row and printing one summary line per row.
/// Shared by `experiments -- speedup` and the `fig7_parallel_speedup`
/// bench so the two recorded trajectories cannot silently diverge.
pub fn print_speedup_series(commands: u64) {
    let explorer = speedup_explorer();
    let workload = sequential_write_workload(commands);
    let rows = speed::measure_sweep_speedups(&explorer, &workload, &[1, 2, 4, 8])
        .expect("speedup sweep points are valid");
    for speedup in &rows {
        assert!(
            speedup.identical,
            "determinism violation: parallel sweep diverged at {} threads",
            speedup.threads
        );
        println!("{}", speedup.summary_line());
    }
}

/// The canonical 8-point sweep of the parallel-speedup measurements
/// (Fig. 7 of the repo, `experiments -- speedup`): channels × cache policy
/// × seed over a steady-state base platform, so the points differ in cost
/// and the executor's load balancing is actually exercised.
pub fn speedup_explorer() -> Explorer {
    let base = steady_state(
        SsdConfig::builder("speedup-base")
            .topology(4, 2, 2)
            .dram_buffers(4)
            .build()
            .expect("speedup base configuration is valid"),
    );
    Explorer::new(base)
        .over(Axis::over("channels", [4u32, 8], |cfg, &c| {
            cfg.channels = c;
            cfg.dram_buffers = c;
        }))
        .over(
            Axis::new("cache")
                .point("cache", |cfg| cfg.cache_policy = CachePolicy::WriteCache)
                .point("no cache", |cfg| cfg.cache_policy = CachePolicy::NoCache),
        )
        .over(Axis::over("seed", [11u64, 23], |cfg, &s| cfg.seed = s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_shrinks_the_cache() {
        let cfg = steady_state(SsdConfig::default());
        assert_eq!(cfg.dram_buffer_capacity, 128 * 1024);
    }

    #[test]
    fn speedup_explorer_expands_to_eight_points() {
        let jobs = speedup_explorer().jobs().expect("points validate");
        assert_eq!(jobs.len(), 8);
    }

    #[test]
    fn workload_helpers_use_4kb_blocks() {
        let w = sequential_write_workload(16);
        assert_eq!(w.block_size, 4096);
        assert_eq!(w.command_count, 16);
        let r = bench_workload(AccessPattern::RandomRead, 8);
        assert_eq!(r.command_count, 8);
    }
}
