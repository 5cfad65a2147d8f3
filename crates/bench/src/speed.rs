//! Wall-clock meters for the paper-figure harness: simulation speed in
//! KCPS (the paper's Fig. 6) and the sequential-vs-parallel sweep speedup.
//!
//! The paper quantifies simulator performance in **Kilo-Cycles Per Second
//! (KCPS)**: how many thousands of simulated controller-clock cycles the
//! simulator advances per wall-clock second. [`measure_kcps_sweep`] follows
//! the same definition — simulated cycles are derived from the simulated
//! time span at the 200 MHz controller clock — so the qualitative trend
//! (simulation speed scales inversely with the amount of instantiated
//! resources) can be compared directly with the paper.
//!
//! [`measure_sweep_speedups`] goes one level up: it times the same
//! [`Explorer`] sweep sequentially and through a [`ParallelExecutor`],
//! verifies the results are byte-identical, and reports the wall-clock
//! speedup.
//!
//! These meters live in the harness because they read the host clock; the
//! platform crates never do. The repository's speed baseline and CI gate
//! is perfbench's `fig6-seqwrite` workload (`BENCH_fig6.json`).

use ssdx_core::{Explorer, ParallelExecutor, Ssd, SsdConfig, SweepError};
use ssdx_hostif::{CommandSource, Workload};
use ssdx_sim::Frequency;
use std::time::Instant;

/// Simulation speed of one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedPoint {
    /// Configuration name.
    pub config_name: String,
    /// Architecture summary.
    pub architecture: String,
    /// Wall-clock seconds the run took.
    pub wall_seconds: f64,
    /// Kilo-cycles of simulated time per wall-clock second.
    pub kcps: f64,
    /// Host-visible throughput of the measured run, MB/s.
    pub throughput_mbps: f64,
}

/// Runs `workload` on every configuration in `configs`, timing each run
/// and converting its simulated time span to KCPS.
pub fn measure_kcps_sweep(configs: &[SsdConfig], workload: &Workload) -> Vec<SpeedPoint> {
    let clock = Frequency::from_mhz(200);
    configs
        .iter()
        .map(|config| {
            let mut ssd = Ssd::new(config.clone());
            let start = Instant::now();
            let report = ssd.simulate(workload);
            let wall_seconds = start.elapsed().as_secs_f64().max(1e-9);
            let simulated_cycles = clock.time_to_cycles(report.elapsed);
            SpeedPoint {
                config_name: config.name.clone(),
                architecture: config.architecture_label(),
                wall_seconds,
                kcps: simulated_cycles as f64 / 1_000.0 / wall_seconds,
                throughput_mbps: report.throughput_mbps,
            }
        })
        .collect()
}

/// Result of one sequential-vs-parallel sweep timing run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpeedup {
    /// Number of sweep points evaluated by each run.
    pub points: usize,
    /// Worker threads the parallel run actually used (the configured count
    /// clamped to the point count — more workers than points would idle).
    pub threads: usize,
    /// Wall-clock seconds of the sequential [`Explorer::run`].
    pub sequential_seconds: f64,
    /// Wall-clock seconds of the [`ParallelExecutor`] run.
    pub parallel_seconds: f64,
    /// `true` iff the two sweeps were byte-identical (always expected; a
    /// `false` here is a determinism bug worth a report).
    pub identical: bool,
}

impl SweepSpeedup {
    /// Wall-clock speedup of the parallel run over the sequential one
    /// (values above 1.0 mean the parallel run was faster).
    pub fn speedup(&self) -> f64 {
        self.sequential_seconds / self.parallel_seconds.max(1e-12)
    }

    /// One aligned summary row, used by the experiment drivers.
    pub fn summary_line(&self) -> String {
        format!(
            "{:>3} points, {:>2} threads: sequential {:>8.3} s, parallel {:>8.3} s, speedup {:>5.2}x{}",
            self.points,
            self.threads,
            self.sequential_seconds,
            self.parallel_seconds,
            self.speedup(),
            if self.identical { "" } else { "  [MISMATCH]" }
        )
    }
}

/// Times the sequential [`Explorer::run`] **once**, then one
/// [`ParallelExecutor`] run per entry of `thread_counts`, returning one
/// [`SweepSpeedup`] row per count — all sharing the single sequential
/// baseline. Every parallel sweep is checked byte-identical against it.
///
/// Wall-clock speedup depends on the host machine (points ÷ threads cores
/// must actually exist for the ideal factor); the byte-identity in
/// [`SweepSpeedup::identical`] must hold everywhere.
///
/// # Errors
///
/// Propagates any [`SweepError`] from any run.
pub fn measure_sweep_speedups<S>(
    explorer: &Explorer,
    source: &S,
    thread_counts: &[usize],
) -> Result<Vec<SweepSpeedup>, SweepError>
where
    S: CommandSource + ?Sized,
{
    // One untimed warm-up run so the timed sequential baseline is not
    // penalised by cold allocator/page-cache state relative to the parallel
    // rows that follow it (which would overstate the parallel win).
    let _ = explorer.run(source)?;

    let start = Instant::now();
    let sequential = explorer.run(source)?;
    let sequential_seconds = start.elapsed().as_secs_f64().max(1e-9);
    let baseline = format!("{sequential:?}");

    thread_counts
        .iter()
        .map(|&threads| {
            let executor = ParallelExecutor::with_threads(threads);
            let start = Instant::now();
            let parallel = executor.run(explorer, source)?;
            let parallel_seconds = start.elapsed().as_secs_f64().max(1e-9);
            Ok(SweepSpeedup {
                points: sequential.len(),
                threads: executor.workers_for(sequential.len()),
                sequential_seconds,
                parallel_seconds,
                identical: baseline == format!("{parallel:?}"),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential_write_workload;
    use ssdx_core::configs::table3_configs;
    use ssdx_core::Axis;

    #[test]
    fn kcps_is_positive_and_consistent() {
        let cfg = SsdConfig::builder("speed-test")
            .topology(2, 2, 1)
            .dram_buffers(2)
            .build()
            .unwrap();
        let workload = sequential_write_workload(128);
        let points = measure_kcps_sweep(std::slice::from_ref(&cfg), &workload);
        let point = &points[0];
        assert!(point.kcps > 0.0);
        assert!(point.wall_seconds > 0.0);
        // The simulation is deterministic, so a second run covers the same
        // simulated cycles the timed one did.
        let simulated_cycles =
            Frequency::from_mhz(200).time_to_cycles(Ssd::new(cfg).simulate(&workload).elapsed);
        assert!(simulated_cycles > 0);
        let recomputed = simulated_cycles as f64 / 1_000.0 / point.wall_seconds;
        assert!((recomputed - point.kcps).abs() < 1e-6);
    }

    #[test]
    fn sweep_covers_all_configs() {
        let configs = vec![
            SsdConfig::builder("a")
                .topology(1, 1, 1)
                .dram_buffers(1)
                .build()
                .unwrap(),
            SsdConfig::builder("b")
                .topology(2, 2, 2)
                .dram_buffers(2)
                .build()
                .unwrap(),
        ];
        let points = measure_kcps_sweep(&configs, &sequential_write_workload(64));
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].config_name, "a");
        assert_eq!(points[1].architecture, configs[1].architecture_label());
    }

    #[test]
    fn fig6_shape_simulation_speed_scales_inversely_with_resources() {
        let configs: Vec<SsdConfig> = table3_configs()
            .into_iter()
            .filter(|c| matches!(c.name.as_str(), "C1" | "C4" | "C8"))
            .map(|mut cfg| {
                cfg.dram_buffer_capacity = 64 * 1024;
                cfg
            })
            .collect();
        let points = measure_kcps_sweep(&configs, &sequential_write_workload(1_024));
        assert_eq!(points.len(), 3);
        // More instantiated resources -> fewer simulated kilocycles per second.
        assert!(
            points[0].kcps > points[1].kcps && points[1].kcps > points[2].kcps,
            "kcps must decrease: {:?}",
            points.iter().map(|p| p.kcps).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sweep_speedup_verifies_byte_identity() {
        let base = SsdConfig::builder("speedup")
            .topology(2, 2, 1)
            .dram_buffers(2)
            .build()
            .unwrap();
        let explorer =
            Explorer::new(base).over(Axis::over("seed", [1u64, 2, 3, 4], |cfg, &s| cfg.seed = s));
        let rows =
            measure_sweep_speedups(&explorer, &sequential_write_workload(64), &[1, 2, 8]).unwrap();
        assert_eq!(rows.len(), 3);
        // More workers than points would idle, so 8 threads run as 4.
        let threads: Vec<usize> = rows.iter().map(|r| r.threads).collect();
        assert_eq!(threads, [1, 2, 4]);
        for row in &rows {
            assert!(row.identical, "parallel sweep must be byte-identical");
            assert_eq!(row.points, 4);
            // One sequential baseline, timed once, shared by every row.
            assert_eq!(row.sequential_seconds, rows[0].sequential_seconds);
            assert!(row.sequential_seconds > 0.0);
            assert!(row.parallel_seconds > 0.0);
            assert!(row.speedup() > 0.0);
            assert!(row.summary_line().contains("speedup"));
            assert!(!row.summary_line().contains("MISMATCH"));
        }
    }
}
