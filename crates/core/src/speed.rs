//! Simulation-speed metering (the paper's Fig. 6) and sweep-speedup
//! measurement for the parallel executor.
//!
//! The paper quantifies simulator performance in **Kilo-Cycles Per Second
//! (KCPS)**: how many thousands of simulated controller-clock cycles the
//! simulator advances per wall-clock second. The measurement here follows
//! the same definition — simulated cycles are derived from the simulated
//! time span at the 200 MHz controller clock — so the qualitative trend
//! (simulation speed scales inversely with the amount of instantiated
//! resources) can be compared directly with the paper.
//!
//! [`measure_sweep_speedup`] extends the methodology one level up: it times
//! the same [`Explorer`] sweep sequentially and through a
//! [`ParallelExecutor`], verifies the two results are byte-identical, and
//! reports the wall-clock speedup — the number the `experiments -- speedup`
//! subcommand and the `fig7_parallel_speedup` bench record.

use crate::config::SsdConfig;
use crate::configs::table3_configs;
use crate::explorer::{Axis, Explorer, SweepError};
use crate::parallel::ParallelExecutor;
use crate::ssd::Ssd;
use ssdx_hostif::{AccessPattern, CommandSource, Workload};
use ssdx_sim::Frequency;
use std::fmt::Write as _;
use std::time::Instant;

/// Result of one simulation-speed measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedPoint {
    /// Configuration name.
    pub config_name: String,
    /// Architecture summary.
    pub architecture: String,
    /// Total dies instantiated.
    pub total_dies: u32,
    /// Simulated controller-clock cycles covered by the run.
    pub simulated_cycles: u64,
    /// Wall-clock seconds the run took.
    pub wall_seconds: f64,
    /// Kilo-cycles of simulated time per wall-clock second.
    pub kcps: f64,
    /// Host-visible throughput of the measured run, MB/s.
    pub throughput_mbps: f64,
    /// Host commands executed by the run.
    pub commands: u64,
    /// Host commands simulated per wall-clock second — the platform's
    /// primary simulation-speed figure of merit.
    pub commands_per_sec: f64,
}

/// Runs `workload` on `config` and measures the achieved simulation speed.
pub fn measure_kcps(config: &SsdConfig, workload: &Workload) -> SpeedPoint {
    let mut ssd = Ssd::new(config.clone());
    let start = Instant::now();
    let report = ssd.simulate(workload);
    let wall_seconds = start.elapsed().as_secs_f64().max(1e-9);
    let clock = Frequency::from_mhz(200);
    let simulated_cycles = clock.time_to_cycles(report.elapsed);
    SpeedPoint {
        config_name: config.name.clone(),
        architecture: config.architecture_label(),
        total_dies: config.total_dies(),
        simulated_cycles,
        wall_seconds,
        kcps: simulated_cycles as f64 / 1_000.0 / wall_seconds,
        throughput_mbps: report.throughput_mbps,
        commands: report.commands,
        commands_per_sec: report.commands as f64 / wall_seconds,
    }
}

/// Measures every configuration in `configs` with the same workload.
pub fn measure_kcps_sweep(configs: &[SsdConfig], workload: &Workload) -> Vec<SpeedPoint> {
    configs.iter().map(|c| measure_kcps(c, workload)).collect()
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

/// Times `explorer` once sequentially and once on a [`ParallelExecutor`]
/// with `threads` workers, checking the two [`Sweep`](crate::Sweep)s are
/// byte-identical.
///
/// Wall-clock speedup depends on the host machine (points ÷ threads cores
/// must actually exist for the ideal factor); the byte-identity in
/// [`SweepSpeedup::identical`] must hold everywhere. To compare several
/// thread counts against one shared sequential baseline (saving the
/// redundant sequential re-runs), use [`measure_sweep_speedups`].
///
/// # Errors
///
/// Propagates any [`SweepError`] from either run.
pub fn measure_sweep_speedup<S>(
    explorer: &Explorer,
    source: &S,
    threads: usize,
) -> Result<SweepSpeedup, SweepError>
where
    S: CommandSource + ?Sized,
{
    let mut rows = measure_sweep_speedups(explorer, source, &[threads])?;
    Ok(rows.pop().expect("one thread count yields one row"))
}

/// Times the sequential [`Explorer::run`] **once**, then one
/// [`ParallelExecutor`] run per entry of `thread_counts`, returning one
/// [`SweepSpeedup`] row per count — all sharing the single sequential
/// baseline. Every parallel sweep is checked byte-identical against it.
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

/// Timing of the parallel leg of a [`SpeedBaseline`]: the same fig6-style
/// sweep fanned out over a [`ParallelExecutor`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelSpeed {
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock seconds for the whole sweep.
    pub wall_seconds: f64,
    /// Aggregate commands simulated per wall-clock second across all points.
    pub commands_per_sec: f64,
    /// `true` iff the parallel sweep was byte-identical to the sequential
    /// one (always expected; `false` is a determinism bug).
    pub identical: bool,
}

/// A machine-readable simulation-speed baseline: the paper's Fig. 6
/// methodology (one run per Table III configuration) measured in host
/// commands per wall-clock second, sequentially and through the parallel
/// executor. Serialised to `BENCH_speed.json` by `experiments -- speed
/// --json` and gated by the CI perf-smoke job.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedBaseline {
    /// Format version of the JSON emission.
    pub schema: u32,
    /// Workload description.
    pub workload: String,
    /// Host commands per configuration run.
    pub commands_per_config: u64,
    /// Timed repeats per configuration (the fastest is kept).
    pub repeats: u32,
    /// Hardware threads the machine exposes.
    pub hardware_threads: usize,
    /// Per-configuration measurements (fastest repeat each).
    pub points: Vec<SpeedPoint>,
    /// Geometric mean of the per-configuration commands/sec — the gated
    /// aggregate (geomean, so no single huge configuration dominates).
    pub geomean_commands_per_sec: f64,
    /// Total sequential wall-clock seconds across all points.
    pub total_wall_seconds: f64,
    /// The parallel-executor leg.
    pub parallel: ParallelSpeed,
}

impl SpeedBaseline {
    /// Serialises the baseline as pretty-printed JSON.
    ///
    /// Hand-rolled on purpose: the workspace depends on no serialization
    /// framework, so the emission drives a `fmt::Write` buffer directly. The
    /// format is pinned by a unit test; [`parse_geomean`](Self::parse_geomean)
    /// reads the one field the CI gate needs back out.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024 + self.points.len() * 256);
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": {},", self.schema);
        let _ = writeln!(out, "  \"workload\": \"{}\",", self.workload);
        let _ = writeln!(
            out,
            "  \"commands_per_config\": {},",
            self.commands_per_config
        );
        let _ = writeln!(out, "  \"repeats\": {},", self.repeats);
        let _ = writeln!(out, "  \"hardware_threads\": {},", self.hardware_threads);
        let _ = writeln!(out, "  \"points\": [");
        for (i, p) in self.points.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"config\": \"{}\",", p.config_name);
            let _ = writeln!(out, "      \"architecture\": \"{}\",", p.architecture);
            let _ = writeln!(out, "      \"total_dies\": {},", p.total_dies);
            let _ = writeln!(out, "      \"commands\": {},", p.commands);
            let _ = writeln!(
                out,
                "      \"commands_per_sec\": {:.1},",
                p.commands_per_sec
            );
            let _ = writeln!(out, "      \"kcps\": {:.1},", p.kcps);
            let _ = writeln!(out, "      \"wall_seconds\": {:.6},", p.wall_seconds);
            let _ = writeln!(out, "      \"simulated_cycles\": {},", p.simulated_cycles);
            let _ = writeln!(out, "      \"throughput_mbps\": {:.2}", p.throughput_mbps);
            let _ = writeln!(
                out,
                "    }}{}",
                if i + 1 < self.points.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(
            out,
            "  \"geomean_commands_per_sec\": {:.1},",
            self.geomean_commands_per_sec
        );
        let _ = writeln!(
            out,
            "  \"total_wall_seconds\": {:.6},",
            self.total_wall_seconds
        );
        let _ = writeln!(out, "  \"parallel\": {{");
        let _ = writeln!(out, "    \"threads\": {},", self.parallel.threads);
        let _ = writeln!(
            out,
            "    \"wall_seconds\": {:.6},",
            self.parallel.wall_seconds
        );
        let _ = writeln!(
            out,
            "    \"commands_per_sec\": {:.1},",
            self.parallel.commands_per_sec
        );
        let _ = writeln!(out, "    \"identical\": {}", self.parallel.identical);
        let _ = writeln!(out, "  }}");
        let _ = writeln!(out, "}}");
        out
    }

    /// Extracts `geomean_commands_per_sec` from a JSON emission produced by
    /// [`to_json`](Self::to_json) — the single field the CI regression gate
    /// compares. Returns `None` when the field is missing or malformed.
    pub fn parse_geomean(json: &str) -> Option<f64> {
        let key = "\"geomean_commands_per_sec\":";
        let at = json.find(key)? + key.len();
        let rest = json[at..].trim_start();
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    }

    /// One aligned human-readable table of the baseline, built on one shared
    /// `fmt::Write` buffer.
    pub fn to_table(&self) -> String {
        let mut out = String::with_capacity(256 + self.points.len() * 96);
        let _ = writeln!(
            out,
            "{:<6} {:<34} {:>12} {:>10} {:>12}",
            "config", "architecture", "cmds/s", "KCPS", "wall (s)"
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "{:<6} {:<34} {:>12.0} {:>10.1} {:>12.4}",
                p.config_name, p.architecture, p.commands_per_sec, p.kcps, p.wall_seconds
            );
        }
        let _ = writeln!(
            out,
            "geomean {:.0} cmds/s sequential; parallel sweep {:.0} cmds/s on {} thread(s){}",
            self.geomean_commands_per_sec,
            self.parallel.commands_per_sec,
            self.parallel.threads,
            if self.parallel.identical {
                ""
            } else {
                "  [MISMATCH]"
            }
        );
        out
    }
}

/// Measures the fig6-style simulation-speed baseline: the Table III
/// configurations under the canonical 4 KB sequential-write workload, each
/// timed `repeats` times (fastest kept, first run doubling as warm-up), plus
/// one parallel-executor sweep over the same configurations.
///
/// Every repeat's `PerfReport` is asserted byte-identical to the first — a
/// free determinism check riding along with every speed measurement — and
/// the parallel sweep is verified byte-identical to a sequential one.
///
/// # Panics
///
/// Panics if a repeat or the parallel sweep diverges (a determinism bug),
/// or if `repeats` is zero.
pub fn measure_fig6_baseline(commands: u64, repeats: u32) -> SpeedBaseline {
    assert!(repeats > 0, "at least one timed repeat is required");
    let workload = Workload::builder(AccessPattern::SequentialWrite)
        .command_count(commands)
        .build();
    // The same steady-state shrink the experiment drivers apply: keep the
    // aggregate write cache well below the workload footprint so the run
    // measures the pipeline, not the cache-fill transient.
    let configs: Vec<SsdConfig> = table3_configs()
        .into_iter()
        .map(|mut cfg| {
            cfg.dram_buffer_capacity = 128 * 1024;
            cfg
        })
        .collect();

    let mut points = Vec::with_capacity(configs.len());
    let mut total_wall = 0.0;
    for cfg in &configs {
        // Untimed warm-up (allocator, lazily populated wear maps).
        let warm = Ssd::new(cfg.clone()).simulate(&workload);
        let reference = format!("{warm:?}");
        let mut best: Option<SpeedPoint> = None;
        for _ in 0..repeats {
            let mut ssd = Ssd::new(cfg.clone());
            let start = Instant::now();
            let report = ssd.simulate(&workload);
            let wall_seconds = start.elapsed().as_secs_f64().max(1e-9);
            assert_eq!(
                format!("{report:?}"),
                reference,
                "determinism violation: repeat diverged on {}",
                cfg.name
            );
            let clock = Frequency::from_mhz(200);
            let simulated_cycles = clock.time_to_cycles(report.elapsed);
            let point = SpeedPoint {
                config_name: cfg.name.clone(),
                architecture: cfg.architecture_label(),
                total_dies: cfg.total_dies(),
                simulated_cycles,
                wall_seconds,
                kcps: simulated_cycles as f64 / 1_000.0 / wall_seconds,
                throughput_mbps: report.throughput_mbps,
                commands: report.commands,
                commands_per_sec: report.commands as f64 / wall_seconds,
            };
            if best
                .as_ref()
                .map_or(true, |b| point.wall_seconds < b.wall_seconds)
            {
                best = Some(point);
            }
        }
        let best = best.expect("repeats >= 1");
        total_wall += best.wall_seconds;
        points.push(best);
    }

    let geomean = (points
        .iter()
        .map(|p| p.commands_per_sec.max(1e-12).ln())
        .sum::<f64>()
        / points.len() as f64)
        .exp();

    // Parallel leg: the same configurations as one Explorer sweep through
    // the ParallelExecutor, verified byte-identical to a sequential run.
    let explorer = Explorer::new(configs[0].clone()).over(Axis::configs("config", configs.clone()));
    let sequential = explorer
        .run(&workload)
        .expect("table3 configurations validate");
    let executor = ParallelExecutor::new();
    let start = Instant::now();
    let parallel_sweep = executor
        .run(&explorer, &workload)
        .expect("table3 configurations validate");
    let parallel_wall = start.elapsed().as_secs_f64().max(1e-9);
    let identical = format!("{sequential:?}") == format!("{parallel_sweep:?}");
    assert!(identical, "determinism violation: parallel sweep diverged");

    let total_commands = commands * configs.len() as u64;
    SpeedBaseline {
        schema: 1,
        workload: "sequential-write-4k".to_string(),
        commands_per_config: commands,
        repeats,
        hardware_threads: executor.threads(),
        points,
        geomean_commands_per_sec: geomean,
        total_wall_seconds: total_wall,
        parallel: ParallelSpeed {
            threads: executor.threads(),
            wall_seconds: parallel_wall,
            commands_per_sec: total_commands as f64 / parallel_wall,
            identical,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kcps_is_positive_and_consistent() {
        let cfg = SsdConfig::builder("speed-test")
            .topology(2, 2, 1)
            .dram_buffers(2)
            .build()
            .unwrap();
        let workload = Workload::builder(AccessPattern::SequentialWrite)
            .command_count(128)
            .build();
        let point = measure_kcps(&cfg, &workload);
        assert!(point.kcps > 0.0);
        assert!(point.simulated_cycles > 0);
        assert!(point.wall_seconds > 0.0);
        let recomputed = point.simulated_cycles as f64 / 1_000.0 / point.wall_seconds;
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
        let workload = Workload::builder(AccessPattern::SequentialWrite)
            .command_count(64)
            .build();
        let points = measure_kcps_sweep(&configs, &workload);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].config_name, "a");
        assert_eq!(points[1].total_dies, 8);
    }

    #[test]
    fn sweep_speedup_verifies_byte_identity() {
        use crate::explorer::Explorer;
        let base = SsdConfig::builder("speedup")
            .topology(2, 2, 1)
            .dram_buffers(2)
            .build()
            .unwrap();
        let explorer = Explorer::new(base).over(crate::explorer::Axis::over(
            "seed",
            [1u64, 2, 3, 4],
            |cfg, &s| cfg.seed = s,
        ));
        let workload = Workload::builder(AccessPattern::SequentialWrite)
            .command_count(64)
            .build();
        let speedup = measure_sweep_speedup(&explorer, &workload, 2).unwrap();
        assert!(speedup.identical, "parallel sweep must be byte-identical");
        assert_eq!(speedup.points, 4);
        assert_eq!(speedup.threads, 2);
        assert!(speedup.sequential_seconds > 0.0);
        assert!(speedup.parallel_seconds > 0.0);
        assert!(speedup.speedup() > 0.0);
        assert!(speedup.summary_line().contains("speedup"));
        assert!(!speedup.summary_line().contains("MISMATCH"));

        // The multi-count meter times the sequential baseline exactly once
        // and shares it across every row.
        let rows = measure_sweep_speedups(&explorer, &workload, &[1, 2]).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].sequential_seconds, rows[1].sequential_seconds);
        assert!(rows.iter().all(|r| r.identical));
        assert_eq!(rows[1].threads, 2);
    }

    fn tiny_baseline() -> SpeedBaseline {
        SpeedBaseline {
            schema: 1,
            workload: "sequential-write-4k".to_string(),
            commands_per_config: 64,
            repeats: 2,
            hardware_threads: 4,
            points: vec![SpeedPoint {
                config_name: "C1".to_string(),
                architecture: "1-DDR-buf;1-CHN;1-WAY;1-DIE".to_string(),
                total_dies: 1,
                simulated_cycles: 200_000,
                wall_seconds: 0.25,
                kcps: 800.0,
                throughput_mbps: 1.125,
                commands: 64,
                commands_per_sec: 256.0,
            }],
            geomean_commands_per_sec: 256.0,
            total_wall_seconds: 0.25,
            parallel: ParallelSpeed {
                threads: 4,
                wall_seconds: 0.125,
                commands_per_sec: 512.0,
                identical: true,
            },
        }
    }

    #[test]
    fn baseline_json_round_trips_the_gated_field() {
        let json = tiny_baseline().to_json();
        assert_eq!(SpeedBaseline::parse_geomean(&json), Some(256.0));
        // The emission is stable enough for the CI artifact diff: pin the
        // field spellings the gate and the dashboard rely on.
        for needle in [
            "\"schema\": 1",
            "\"workload\": \"sequential-write-4k\"",
            "\"commands_per_config\": 64",
            "\"config\": \"C1\"",
            "\"commands_per_sec\": 256.0",
            "\"geomean_commands_per_sec\": 256.0",
            "\"identical\": true",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
    }

    #[test]
    fn parse_geomean_rejects_malformed_input() {
        assert_eq!(SpeedBaseline::parse_geomean(""), None);
        assert_eq!(SpeedBaseline::parse_geomean("{\"other\": 1}"), None);
        assert_eq!(
            SpeedBaseline::parse_geomean("\"geomean_commands_per_sec\": oops"),
            None
        );
        assert_eq!(
            SpeedBaseline::parse_geomean("\"geomean_commands_per_sec\": 123.5,"),
            Some(123.5)
        );
    }

    #[test]
    fn baseline_table_renders_on_one_buffer() {
        let table = tiny_baseline().to_table();
        assert!(table.contains("C1"));
        assert!(table.contains("geomean 256 cmds/s"));
        assert!(!table.contains("MISMATCH"));
    }

    #[test]
    fn fig6_baseline_measures_all_table3_points() {
        // Tiny command count: this is a structural test, not a benchmark.
        let baseline = measure_fig6_baseline(48, 1);
        assert_eq!(
            baseline.points.len(),
            crate::configs::table3_configs().len()
        );
        assert!(baseline.geomean_commands_per_sec > 0.0);
        assert!(baseline.parallel.identical);
        assert!(baseline.parallel.commands_per_sec > 0.0);
        assert_eq!(baseline.commands_per_config, 48);
        for p in &baseline.points {
            assert_eq!(p.commands, 48);
            assert!(p.commands_per_sec > 0.0);
            assert!(p.wall_seconds > 0.0);
        }
        let json = baseline.to_json();
        let parsed = SpeedBaseline::parse_geomean(&json).expect("geomean field present");
        assert!((parsed - baseline.geomean_commands_per_sec).abs() <= 0.05 + 1e-9);
    }
}
