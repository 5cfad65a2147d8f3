//! The paper's experiments, each defined once.
//!
//! [`EXPERIMENTS`] is the table the `experiments` binary dispatches over:
//! one entry per section of output, naming the subcommand that prints it
//! and the renderer that writes it into a shared `fmt::Write` buffer.
//! Every configuration set, transform, command count and cutoff lives in
//! this module. The figures that tests assert on have typed runners —
//! [`fig2`], [`fig3`], [`fig4`], [`fig5`], [`fig6`], [`tails`] and
//! [`faults`] — which the renderers and the tests both call, so the tests
//! check the runs `experiments` prints. [`speed`] holds the wall-clock
//! meters behind the Fig. 6 KCPS table and the sweep speedup.
//!
//! Run with `cargo run --release -p ssdx-bench --bin experiments -- <subcommand>`.

pub mod speed;

use ssdx_channel::GangMode;
use ssdx_core::configs::{
    fig5_config, ocz_vertex_like, table2_configs, table3_configs, OCZ_REFERENCE_MBPS,
};
use ssdx_core::{
    fault_campaign, host_interface_study, tail_latency_study, wearout_study, Axis, CachePolicy,
    CompressorConfig, Explorer, FaultStudy, HostInterfaceConfig, HostSweep, ParallelExecutor, Ssd,
    SsdConfig, SsdConfigBuilder, SteadyStateCutoff, TailStudy, WearoutPoint,
};
use ssdx_ecc::EccScheme;
use ssdx_hostif::{AccessPattern, Workload};
use ssdx_nand::OnfiSpeed;
use std::fmt::Write as _;

/// Shrinks each DRAM buffer's write cache to 128 KiB, so that the
/// cache-fill transient — host writes absorbed at DRAM speed before the
/// first back-pressure — is a small part of a sweep-sized run and the
/// reported throughput is flash-limited. The FTL is not preconditioned:
/// this is not a steady state of garbage collection.
pub fn shorten_cache_fill(mut cfg: SsdConfig) -> SsdConfig {
    cfg.dram_buffer_capacity = 128 * 1024;
    cfg
}

/// The canonical 4 KB sequential-write workload of the paper's sweeps.
pub fn sequential_write_workload(commands: u64) -> Workload {
    Workload::builder(AccessPattern::SequentialWrite)
        .command_count(commands)
        .build()
}

/// Commands per design point in the Fig. 3/4 sweeps and the cache-policy
/// note; the speedup sweep runs a quarter of it per point.
const SWEEP_COMMANDS: u64 = 24_576;

/// Table II's C6, the paper's optimum, with a short cache fill: the base
/// platform of the tail-latency study, the fault campaign and the
/// cache-policy note.
fn shortened_c6() -> SsdConfig {
    shorten_cache_fill(table2_configs().remove(5))
}

// ---------------------------------------------------------------------------
// Typed runners: the figures the shape checks assert on.
// ---------------------------------------------------------------------------

/// Fig. 2: the OCZ-Vertex-like drive against the real drive.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2 {
    /// The simulated drive.
    pub config: SsdConfig,
    /// One row per IOZone-style pattern, in [`OCZ_REFERENCE_MBPS`] order.
    pub rows: Vec<Fig2Row>,
}

/// One Fig. 2 bar pair: simulated and reported throughput on one pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Row {
    /// The access pattern.
    pub pattern: AccessPattern,
    /// DRAM-buffer policy label of the simulated run.
    pub policy: String,
    /// Simulated throughput, MB/s.
    pub measured_mbps: f64,
    /// The OCZ Vertex's reported throughput, MB/s.
    pub reference_mbps: f64,
}

impl Fig2Row {
    /// Relative error of the simulation against the drive (0.1 is 10 %).
    pub fn error(&self) -> f64 {
        (self.measured_mbps - self.reference_mbps).abs() / self.reference_mbps
    }
}

/// Runs Fig. 2: each pattern writes or reads 1 GiB of 4 KB commands over
/// an 8 GiB footprint on one platform, in turn. At that size the drive's
/// 64 MB write cache is a small part of the run and the reported
/// throughput is the steady one, as a real IOZone run's would be.
pub fn fig2() -> Fig2 {
    const COMMANDS: u64 = 262_144;
    let config = ocz_vertex_like();
    let mut ssd = Ssd::new(config.clone());
    let rows = OCZ_REFERENCE_MBPS
        .into_iter()
        .map(|(pattern, reference_mbps)| {
            let workload = Workload::builder(pattern)
                .command_count(COMMANDS)
                .footprint_bytes(8 << 30)
                .build();
            let report = ssd.simulate(&workload);
            Fig2Row {
                pattern,
                policy: report.policy,
                measured_mbps: report.throughput_mbps,
                reference_mbps,
            }
        })
        .collect();
    Fig2 { config, rows }
}

/// The Fig. 3/4 sweep: Table II with a short cache fill, 4 KB sequential
/// writes, behind `host`.
fn host_sweep(host: HostInterfaceConfig) -> HostSweep {
    let configs: Vec<SsdConfig> = table2_configs()
        .into_iter()
        .map(shorten_cache_fill)
        .collect();
    host_interface_study(host, &configs, &sequential_write_workload(SWEEP_COMMANDS))
        .expect("table configurations validate")
}

/// Runs Fig. 3: the Table II sweep behind SATA II.
pub fn fig3() -> HostSweep {
    host_sweep(HostInterfaceConfig::Sata2)
}

/// Runs Fig. 4: the Table II sweep behind PCIe Gen2 x8 + NVMe.
pub fn fig4() -> HostSweep {
    host_sweep(HostInterfaceConfig::nvme_gen2_x8())
}

/// Fig. 5: the two ECC schemes over the same endurance points.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5 {
    /// Worst-case fixed BCH (t = 40), one point per endurance level.
    pub fixed: Vec<WearoutPoint>,
    /// Adaptive BCH (t ≤ 40) at the same levels.
    pub adaptive: Vec<WearoutPoint>,
}

/// Runs Fig. 5: 8,192 sequential reads and writes at normalised rated
/// endurance 0.0, 0.2, …, 1.0, with fixed and with adaptive BCH.
pub fn fig5() -> Fig5 {
    const COMMANDS: u64 = 8_192;
    let endurance: Vec<f64> = (0..=5).map(|i| i as f64 * 0.2).collect();
    let base = fig5_config(EccScheme::fixed_bch(40));
    let study = |ecc| {
        wearout_study(&base, ecc, &endurance, COMMANDS).expect("fig5 configuration validates")
    };
    Fig5 {
        fixed: study(EccScheme::fixed_bch(40)),
        adaptive: study(EccScheme::adaptive_bch(40)),
    }
}

/// Runs Fig. 6: the KCPS of each Table III configuration, with a short
/// cache fill, under 8,192 sequential writes — a wall-clock reading of
/// this machine.
pub fn fig6() -> Vec<speed::SpeedPoint> {
    let configs: Vec<SsdConfig> = table3_configs()
        .into_iter()
        .map(shorten_cache_fill)
        .collect();
    speed::measure_kcps_sweep(&configs, &sequential_write_workload(8_192))
}

/// Commands per workload in the tail-latency study.
const TAIL_COMMANDS: u64 = 8_192;

/// Runs the tail-latency study on C6 with a short cache fill: the
/// generative workload suite, one eighth of each stream trimmed as warmup.
pub fn tails() -> TailStudy {
    let warmup = SteadyStateCutoff::Commands(TAIL_COMMANDS / 8);
    tail_latency_study(&shortened_c6(), TAIL_COMMANDS, warmup)
        .expect("the table II configuration validates")
}

/// Commands per scenario in the fault-injection campaign.
const FAULT_COMMANDS: u64 = 2_048;

/// Runs the degraded-device campaign on C6 with a short cache fill, one
/// eighth of each stream trimmed as warmup.
pub fn faults() -> FaultStudy {
    let warmup = SteadyStateCutoff::Commands(FAULT_COMMANDS / 8);
    fault_campaign(&shortened_c6(), FAULT_COMMANDS, warmup)
        .expect("the table II configuration validates")
}

// ---------------------------------------------------------------------------
// The table.
// ---------------------------------------------------------------------------

/// One section of `experiments` output.
#[derive(Debug)]
pub struct Experiment {
    /// The subcommand that prints this section. `tables` prints two.
    pub name: &'static str,
    /// The section's banner, if it has one.
    pub title: Option<&'static str>,
    /// Whether `all` (and a bare `experiments`) prints this section.
    pub in_all: bool,
    /// Renders the section's text.
    pub render: fn(&mut String),
    /// Renders the machine-readable form that `--json` selects, if any.
    pub json: Option<fn(&mut String)>,
}

impl Experiment {
    /// Appends the section to `out`: the JSON form if `json` is set and
    /// the entry has one, else the banner and the text.
    pub fn render_into(&self, out: &mut String, json: bool) {
        match self.json.filter(|_| json) {
            Some(render_json) => render_json(out),
            None => {
                if let Some(title) = self.title {
                    section(out, title);
                }
                (self.render)(out);
            }
        }
    }
}

/// Every section `experiments` prints, in the order `all` prints them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "tables",
        title: Some("Table II — SSD configurations for the design-point search"),
        in_all: true,
        render: render_table2,
        json: None,
    },
    Experiment {
        name: "fig2",
        title: Some("Fig. 2 — validation against the OCZ Vertex 120 GB (SATA II)"),
        in_all: true,
        render: render_fig2,
        json: None,
    },
    Experiment {
        name: "fig3",
        title: Some("Fig. 3 — Sequential Write, SATA II host interface"),
        in_all: true,
        render: render_fig3,
        json: None,
    },
    Experiment {
        name: "fig4",
        title: Some("Fig. 4 — Sequential Write, PCIe Gen2 x8 + NVMe host interface"),
        in_all: true,
        render: render_fig4,
        json: None,
    },
    Experiment {
        name: "fig5",
        title: Some("Fig. 5 — throughput vs normalized rated endurance (4-CHN/2-WAY/4-DIE)"),
        in_all: true,
        render: render_fig5,
        json: None,
    },
    Experiment {
        name: "tails",
        title: Some("Tail latency — generative workloads, steady-state percentiles per class"),
        in_all: true,
        render: render_tails,
        json: Some(|out| out.push_str(&tails().to_json())),
    },
    Experiment {
        name: "faults",
        title: Some(
            "Fault injection — degraded-device scenarios, steady-state percentiles per class",
        ),
        in_all: true,
        render: render_faults,
        json: Some(|out| out.push_str(&faults().to_json())),
    },
    Experiment {
        name: "tables",
        title: Some("Table III — SSD configurations for the simulation-speed study"),
        in_all: true,
        render: render_table3,
        json: None,
    },
    Experiment {
        name: "fig6",
        title: Some("Fig. 6 — simulation speed (KCPS) across the Table III configurations"),
        in_all: true,
        render: render_fig6,
        json: None,
    },
    Experiment {
        name: "speedup",
        title: Some("Parallel sweep speedup — sequential Explorer vs ParallelExecutor"),
        in_all: true,
        render: render_speedup,
        json: None,
    },
    Experiment {
        name: "ablations",
        title: Some("Ablations — design choices on 8-CHN/4-WAY/2-DIE unless stated"),
        in_all: true,
        render: render_ablations,
        json: None,
    },
    Experiment {
        name: "policies",
        title: None,
        in_all: false,
        render: render_policies,
        json: None,
    },
];

/// The distinct subcommand names of [`EXPERIMENTS`], in table order.
pub fn subcommands() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = Vec::with_capacity(EXPERIMENTS.len());
    for experiment in EXPERIMENTS {
        if !names.contains(&experiment.name) {
            names.push(experiment.name);
        }
    }
    names
}

// ---------------------------------------------------------------------------
// Renderers.
// ---------------------------------------------------------------------------

fn section(out: &mut String, title: &str) {
    let rule = "==============================================================";
    let _ = writeln!(out, "{rule}\n{title}\n{rule}");
}

fn render_table2(out: &mut String) {
    for c in table2_configs() {
        let _ = writeln!(out, "{:<5} {}", c.name, c.architecture_label());
    }
    let _ = writeln!(out);
}

fn render_table3(out: &mut String) {
    for c in table3_configs() {
        let _ = writeln!(out, "{:<5} {}", c.name, c.architecture_label());
    }
    let _ = writeln!(out);
}

fn render_fig2(out: &mut String) {
    let fig2 = fig2();
    let _ = writeln!(
        out,
        "configuration: {} ({})\n",
        fig2.config.name,
        fig2.config.architecture_label()
    );
    let _ = writeln!(
        out,
        "{:<18} {:>14} {:>14} {:>8}",
        "workload", "SSDExplorer", "OCZ Vertex", "error"
    );
    for row in &fig2.rows {
        // Width specifiers need a sized Display value, so the composite
        // label is the one small per-row string this renderer builds.
        let label = format!("{} ({})", row.pattern.label(), row.policy);
        let _ = writeln!(
            out,
            "{label:<18} {:>9.1} MB/s {:>9.1} MB/s {:>7.1}%",
            row.measured_mbps,
            row.reference_mbps,
            row.error() * 100.0
        );
    }
    let _ = writeln!(out);
}

fn render_fig3(out: &mut String) {
    let sweep = fig3();
    out.push_str(&sweep.to_table());
    if let Some(best) = sweep.optimal_design_point(0.95) {
        let _ = writeln!(
            out,
            "optimal design point (cache policy): {} ({} dies)",
            best.config_name, best.total_dies
        );
    }
    let no_cache_best = sweep
        .points
        .iter()
        .min_by_key(|p| p.total_dies)
        .map(|p| p.config_name.as_str())
        .unwrap_or_default();
    let _ = writeln!(
        out,
        "no-cache policy: throughput flattens across all configurations, so the search falls on {no_cache_best}\n"
    );
}

fn render_fig4(out: &mut String) {
    let sweep = fig4();
    out.push_str(&sweep.to_table());
    let saturating = sweep.saturating_points(0.95);
    let _ = write!(out, "configurations saturating the PCIe interface: ");
    if saturating.is_empty() {
        let _ = writeln!(out, "none (the host interface is no longer the bottleneck)");
    } else {
        for (i, p) in saturating.iter().enumerate() {
            let _ = write!(out, "{}{}", if i > 0 { ", " } else { "" }, p.config_name);
        }
        let _ = writeln!(out);
    }
    // With NVMe the no-cache columns track the cached ones and the host
    // interface stops being the bottleneck, so the search is driven by the
    // hardware cost: report the Pareto front of throughput vs controller
    // resources (channels + DRAM buffers).
    let _ = writeln!(
        out,
        "performance/cost Pareto front (throughput vs channels+buffers):"
    );
    for p in sweep.pareto_front() {
        let _ = writeln!(
            out,
            "  {:<4} {:>7.1} MB/s with {:>2} channels, {:>2} buffers, {:>4} dies",
            p.config_name, p.ssd_cache_mbps, p.channels, p.dram_buffers, p.total_dies
        );
    }
    let _ = writeln!(out);
}

fn render_fig5(out: &mut String) {
    let fig5 = fig5();
    let _ = writeln!(
        out,
        "{:>10} {:>16} {:>16} {:>17} {:>17}",
        "endurance", "fixed BCH read", "adapt BCH read", "fixed BCH write", "adapt BCH write"
    );
    for (f, a) in fig5.fixed.iter().zip(&fig5.adaptive) {
        let _ = writeln!(
            out,
            "{:>10.1} {:>11.1} MB/s {:>11.1} MB/s {:>12.1} MB/s {:>12.1} MB/s",
            f.normalized_endurance, f.read_mbps, a.read_mbps, f.write_mbps, a.write_mbps
        );
    }
    let _ = writeln!(out);
}

fn render_tails(out: &mut String) {
    let study = tails();
    let _ = writeln!(
        out,
        "{TAIL_COMMANDS} commands per workload, first {} trimmed as warmup\n",
        TAIL_COMMANDS / 8
    );
    out.push_str(&study.to_table());
    let _ = writeln!(out);
}

fn render_faults(out: &mut String) {
    let study = faults();
    let _ = writeln!(
        out,
        "{FAULT_COMMANDS} commands per scenario, first {} trimmed as warmup\n",
        FAULT_COMMANDS / 8
    );
    out.push_str(&study.to_table());
    let _ = writeln!(out);
}

fn render_fig6(out: &mut String) {
    let points = fig6();
    let _ = writeln!(
        out,
        "{:<6} {:<34} {:>10} {:>12} {:>12}",
        "config", "architecture", "KCPS", "wall (s)", "MB/s"
    );
    for p in &points {
        let _ = writeln!(
            out,
            "{:<6} {:<34} {:>10.1} {:>12.3} {:>12.1}",
            p.config_name, p.architecture, p.kcps, p.wall_seconds, p.throughput_mbps
        );
    }
    let _ = writeln!(out);
}

/// The 8-point sweep the speedup series times: channels × cache policy ×
/// seed on a 4-channel base with a short cache fill, so the points differ
/// in cost and the executor's load balancing is exercised.
fn speedup_explorer() -> Explorer {
    let base = shorten_cache_fill(
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

/// The speedup series: [`speedup_explorer`] at 1/2/4/8 threads against one
/// shared sequential baseline, every row checked byte-identical to it.
fn render_speedup(out: &mut String) {
    let commands = SWEEP_COMMANDS / 4;
    let machine = ParallelExecutor::new().threads();
    let _ = writeln!(
        out,
        "8-point sweep (channels x cache x seed), {commands} commands per point; \
         this machine exposes {machine} hardware thread(s)\n"
    );
    let rows = speed::measure_sweep_speedups(
        &speedup_explorer(),
        &sequential_write_workload(commands),
        &[1, 2, 4, 8],
    )
    .expect("speedup sweep points are valid");
    for speedup in &rows {
        assert!(
            speedup.identical,
            "determinism violation: parallel sweep diverged at {} threads",
            speedup.threads
        );
        let _ = writeln!(out, "{}", speedup.summary_line());
    }
    let _ = writeln!(
        out,
        "\n(every row is verified byte-identical to the sequential sweep; \
         wall-clock speedup requires the hardware threads to exist)\n"
    );
}

/// Throughput of one ablated variant of the 8-channel / 4-way / 2-die
/// platform under 4,096 commands of `pattern` over a 4 GiB footprint.
fn ablation_row(
    out: &mut String,
    label: &str,
    pattern: AccessPattern,
    variant: impl FnOnce(SsdConfigBuilder) -> SsdConfigBuilder,
) {
    let base = SsdConfig::builder("ablation")
        .topology(8, 4, 2)
        .dram_buffers(8);
    let cfg = shorten_cache_fill(
        variant(base)
            .build()
            .expect("ablation configurations validate"),
    );
    let workload = Workload::builder(pattern)
        .command_count(4_096)
        .footprint_bytes(4 << 30)
        .build();
    let report = Ssd::new(cfg).simulate(&workload);
    let _ = writeln!(out, "  {label:<28} {:>8.1} MB/s", report.throughput_mbps);
}

/// One series per design knob the platform exposes beyond the paper's
/// figures: way-gang interconnection, ECC scheme, compressor placement,
/// ONFI speed and host queue depth.
fn render_ablations(out: &mut String) {
    use AccessPattern::{SequentialRead, SequentialWrite};

    let _ = writeln!(out, "way gang interconnection (sequential write):");
    for (label, gang) in [
        ("shared-bus gang", GangMode::SharedBus),
        ("shared-control gang", GangMode::SharedControl),
    ] {
        ablation_row(out, label, SequentialWrite, |b| b.gang(gang));
    }

    let _ = writeln!(out, "ECC scheme (sequential read):");
    for (label, ecc) in [
        ("no ECC", EccScheme::None),
        ("fixed BCH t=40", EccScheme::fixed_bch(40)),
        ("adaptive BCH t<=40", EccScheme::adaptive_bch(40)),
    ] {
        ablation_row(out, label, SequentialRead, |b| b.ecc(ecc));
    }

    let _ = writeln!(out, "compressor placement (sequential write):");
    for (label, compressor) in [
        ("no compressor", CompressorConfig::None),
        ("host-side GZIP", CompressorConfig::HostSide),
        ("channel-side GZIP", CompressorConfig::ChannelSide),
    ] {
        ablation_row(out, label, SequentialWrite, |b| b.compressor(compressor));
    }

    let _ = writeln!(out, "ONFI interface speed (sequential write):");
    for (label, speed) in [
        ("legacy async 20 MB/s", OnfiSpeed::Sdr20),
        ("async 40 MB/s", OnfiSpeed::Sdr40),
        ("ONFI 2.x DDR-166", OnfiSpeed::Ddr166),
    ] {
        ablation_row(out, label, SequentialWrite, |b| b.onfi_speed(speed));
    }

    let _ = writeln!(out, "host queue depth, no-cache policy (sequential write):");
    for qd in [1u32, 8, 32] {
        ablation_row(out, &format!("SATA NCQ depth {qd}"), SequentialWrite, |b| {
            b.cache_policy(CachePolicy::NoCache).queue_depth(qd)
        });
    }
    let _ = writeln!(out);
}

/// The two DRAM-buffer policies side by side on C6, as discussed in
/// Section IV-A.
fn render_policies(out: &mut String) {
    let workload = sequential_write_workload(SWEEP_COMMANDS);
    for policy in [CachePolicy::WriteCache, CachePolicy::NoCache] {
        let mut cfg = shortened_c6();
        cfg.cache_policy = policy;
        let report = Ssd::new(cfg).simulate(&workload);
        let _ = writeln!(out, "{}", report.summary_line());
    }
    let _ = writeln!(out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shorten_cache_fill_shrinks_the_write_cache() {
        let default = SsdConfig::default();
        let cfg = shorten_cache_fill(default.clone());
        assert!(cfg.dram_buffer_capacity < default.dram_buffer_capacity);
        assert_eq!(cfg.validate(), Ok(()));
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
    }
}
