//! Regenerates every table and figure of the SSDExplorer paper's evaluation.
//!
//! Run with `cargo run --release -p ssdx-bench --bin experiments -- [all|fig2|fig3|fig4|fig5|fig6|speedup|tails|faults|tables|policies]`.
//! With no argument it runs `all`; any other unknown argument lists the
//! subcommands on stderr and exits with status 2. Results are printed as
//! aligned text tables; every section renders into one shared `fmt::Write`
//! buffer that is printed (and reused) per section, so table formatting
//! never allocates a `String` per cell.
//!
//! The `tails` subcommand runs the tail-latency study: the generative
//! workload suite (zipfian-skewed, bursty on/off, mixed block sizes,
//! read-modify-write) on a steady-state platform, reporting p50/p95/p99/
//! p99.9 per command class with the first eighth of each stream trimmed as
//! warmup. The output is fully deterministic (`--json` emits the
//! machine-readable form).
//!
//! The `faults` subcommand runs the degraded-device campaign: five
//! fault/aging axes (artificial endurance aging, read-disturb growth,
//! retention error scaling, block retirement, mid-GC power loss with
//! recovery replay), each swept on a page-mapped steady-state platform and
//! reported as per-class tail percentiles. As for `tails`, `--json` emits
//! the machine-readable form and the output is fully deterministic.
//!
//! `fig6` prints the paper's per-configuration KCPS table and `speedup`
//! the sequential-vs-parallel sweep timing; both are wall-clock readings
//! of this machine. The repository's simulation-speed baseline and CI gate
//! is perfbench's `fig6-seqwrite` workload, recorded in `BENCH_fig6.json`.

use ssdx_bench::speed;
use ssdx_core::configs::{
    fig5_config, ocz_vertex_like, table2_configs, table3_configs, OCZ_REFERENCE_MBPS,
};
use ssdx_core::{
    explorer, faults, metrics, CachePolicy, HostInterfaceConfig, ParallelExecutor, Ssd, SsdConfig,
    SteadyStateCutoff,
};
use ssdx_ecc::EccScheme;
use ssdx_hostif::{AccessPattern, Workload};
use std::fmt::Write as _;

/// Every subcommand `main` accepts, as printed in the usage line.
const SUBCOMMANDS: &str = "all|fig2|fig3|fig4|fig5|fig6|speedup|tails|faults|tables|policies";

fn fig2_commands() -> u64 {
    // 1 GiB of 4 KB commands: large enough that the 64 MB write cache of the
    // modelled drive is a small fraction of the run and the reported
    // throughput reflects the steady state, as a real IOZone run would.
    262_144
}

fn sweep_commands() -> u64 {
    24_576
}

fn sweep_workload() -> Workload {
    Workload::builder(AccessPattern::SequentialWrite)
        .command_count(sweep_commands())
        .build()
}

/// Shrinks the per-buffer cache so that the sweep workload is much larger
/// than the aggregate write cache and the reported throughput reflects the
/// steady state rather than the cache-fill transient.
fn steady_state(mut cfg: SsdConfig) -> SsdConfig {
    cfg.dram_buffer_capacity = 128 * 1024;
    cfg
}

fn section(out: &mut String, title: &str) {
    let _ = writeln!(
        out,
        "=============================================================="
    );
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "=============================================================="
    );
}

fn fig2_validation(out: &mut String) {
    section(
        out,
        "Fig. 2 — validation against the OCZ Vertex 120 GB (SATA II)",
    );
    let config = ocz_vertex_like();
    let _ = writeln!(
        out,
        "configuration: {} ({})\n",
        config.name,
        config.architecture_label()
    );
    let _ = writeln!(
        out,
        "{:<18} {:>14} {:>14} {:>8}",
        "workload", "SSDExplorer", "OCZ Vertex", "error"
    );
    let mut ssd = Ssd::new(config);
    for (pattern, reference) in OCZ_REFERENCE_MBPS {
        let workload = Workload::builder(pattern)
            .command_count(fig2_commands())
            .footprint_bytes(8 << 30)
            .build();
        let report = ssd.simulate(&workload);
        let error = (report.throughput_mbps - reference).abs() / reference * 100.0;
        // Width specifiers need a sized Display value, so the composite
        // label is the one small per-row string this driver still builds
        // (four rows total — not a hot path).
        let label = format!("{} ({})", pattern.label(), report.policy);
        let _ = writeln!(
            out,
            "{label:<18} {:>9.1} MB/s {:>9.1} MB/s {:>7.1}%",
            report.throughput_mbps, reference, error
        );
    }
    let _ = writeln!(out);
}

fn print_table2(out: &mut String) {
    section(
        out,
        "Table II — SSD configurations for the design-point search",
    );
    for c in table2_configs() {
        let _ = writeln!(out, "{:<5} {}", c.name, c.architecture_label());
    }
    let _ = writeln!(out);
}

fn print_table3(out: &mut String) {
    section(
        out,
        "Table III — SSD configurations for the simulation-speed study",
    );
    for c in table3_configs() {
        let _ = writeln!(out, "{:<5} {}", c.name, c.architecture_label());
    }
    let _ = writeln!(out);
}

fn fig3_sata_sweep(out: &mut String) {
    section(out, "Fig. 3 — Sequential Write, SATA II host interface");
    let configs: Vec<SsdConfig> = table2_configs().into_iter().map(steady_state).collect();
    let sweep =
        explorer::host_interface_study(HostInterfaceConfig::Sata2, &configs, &sweep_workload())
            .expect("table configurations validate");
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

fn fig4_pcie_sweep(out: &mut String) {
    section(
        out,
        "Fig. 4 — Sequential Write, PCIe Gen2 x8 + NVMe host interface",
    );
    let configs: Vec<SsdConfig> = table2_configs().into_iter().map(steady_state).collect();
    let sweep = explorer::host_interface_study(
        HostInterfaceConfig::nvme_gen2_x8(),
        &configs,
        &sweep_workload(),
    )
    .expect("table configurations validate");
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
    let front = sweep.pareto_front();
    let _ = writeln!(
        out,
        "performance/cost Pareto front (throughput vs channels+buffers):"
    );
    for p in &front {
        let _ = writeln!(
            out,
            "  {:<4} {:>7.1} MB/s with {:>2} channels, {:>2} buffers, {:>4} dies",
            p.config_name, p.ssd_cache_mbps, p.channels, p.dram_buffers, p.total_dies
        );
    }
    let _ = writeln!(out);
}

fn fig5_wearout(out: &mut String) {
    section(
        out,
        "Fig. 5 — throughput vs normalized rated endurance (4-CHN/2-WAY/4-DIE)",
    );
    let endurance: Vec<f64> = (0..=5).map(|i| i as f64 * 0.2).collect();
    let base = fig5_config(EccScheme::fixed_bch(40));
    let fixed = explorer::wearout_study(&base, EccScheme::fixed_bch(40), &endurance, 8_192)
        .expect("fig5 configuration validates");
    let adaptive = explorer::wearout_study(&base, EccScheme::adaptive_bch(40), &endurance, 8_192)
        .expect("fig5 configuration validates");
    let _ = writeln!(
        out,
        "{:>10} {:>16} {:>16} {:>17} {:>17}",
        "endurance", "fixed BCH read", "adapt BCH read", "fixed BCH write", "adapt BCH write"
    );
    for (f, a) in fixed.iter().zip(&adaptive) {
        let _ = writeln!(
            out,
            "{:>10.1} {:>11.1} MB/s {:>11.1} MB/s {:>12.1} MB/s {:>12.1} MB/s",
            f.normalized_endurance, f.read_mbps, a.read_mbps, f.write_mbps, a.write_mbps
        );
    }
    let _ = writeln!(out);
}

fn fig6_simulation_speed(out: &mut String) {
    section(
        out,
        "Fig. 6 — simulation speed (KCPS) across the Table III configurations",
    );
    let workload = Workload::builder(AccessPattern::SequentialWrite)
        .command_count(8_192)
        .build();
    let configs: Vec<SsdConfig> = table3_configs().into_iter().map(steady_state).collect();
    let points = speed::measure_kcps_sweep(&configs, &workload);
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

fn parallel_speedup(out: &mut String) {
    section(
        out,
        "Parallel sweep speedup — sequential Explorer vs ParallelExecutor",
    );
    let machine = ParallelExecutor::new().threads();
    let _ = writeln!(
        out,
        "8-point sweep (channels x cache x seed), {} commands per point; \
         this machine exposes {machine} hardware thread(s)\n",
        sweep_commands() / 4
    );
    print!("{out}");
    out.clear();
    ssdx_bench::print_speedup_series(sweep_commands() / 4);
    let _ = writeln!(
        out,
        "\n(every row is verified byte-identical to the sequential sweep; \
         wall-clock speedup requires the hardware threads to exist)\n"
    );
}

/// Commands per workload in the tail-latency study.
const TAIL_COMMANDS: u64 = 8_192;

/// Builds the tail-latency study on the canonical steady-state platform:
/// one eighth of each stream is trimmed as warmup.
fn tail_study() -> ssdx_core::TailStudy {
    let base = steady_state(table2_configs().remove(5));
    let warmup = SteadyStateCutoff::Commands(TAIL_COMMANDS / 8);
    metrics::tail_latency_study(&base, TAIL_COMMANDS, warmup)
        .expect("the table II configuration validates")
}

fn tail_latency(out: &mut String) {
    section(
        out,
        "Tail latency — generative workloads, steady-state percentiles per class",
    );
    let study = tail_study();
    let _ = writeln!(
        out,
        "{} commands per workload, first {} trimmed as warmup\n",
        TAIL_COMMANDS,
        TAIL_COMMANDS / 8
    );
    out.push_str(&study.to_table());
    let _ = writeln!(out);
}

/// The tails suite: print the percentile table, or emit JSON with
/// `--json`. Deterministic — two runs print identical bytes.
fn tails_suite(args: &[String]) -> i32 {
    if args.iter().any(|a| a == "--json") {
        print!("{}", tail_study().to_json());
    } else {
        let mut out = String::new();
        tail_latency(&mut out);
        print!("{out}");
    }
    0
}

/// Commands per scenario in the fault-injection campaign.
const FAULT_COMMANDS: u64 = 2_048;

/// Builds the degraded-device campaign on the canonical steady-state
/// platform: one eighth of each stream is trimmed as warmup.
fn fault_study() -> ssdx_core::FaultStudy {
    let base = steady_state(table2_configs().remove(5));
    let warmup = SteadyStateCutoff::Commands(FAULT_COMMANDS / 8);
    faults::fault_campaign(&base, FAULT_COMMANDS, warmup)
        .expect("the table II configuration validates")
}

fn fault_scenarios(out: &mut String) {
    section(
        out,
        "Fault injection — degraded-device scenarios, steady-state percentiles per class",
    );
    let study = fault_study();
    let _ = writeln!(
        out,
        "{} commands per scenario, first {} trimmed as warmup\n",
        FAULT_COMMANDS,
        FAULT_COMMANDS / 8
    );
    out.push_str(&study.to_table());
    let _ = writeln!(out);
}

/// The faults suite: print the scenario percentile table, or emit JSON
/// with `--json`. Deterministic — two runs print identical bytes.
fn faults_suite(args: &[String]) -> i32 {
    if args.iter().any(|a| a == "--json") {
        print!("{}", fault_study().to_json());
    } else {
        let mut out = String::new();
        fault_scenarios(&mut out);
        print!("{out}");
    }
    0
}

fn cache_policy_note(out: &mut String) {
    // Small sanity print showing the two DRAM-buffer policies side by side on
    // the default platform, mirroring the discussion in Section IV-A.
    let workload = sweep_workload();
    for policy in [CachePolicy::WriteCache, CachePolicy::NoCache] {
        let mut cfg = steady_state(table2_configs().remove(5));
        cfg.cache_policy = policy;
        let report = Ssd::new(cfg).simulate(&workload);
        let _ = writeln!(out, "{}", report.summary_line());
    }
    let _ = writeln!(out);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = args.first().map(String::as_str).unwrap_or("all");
    // One shared render buffer for every section: printed and reused
    // between sections, so the drivers format without per-cell allocations.
    let mut out = String::with_capacity(4 * 1024);
    match arg {
        "fig2" => fig2_validation(&mut out),
        "fig3" => fig3_sata_sweep(&mut out),
        "fig4" => fig4_pcie_sweep(&mut out),
        "fig5" => fig5_wearout(&mut out),
        "fig6" => fig6_simulation_speed(&mut out),
        "speedup" => parallel_speedup(&mut out),
        "tails" => std::process::exit(tails_suite(&args[1..])),
        "faults" => std::process::exit(faults_suite(&args[1..])),
        "tables" => {
            print_table2(&mut out);
            print_table3(&mut out);
        }
        "policies" => cache_policy_note(&mut out),
        "all" => {
            // Full run: flush the shared buffer after each section so the
            // output streams while the later (long) experiments still run.
            let sections: [fn(&mut String); 10] = [
                print_table2,
                fig2_validation,
                fig3_sata_sweep,
                fig4_pcie_sweep,
                fig5_wearout,
                tail_latency,
                fault_scenarios,
                print_table3,
                fig6_simulation_speed,
                parallel_speedup,
            ];
            for render in sections {
                render(&mut out);
                print!("{out}");
                out.clear();
            }
        }
        unknown => {
            eprintln!("experiments: unknown subcommand `{unknown}`");
            eprintln!("usage: experiments [{SUBCOMMANDS}] [options]");
            std::process::exit(2);
        }
    }
    print!("{out}");
}
