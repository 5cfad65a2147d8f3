//! Regenerates every table and figure of the SSDExplorer paper's evaluation.
//!
//! Run with `cargo run --release -p ssdx-bench --bin experiments -- [all|<subcommand>] [--json]`.
//! The subcommands are the names in [`ssdx_bench::EXPERIMENTS`]; the
//! usage line lists them. With no argument it runs `all`, every section
//! of the table in order except `policies`; any other unknown argument
//! lists the subcommands on stderr and exits with status 2. Results are
//! printed as aligned text tables; every section renders into one shared
//! `fmt::Write` buffer that is printed (and reused) per section, so table
//! formatting never allocates a `String` per cell.
//!
//! `tails` runs the tail-latency study: the generative workload suite
//! (zipfian-skewed, bursty on/off, mixed block sizes, read-modify-write)
//! reporting p50/p95/p99/p99.9 per command class with the first eighth of
//! each stream trimmed as warmup. `faults` runs the degraded-device
//! campaign: five fault/aging axes (artificial endurance aging,
//! read-disturb growth, retention error scaling, block retirement, mid-GC
//! power loss with recovery replay), reported the same way. Both are fully
//! deterministic, and `--json` emits their machine-readable form.
//!
//! `fig6` prints the paper's per-configuration KCPS table and `speedup`
//! the sequential-vs-parallel sweep timing; both are wall-clock readings
//! of this machine. The repository's simulation-speed baseline and CI gate
//! is perfbench's `fig6-seqwrite` workload, recorded in `BENCH_fig6.json`.

use ssdx_bench::{subcommands, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map(String::as_str).unwrap_or("all");
    let all = name == "all";
    let json = !all && args.iter().any(|a| a == "--json");
    let mut sections = EXPERIMENTS
        .iter()
        .filter(|e| if all { e.in_all } else { e.name == name })
        .peekable();
    if sections.peek().is_none() {
        eprintln!("experiments: unknown subcommand `{name}`");
        eprintln!(
            "usage: experiments [all|{}] [options]",
            subcommands().join("|")
        );
        std::process::exit(2);
    }
    // One shared render buffer for every section, flushed after each so
    // the output streams while the later (long) experiments still run.
    let mut out = String::with_capacity(4 * 1024);
    for experiment in sections {
        experiment.render_into(&mut out, json);
        print!("{out}");
        out.clear();
    }
}
