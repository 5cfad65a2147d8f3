//! Tail latency under generative workloads: p50/p95/p99/p99.9 per command
//! class, with warmup trimming.
//!
//! Mean throughput hides what fleets are judged on — the latency the
//! slowest percentile of commands sees once queues build. This example
//! runs the four generative workloads (zipfian-skewed, bursty on/off,
//! mixed block sizes, read-modify-write) through the tail-latency study,
//! then drills into one session by hand to show the same histograms in its
//! report and rebuilt from the records its step loop returns.
//!
//! Run with `cargo run --release --example tail_latency`.

// Examples are the user-facing surface: printing results is their job.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use ssdexplorer::core::{
    metrics, ClassHistograms, CommandClass, CommandRecord, Ssd, SsdConfig, SteadyStateCutoff,
};
use ssdexplorer::hostif::ZipfianWorkload;
use ssdx_bench::shorten_cache_fill;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A short cache fill, so the study measures flash-limited latencies
    // rather than writes absorbed by the cache.
    let config = shorten_cache_fill(
        SsdConfig::builder("tail-demo")
            .topology(4, 2, 2)
            .dram_buffers(4)
            .build()?,
    );

    // The whole suite in one call: four workloads, one eighth of each
    // stream trimmed as warmup, full per-class histograms per point.
    let study = metrics::tail_latency_study(&config, 2_048, SteadyStateCutoff::Commands(256))?;
    println!("tail latency across the generative workload suite:\n");
    print!("{}", study.to_table());

    // The same numbers by hand, for one zipfian-skewed session: trim the
    // warmup, keep every record the step loop returns, and read the
    // histograms both from the report and from the records.
    let zipf = ZipfianWorkload::new(0.99, config.seed)
        .command_count(2_048)
        .footprint_bytes(256 << 20)
        .read_fraction(0.7);
    let warmup = SteadyStateCutoff::Commands(256);
    let mut ssd = Ssd::try_new(config)?;
    let mut session = ssd.session(&zipf);
    session.steady_state(warmup);
    let records: Vec<CommandRecord> = std::iter::from_fn(|| session.step()).collect();
    let report = session.finish();

    println!("\nzipfian session, read class:");
    let read = report.tail(CommandClass::Read);
    println!("  steady-state samples : {}", read.count);
    println!("  mean                 : {}", read.mean);
    println!("  p50 / p95            : {} / {}", read.p50, read.p95);
    println!("  p99 / p99.9          : {} / {}", read.p99, read.p999);
    println!("  worst                : {}", read.max);

    // The records digest to the same histograms post-hoc — handy when the
    // warmup cutoff is only decided after the run.
    let mut from_records = ClassHistograms::new();
    for r in &records {
        if warmup.admits(r.index, r.completed_at) {
            from_records.record(r.command.op, r.latency());
        }
    }
    assert_eq!(from_records, *report.class_latency);
    let p99_all = from_records.total().quantile(0.99);
    println!("\np99 across all classes       : {p99_all}");
    println!(
        "tail amplification (p99/p50) : {:.1}x",
        read.p99.as_ns_f64() / read.p50.as_ns_f64().max(1.0)
    );
    Ok(())
}
