//! Session probes: observe an SSD simulation *while it runs* instead of
//! only reading the final report.
//!
//! A `SimSession` is stepped command by command; an attached `Probe`
//! receives every completion record plus periodic utilization snapshots, so
//! latency, queue depth and per-component busy fractions can be sampled
//! mid-run — the fine-grained visibility the paper's platform is built for.
//! The command stream itself comes from a closure-backed `CommandSource`,
//! showing that arbitrary generators plug into the same entry point as the
//! built-in workloads.
//!
//! Run with `cargo run --release --example session_probes`.

// Examples are the user-facing surface: printing results is their job.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use ssdexplorer::core::{Probe, SessionSnapshot, Ssd, SsdConfig};
use ssdexplorer::hostif::{source_fn, HostCommand, HostOp};
use ssdexplorer::sim::SimTime;
use ssdx_bench::shorten_cache_fill;

/// A probe that keeps the periodic snapshots for a latency/utilization
/// timeline and tracks the worst single-command latency it saw.
#[derive(Default)]
struct Timeline {
    samples: Vec<SessionSnapshot>,
    worst_latency: SimTime,
}

impl Probe for Timeline {
    fn on_command(&mut self, record: &ssdexplorer::core::CommandRecord) {
        self.worst_latency = self.worst_latency.max(record.latency());
    }

    fn on_snapshot(&mut self, snapshot: &SessionSnapshot) {
        self.samples.push(*snapshot);
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = shorten_cache_fill(
        SsdConfig::builder("probed")
            .topology(8, 4, 2)
            .dram_buffers(8)
            .build()?,
    );
    let mut ssd = Ssd::try_new(config)?;

    // A closure-backed source: bursts of 4 KB writes alternating between two
    // hot regions — something no built-in `Workload` pattern expresses.
    let source = source_fn("bursty", 4_096, |i| HostCommand {
        id: i,
        op: HostOp::Write,
        offset: (i % 8) * (64 << 20) + (i / 8) * 4096,
        bytes: 4096,
        issue_at: SimTime::ZERO,
    });

    let mut timeline = Timeline::default();
    let mut session = ssd.session(&source);
    session.attach(&mut timeline);
    session.sample_every(512);

    // Drive the first simulated 5 ms step by step, then let it finish.
    let executed = session.run_until(SimTime::from_us(5_000));
    println!(
        "after 5 simulated ms: {executed} commands done, {} still queued\n",
        session.remaining()
    );
    let report = session.finish();

    println!(
        "{:>10} {:>10} {:>12} {:>8} {:>8} {:>8}",
        "time", "commands", "mean lat", "host", "chan", "die"
    );
    for s in &timeline.samples {
        println!(
            "{:>10} {:>10} {:>12} {:>7.0}% {:>7.0}% {:>7.0}%",
            s.at,
            s.commands_completed,
            s.mean_latency,
            s.utilization.host_link * 100.0,
            s.utilization.channel_bus * 100.0,
            s.utilization.die * 100.0,
        );
    }

    println!();
    println!("worst single-command latency : {}", timeline.worst_latency);
    println!("final report:\n{report}");
    Ok(())
}
