//! Session probes: observe an SSD simulation *while it runs* instead of
//! only reading the final report.
//!
//! A `SimSession` is stepped command by command: each step returns the
//! command's completion record, and every 512 commands the loop takes a
//! utilization snapshot, so latency, queue depth and per-component busy
//! fractions can be sampled mid-run — the fine-grained visibility the
//! paper's platform is built for.
//! The command stream itself comes from a closure-backed `CommandSource`,
//! showing that arbitrary generators plug into the same entry point as the
//! built-in workloads.
//!
//! Run with `cargo run --release --example session_probes`.

// Examples are the user-facing surface: printing results is their job.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use ssdexplorer::core::{CommandRecord, SessionSnapshot, SimSession, Ssd, SsdConfig};
use ssdexplorer::hostif::{source_fn, HostCommand, HostOp};
use ssdexplorer::sim::SimTime;
use ssdx_bench::shorten_cache_fill;

/// Periodic snapshots for a latency/utilization timeline, plus the worst
/// single-command latency seen.
#[derive(Default)]
struct Timeline {
    samples: Vec<SessionSnapshot>,
    worst_latency: SimTime,
}

impl Timeline {
    /// Takes in the record `session` just returned, sampling a snapshot
    /// every 512 completed commands.
    fn observe(&mut self, session: &SimSession<'_>, record: &CommandRecord) {
        self.worst_latency = self.worst_latency.max(record.latency());
        if session.completed() % 512 == 0 {
            self.samples.push(session.snapshot());
        }
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

    // Drive the first simulated 5 ms step by step, then the rest.
    while session.now() < SimTime::from_us(5_000) {
        let Some(record) = session.step() else { break };
        timeline.observe(&session, &record);
    }
    println!(
        "after 5 simulated ms: {} commands done, {} still queued\n",
        session.completed(),
        session.remaining()
    );
    while let Some(record) = session.step() {
        timeline.observe(&session, &record);
    }
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
