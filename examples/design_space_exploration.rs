//! Design-space exploration with a custom sweep: queue depth × channel
//! count on one Table II configuration, run in parallel.
//!
//! The paper's own searches (Figs. 3 and 4) are `experiments fig3` and
//! `experiments fig4`; this example shows the API they are built on. The
//! sweep points fan out across all cores through `run_parallel`, and the
//! results are byte-identical to a sequential run, so the only observable
//! difference is the wall clock.
//!
//! Run with `cargo run --release --example design_space_exploration`.

// Examples are the user-facing surface: printing results is their job.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use ssdexplorer::core::configs::table2_configs;
use ssdexplorer::core::{Axis, Explorer};
use ssdexplorer::hostif::{AccessPattern, Workload};
use ssdx_bench::shorten_cache_fill;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = Workload::builder(AccessPattern::SequentialWrite)
        .command_count(8_192)
        .build();

    // Queue depth × channel count, executed with one worker per core and
    // collected in expansion order.
    println!("================================================================");
    println!("custom sweep (parallel): queue depth x channels");
    println!("================================================================");
    let base = shorten_cache_fill(table2_configs().remove(2));
    let sweep = Explorer::new(base)
        .over(Axis::over("qd", [1u32, 8, 32], |cfg, &qd| {
            cfg.queue_depth_override = Some(qd);
        }))
        .over(Axis::over("channels", [4u32, 8], |cfg, &c| {
            cfg.channels = c;
            cfg.dram_buffers = c;
        }))
        .run_parallel(&workload)?;
    print!("{}", sweep.to_table());
    if let Some(best) = sweep.best_by(|r| r.throughput_mbps) {
        println!("\n-> best point: {}", best.label());
    }
    Ok(())
}
