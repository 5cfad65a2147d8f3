//! Fig. 6 — simulation speed (KCPS) across the Table III configurations.
//!
//! Prints the KCPS table measured exactly as the paper defines it (simulated
//! controller-clock kilocycles per wall-clock second), then benchmarks the
//! raw simulation wall time of a small and a large configuration so
//! regressions in simulator performance are caught.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ssdx_bench::{sequential_write_workload, speed, steady_state};
use ssdx_core::configs::table3_configs;
use ssdx_core::{Ssd, SsdConfig};
use std::hint::black_box;

fn print_series() {
    println!("\n=== Fig. 6: simulation speed (KCPS), Table III configurations ===");
    let configs: Vec<SsdConfig> = table3_configs().into_iter().map(steady_state).collect();
    let workload = sequential_write_workload(4_096);
    let points = speed::measure_kcps_sweep(&configs, &workload);
    println!(
        "{:<6} {:<34} {:>14} {:>10}",
        "config", "architecture", "KCPS", "MB/s"
    );
    for p in &points {
        println!(
            "{:<6} {:<34} {:>14.1} {:>10.1}",
            p.config_name, p.architecture, p.kcps, p.throughput_mbps
        );
    }
    println!();
}

fn bench(c: &mut Criterion) {
    print_series();
    let mut group = c.benchmark_group("fig6_simulation_speed");
    group.sample_size(10);
    let workload = sequential_write_workload(2_048);
    for cfg in table3_configs().into_iter().map(steady_state) {
        if !matches!(cfg.name.as_str(), "C1" | "C4" | "C8") {
            continue;
        }
        group.bench_with_input(BenchmarkId::new("simulate", &cfg.name), &cfg, |b, cfg| {
            let mut ssd = Ssd::new(cfg.clone());
            b.iter(|| black_box(ssd.simulate(&workload).elapsed));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
