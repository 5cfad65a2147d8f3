//! Shape checks for the paper's experiments, at test-sized workloads.
//!
//! These tests assert the *qualitative* results the paper reports — who
//! wins, in which direction a curve moves, where saturation happens — so the
//! experiment harness cannot silently drift away from the publication while
//! refactoring. The absolute numbers live in EXPERIMENTS.md and are produced
//! by the `experiments` binary with larger workloads. The sweeps run through
//! the Explorer-based studies (`host_interface_study` / `wearout_study`).

use ssdexplorer::core::configs::{
    fig5_config, ocz_vertex_like, table2_configs, table3_configs, OCZ_REFERENCE_MBPS,
};
use ssdexplorer::core::{explorer, HostInterfaceConfig, Ssd, SsdConfig};
use ssdexplorer::ecc::EccScheme;
use ssdexplorer::hostif::{AccessPattern, Workload};

fn steady_state(mut cfg: SsdConfig) -> SsdConfig {
    cfg.dram_buffer_capacity = 64 * 1024;
    cfg
}

fn sw_workload(commands: u64) -> Workload {
    Workload::builder(AccessPattern::SequentialWrite)
        .command_count(commands)
        .build()
}

/// A reduced Table II that still spans the interesting corners: the smallest
/// configuration, one mid-size non-saturating point, the paper's optimum C6
/// and the largest configuration C10.
fn reduced_table2() -> Vec<SsdConfig> {
    table2_configs()
        .into_iter()
        .filter(|c| matches!(c.name.as_str(), "C1" | "C4" | "C6" | "C10"))
        .map(steady_state)
        .collect()
}

/// Fig. 2's accuracy, pinned at the size `experiments -- fig2` runs (1 GiB
/// of 4 KB commands over an 8 GiB footprint on the full drive): every
/// pattern stays within 10 % of the OCZ Vertex's reported throughput.
#[test]
fn fig2_accuracy_stays_within_ten_percent_of_the_ocz_vertex() {
    let mut ssd = Ssd::try_new(ocz_vertex_like()).expect("ocz-vertex-like validates");
    for (pattern, reference) in OCZ_REFERENCE_MBPS {
        let w = Workload::builder(pattern)
            .command_count(262_144)
            .footprint_bytes(8 << 30)
            .build();
        let mbps = ssd.simulate(&w).throughput_mbps;
        let error = (mbps - reference).abs() / reference;
        assert!(
            error <= 0.10,
            "{}: {mbps:.1} MB/s is {:.1} % off the OCZ Vertex's {reference} MB/s",
            pattern.label(),
            error * 100.0
        );
    }
}

#[test]
fn fig2_shape_sequential_beats_random_and_reads_beat_writes() {
    // Shrink the drive's 64 MB write cache so the test-sized workload
    // reaches the flash-limited steady state the full experiment measures.
    let mut config = ocz_vertex_like();
    config.dram_buffer_capacity = 256 * 1024;
    let mut ssd = Ssd::try_new(config).expect("ocz-vertex-like validates");
    let mut run = |pattern| {
        let w = Workload::builder(pattern)
            .command_count(4_096)
            .footprint_bytes(4 << 30)
            .build();
        ssd.simulate(&w).throughput_mbps
    };
    let sw = run(AccessPattern::SequentialWrite);
    let sr = run(AccessPattern::SequentialRead);
    let rw = run(AccessPattern::RandomWrite);
    let rr = run(AccessPattern::RandomRead);

    // The qualitative picture of Fig. 2: sequential read is the fastest
    // pattern, random write by far the slowest, reads outrun writes.
    assert!(sr >= sw * 0.95, "SR {sr} vs SW {sw}");
    assert!(sw > rw, "SW {sw} vs RW {rw}");
    assert!(rr > rw, "RR {rr} vs RW {rw}");
    assert!(rw < 0.5 * sw, "random writes must pay the WAF penalty");
}

#[test]
fn fig3_shape_sata_window_flattens_no_cache_and_c6_saturates() {
    let sweep = explorer::host_interface_study(
        HostInterfaceConfig::Sata2,
        &reduced_table2(),
        &sw_workload(3_072),
    )
    .expect("table configurations validate");
    let by_name = |name: &str| {
        sweep
            .points
            .iter()
            .find(|p| p.config_name == name)
            .unwrap_or_else(|| panic!("config {name} missing from sweep"))
    };

    // No-cache throughput is pinned by the 32-command NCQ window: growing the
    // back end from C4 to C10 must not meaningfully move it.
    let c4 = by_name("C4");
    let c10 = by_name("C10");
    assert!(
        (c10.ssd_no_cache_mbps - c4.ssd_no_cache_mbps).abs() < 0.2 * c4.ssd_no_cache_mbps,
        "no-cache should flatten: C4 {} vs C10 {}",
        c4.ssd_no_cache_mbps,
        c10.ssd_no_cache_mbps
    );

    // With the cache, C6 and C10 saturate the interface, C1 and C4 do not.
    let c6 = by_name("C6");
    let c1 = by_name("C1");
    let target = 0.95 * sweep.interface_plus_dram_mbps;
    assert!(
        c6.ssd_cache_mbps >= target,
        "C6 {} vs target {target}",
        c6.ssd_cache_mbps
    );
    assert!(c10.ssd_cache_mbps >= target);
    assert!(c1.ssd_cache_mbps < target);
    assert!(c4.ssd_cache_mbps < target);

    // And among the saturating points, C6 is the cheaper controller.
    let best = sweep
        .optimal_design_point(0.95)
        .expect("sweep is non-empty");
    assert_eq!(best.config_name, "C6");
}

#[test]
fn fig4_shape_nvme_removes_the_host_bottleneck() {
    let sweep = explorer::host_interface_study(
        HostInterfaceConfig::nvme_gen2_x8(),
        &reduced_table2(),
        &sw_workload(3_072),
    )
    .expect("table configurations validate");
    // Nothing saturates a PCIe Gen2 x8 link with this NAND generation.
    assert!(sweep.saturating_points(0.95).is_empty());
    for p in &sweep.points {
        // Without the SATA window, the no-cache column tracks the cached one.
        let ratio = p.ssd_no_cache_mbps / p.ssd_cache_mbps;
        assert!(
            (0.85..=1.05).contains(&ratio),
            "{}: no-cache {} vs cache {}",
            p.config_name,
            p.ssd_no_cache_mbps,
            p.ssd_cache_mbps
        );
    }
    // Internal parallelism is now visible end to end.
    let c1 = sweep.points.iter().find(|p| p.config_name == "C1").unwrap();
    let c10 = sweep
        .points
        .iter()
        .find(|p| p.config_name == "C10")
        .unwrap();
    assert!(c10.ssd_no_cache_mbps > 5.0 * c1.ssd_no_cache_mbps);
}

#[test]
fn fig5_shape_adaptive_bch_wins_reads_until_end_of_life() {
    let base = fig5_config(EccScheme::fixed_bch(40));
    let endurance = [0.0, 0.5, 1.0];
    let fixed = explorer::wearout_study(&base, EccScheme::fixed_bch(40), &endurance, 512)
        .expect("fig5 configuration validates");
    let adaptive = explorer::wearout_study(&base, EccScheme::adaptive_bch(40), &endurance, 512)
        .expect("fig5 configuration validates");

    // Early and mid life: adaptive BCH reads faster.
    assert!(adaptive[0].read_mbps > 1.2 * fixed[0].read_mbps);
    assert!(adaptive[1].read_mbps > 1.1 * fixed[1].read_mbps);
    // End of life: both run the worst-case 40-bit code.
    let eol_ratio = adaptive[2].read_mbps / fixed[2].read_mbps;
    assert!((0.9..1.1).contains(&eol_ratio), "eol ratio = {eol_ratio}");
    // Writes are insensitive to the ECC choice at every point.
    for (f, a) in fixed.iter().zip(&adaptive) {
        let gap = (f.write_mbps - a.write_mbps).abs() / f.write_mbps.max(1e-9);
        assert!(
            gap < 0.1,
            "write gap {gap} at endurance {}",
            f.normalized_endurance
        );
    }
    // Wear slows writes down.
    assert!(fixed[2].write_mbps < fixed[0].write_mbps);
}

#[test]
fn table_configurations_match_the_paper_listing() {
    let t2 = table2_configs();
    assert_eq!(t2.len(), 10);
    assert_eq!(t2[5].architecture_label(), "16-DDR-buf;16-CHN;8-WAY;4-DIE");
    let t3 = table3_configs();
    assert_eq!(t3.len(), 8);
    assert_eq!(
        t3[7].architecture_label(),
        "32-DDR-buf;32-CHN;16-WAY;16-DIE"
    );
}
