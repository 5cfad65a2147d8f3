//! Shape checks for the paper's experiments, on the runs `experiments`
//! prints.
//!
//! These tests assert the *qualitative* results the paper reports — who
//! wins, in which direction a curve moves, where saturation happens — so
//! the experiment harness cannot silently drift away from the publication
//! while refactoring. Each figure comes from its typed runner in
//! `ssdx_bench` (`fig2`, `fig3`, `fig4`, `fig5`), the same call the
//! `experiments` subcommand renders, so the configurations, sizes and
//! transforms checked here are the ones the recorded figures use.

use ssdexplorer::core::configs::{table2_configs, table3_configs};
use ssdexplorer::core::{HostSweep, HostSweepPoint, WearoutPoint};
use ssdexplorer::hostif::AccessPattern;

fn by_name<'a>(sweep: &'a HostSweep, name: &str) -> &'a HostSweepPoint {
    sweep
        .points
        .iter()
        .find(|p| p.config_name == name)
        .unwrap_or_else(|| panic!("config {name} missing from sweep"))
}

/// Fig. 2's accuracy: every pattern stays within 10 % of the OCZ Vertex's
/// reported throughput.
#[test]
fn fig2_accuracy_stays_within_ten_percent_of_the_ocz_vertex() {
    for row in ssdx_bench::fig2().rows {
        assert!(
            row.error() <= 0.10,
            "{}: {:.1} MB/s is {:.1} % off the OCZ Vertex's {} MB/s",
            row.pattern.label(),
            row.measured_mbps,
            row.error() * 100.0,
            row.reference_mbps
        );
    }
}

#[test]
fn fig2_shape_sequential_beats_random_and_reads_beat_writes() {
    let rows = ssdx_bench::fig2().rows;
    let mbps = |pattern: AccessPattern| {
        rows.iter()
            .find(|r| r.pattern == pattern)
            .map(|r| r.measured_mbps)
            .unwrap_or_else(|| panic!("{} missing from Fig. 2", pattern.label()))
    };
    let sw = mbps(AccessPattern::SequentialWrite);
    let sr = mbps(AccessPattern::SequentialRead);
    let rw = mbps(AccessPattern::RandomWrite);
    let rr = mbps(AccessPattern::RandomRead);

    // The qualitative picture of Fig. 2: sequential read is the fastest
    // pattern, random write by far the slowest, reads outrun writes.
    assert!(sr >= sw * 0.95, "SR {sr} vs SW {sw}");
    assert!(sw > rw, "SW {sw} vs RW {rw}");
    assert!(rr > rw, "RR {rr} vs RW {rw}");
    assert!(rw < 0.5 * sw, "random writes must pay the WAF penalty");
}

#[test]
fn fig3_shape_sata_window_flattens_no_cache_and_c6_saturates() {
    let sweep = ssdx_bench::fig3();

    // No-cache throughput is pinned by the 32-command NCQ window: growing the
    // back end from C4 to C10 must not meaningfully move it.
    let c4 = by_name(&sweep, "C4");
    let c10 = by_name(&sweep, "C10");
    assert!(
        (c10.ssd_no_cache_mbps - c4.ssd_no_cache_mbps).abs() < 0.2 * c4.ssd_no_cache_mbps,
        "no-cache should flatten: C4 {} vs C10 {}",
        c4.ssd_no_cache_mbps,
        c10.ssd_no_cache_mbps
    );

    // With the cache, C6 and C10 saturate the interface, C1 and C4 do not.
    let c6 = by_name(&sweep, "C6");
    let c1 = by_name(&sweep, "C1");
    let target = 0.95 * sweep.interface_plus_dram_mbps;
    assert!(
        c6.ssd_cache_mbps >= target,
        "C6 {} vs target {target}",
        c6.ssd_cache_mbps
    );
    assert!(c10.ssd_cache_mbps >= target);
    assert!(c1.ssd_cache_mbps < target);
    assert!(c4.ssd_cache_mbps < target);

    // And among the saturating points, C6 is the cheapest controller.
    let best = sweep
        .optimal_design_point(0.95)
        .expect("sweep is non-empty");
    assert_eq!(best.config_name, "C6");
}

#[test]
fn fig4_shape_nvme_removes_the_host_bottleneck() {
    let sweep = ssdx_bench::fig4();
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
    let c1 = by_name(&sweep, "C1");
    let c10 = by_name(&sweep, "C10");
    assert!(c10.ssd_no_cache_mbps > 5.0 * c1.ssd_no_cache_mbps);
}

#[test]
fn fig5_shape_adaptive_bch_wins_reads_until_end_of_life() {
    let fig5 = ssdx_bench::fig5();
    let (fixed, adaptive) = (&fig5.fixed, &fig5.adaptive);
    let at = |points: &[WearoutPoint], endurance: f64| {
        points
            .iter()
            .find(|p| (p.normalized_endurance - endurance).abs() < 1e-9)
            .map(|p| p.read_mbps)
            .unwrap_or_else(|| panic!("no Fig. 5 point at endurance {endurance}"))
    };

    // Early and mid life: adaptive BCH reads faster.
    assert!(at(adaptive, 0.0) > 1.2 * at(fixed, 0.0));
    assert!(at(adaptive, 0.6) > 1.1 * at(fixed, 0.6));
    // End of life: both run the worst-case 40-bit code.
    let eol_ratio = at(adaptive, 1.0) / at(fixed, 1.0);
    assert!((0.9..1.1).contains(&eol_ratio), "eol ratio = {eol_ratio}");
    // Writes are insensitive to the ECC choice at every point.
    for (f, a) in fixed.iter().zip(adaptive) {
        let gap = (f.write_mbps - a.write_mbps).abs() / f.write_mbps.max(1e-9);
        assert!(
            gap < 0.1,
            "write gap {gap} at endurance {}",
            f.normalized_endurance
        );
    }
    // Wear slows writes down.
    let (fresh, worn) = (&fixed[0], &fixed[fixed.len() - 1]);
    assert!(worn.write_mbps < fresh.write_mbps);
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
