//! Pure-speed equivalence suite: every hot-path optimisation must leave
//! `PerfReport`s byte-identical.
//!
//! The file `tests/golden/perf_reports.txt` was captured from the pre-
//! optimisation simulation core (the tree as of PR 3) by running this test
//! with `REGENERATE_GOLDEN=1`. The test re-runs the same diverse matrix of
//! configurations × workloads and compares the `Debug` rendering of every
//! report — including all floating-point digits — character for character.
//! Any change to a simulated instant, a statistic or a report field anywhere
//! in the pipeline fails this suite, which is what licenses the flat-memory
//! FTL, the DRAM row-segment kernel and the component-model fast paths to
//! call themselves *pure* speed work.

use ssdx_core::configs::{fig5_config, table2_configs, table3_configs};
use ssdx_core::{
    explorer, CachePolicy, CompressorConfig, FtlMode, HostInterfaceConfig, Ssd, SsdConfig,
};
use ssdx_ecc::EccScheme;
use ssdx_hostif::{AccessPattern, TracePlayer, Workload};
use ssdx_nand::OnfiSpeed;
use std::fmt::Write as _;

const GOLDEN_PATH: &str = "tests/golden/perf_reports.txt";

fn workload(pattern: AccessPattern, commands: u64, footprint: u64) -> Workload {
    Workload::builder(pattern)
        .command_count(commands)
        .footprint_bytes(footprint)
        .build()
}

fn base(name: &str) -> ssdx_core::SsdConfigBuilder {
    SsdConfig::builder(name)
        .topology(4, 2, 2)
        .dram_buffers(4)
        .dram_buffer_capacity(256 * 1024)
}

/// One labelled report per interesting corner of the configuration space.
/// Every simulated subsystem (WAF and page-mapped FTL, both compressor
/// placements, both cache policies, both ECC schemes, aged NAND, SATA and
/// NVMe, DDR2-533, slow ONFI, multi-core firmware, trims) appears at least
/// once, so a timing regression anywhere in the pipeline shows up here.
fn golden_matrix() -> String {
    let mut out = String::new();
    fn emit(out: &mut String, label: &str, cfg: SsdConfig, w: &Workload) {
        let report = Ssd::new(cfg).simulate(w);
        writeln!(out, "=== {label}\n{report:?}").unwrap();
    }

    let seq_w = workload(AccessPattern::SequentialWrite, 256, 16 << 20);
    let seq_r = workload(AccessPattern::SequentialRead, 256, 16 << 20);
    let rnd_w = workload(AccessPattern::RandomWrite, 256, 16 << 20);
    let rnd_r = workload(AccessPattern::RandomRead, 256, 16 << 20);

    emit(&mut out, "default-seq-write", SsdConfig::default(), &seq_w);
    emit(
        &mut out,
        "base-seq-write",
        base("base").build().unwrap(),
        &seq_w,
    );
    emit(
        &mut out,
        "base-seq-read",
        base("base").build().unwrap(),
        &seq_r,
    );
    emit(
        &mut out,
        "base-rand-write",
        base("base").build().unwrap(),
        &rnd_w,
    );
    emit(
        &mut out,
        "base-rand-read",
        base("base").build().unwrap(),
        &rnd_r,
    );
    emit(
        &mut out,
        "no-cache",
        base("nocache")
            .cache_policy(CachePolicy::NoCache)
            .build()
            .unwrap(),
        &seq_w,
    );
    emit(
        &mut out,
        "nvme",
        base("nvme")
            .host_interface(HostInterfaceConfig::nvme_gen2_x8())
            .build()
            .unwrap(),
        &seq_w,
    );
    emit(
        &mut out,
        "queue-depth-1",
        base("qd1").queue_depth(1).build().unwrap(),
        &seq_w,
    );
    emit(
        &mut out,
        "compressor-channel",
        base("comp-ch")
            .compressor(CompressorConfig::ChannelSide)
            .build()
            .unwrap(),
        &seq_w,
    );
    emit(
        &mut out,
        "compressor-host",
        base("comp-host")
            .compressor(CompressorConfig::HostSide)
            .build()
            .unwrap(),
        &seq_w,
    );
    emit(
        &mut out,
        "compressor-read",
        base("comp-read")
            .compressor(CompressorConfig::ChannelSide)
            .build()
            .unwrap(),
        &seq_r,
    );
    emit(
        &mut out,
        "ddr2-533",
        base("ddr533")
            .dram_timings(ssdx_dram::DdrTimings::ddr2_533())
            .build()
            .unwrap(),
        &seq_w,
    );
    emit(
        &mut out,
        "onfi-ddr166",
        base("onfi166")
            .onfi_speed(OnfiSpeed::Ddr166)
            .build()
            .unwrap(),
        &seq_w,
    );
    emit(
        &mut out,
        "adaptive-ecc-read",
        base("adaptive")
            .ecc(EccScheme::adaptive_bch(40))
            .build()
            .unwrap(),
        &seq_r,
    );
    emit(
        &mut out,
        "dual-core",
        base("dual").cpu_cores(2).build().unwrap(),
        &rnd_w,
    );
    emit(
        &mut out,
        "seed-variation",
        base("seeded").seed(777).build().unwrap(),
        &rnd_w,
    );

    // Page-mapped FTL: sequential (WAF ~1), random with garbage collection,
    // and a trim-heavy trace.
    let pm = |name: &str| {
        base(name)
            .ftl_mode(FtlMode::PageMapped)
            .over_provisioning(0.25)
    };
    emit(
        &mut out,
        "pm-seq-write",
        pm("pm-seq").build().unwrap(),
        &seq_w,
    );
    emit(
        &mut out,
        "pm-rand-gc",
        pm("pm-gc").build().unwrap(),
        &workload(AccessPattern::RandomWrite, 1_200, 2 << 20),
    );
    emit(
        &mut out,
        "pm-read-back",
        pm("pm-read").build().unwrap(),
        &seq_r,
    );
    {
        let mut text = String::new();
        for i in 0..96u64 {
            let off = (i % 24) * 4096;
            match i % 3 {
                0 => writeln!(text, "{} write {} 4096", i * 10, off).unwrap(),
                1 => writeln!(text, "{} read {} 4096", i * 10, off).unwrap(),
                _ => writeln!(text, "{} trim {} 4096", i * 10, off).unwrap(),
            }
        }
        let trace = TracePlayer::parse(&text).unwrap();
        let report = Ssd::new(pm("pm-trace").build().unwrap()).simulate(&trace);
        writeln!(out, "=== pm-trim-trace\n{report:?}").unwrap();
    }

    // Aged platforms (the wear-dependent timing and RBER paths).
    for (label, ecc, endurance) in [
        ("aged-fixed-half", EccScheme::fixed_bch(40), 0.5),
        ("aged-adaptive-eol", EccScheme::adaptive_bch(40), 1.0),
    ] {
        let mut ssd = Ssd::new(base(label).ecc(ecc).build().unwrap());
        ssd.age_to_normalized(endurance);
        let report = ssd.simulate(&seq_r);
        writeln!(out, "=== {label}\n{report:?}").unwrap();
    }

    // A slice of the paper's configuration tables (bigger arrays, more
    // DRAM buffers, the 1-die minimal platform).
    for cfg in table2_configs().into_iter().take(3) {
        let label = format!("table2-{}", cfg.name);
        emit(&mut out, &label, cfg, &seq_w);
    }
    for cfg in table3_configs().into_iter().take(2) {
        let label = format!("table3-{}", cfg.name);
        emit(&mut out, &label, cfg, &seq_w);
    }

    // The Explorer studies exercise run_parallel, the component-path
    // reference series and the endurance preparation hooks.
    {
        let configs: Vec<SsdConfig> = table2_configs().into_iter().take(2).collect();
        let sweep = explorer::host_interface_study(
            HostInterfaceConfig::Sata2,
            &configs,
            &workload(AccessPattern::SequentialWrite, 192, 16 << 20),
        )
        .unwrap();
        writeln!(out, "=== host-interface-study\n{sweep:?}").unwrap();
    }
    {
        let cfg = fig5_config(EccScheme::fixed_bch(40));
        let points =
            explorer::wearout_study(&cfg, EccScheme::adaptive_bch(40), &[0.0, 0.6], 96).unwrap();
        writeln!(out, "=== wearout-study\n{points:?}").unwrap();
    }

    out
}

#[test]
fn perf_reports_match_pre_optimisation_golden() {
    let actual = golden_matrix();
    if std::env::var_os("REGENERATE_GOLDEN").is_some() {
        std::fs::create_dir_all("tests/golden").unwrap();
        std::fs::write(GOLDEN_PATH, &actual).unwrap();
        eprintln!("regenerated {GOLDEN_PATH} ({} bytes)", actual.len());
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run with REGENERATE_GOLDEN=1 on a known-good tree");
    if actual != golden {
        // Locate the first diverging block to keep the failure readable.
        let a_blocks: Vec<&str> = actual.split("=== ").collect();
        let g_blocks: Vec<&str> = golden.split("=== ").collect();
        for (a, g) in a_blocks.iter().zip(&g_blocks) {
            assert_eq!(
                a.lines().next(),
                g.lines().next(),
                "golden block ordering diverged"
            );
            assert_eq!(a, g, "report diverged from the pre-optimisation golden");
        }
        assert_eq!(
            a_blocks.len(),
            g_blocks.len(),
            "golden block count diverged"
        );
        unreachable!("outputs differ but no block diff found");
    }
}
