//! Fault-scenario equivalence suite.
//!
//! The fault campaign's correctness claim extends the platform's
//! determinism contract to degraded devices: injecting faults adds **no**
//! entropy source, so a faulty run is exactly as reproducible as a healthy
//! one. Every test here pins some face of that claim:
//!
//! * **Schedule determinism** (property): any fault schedule — read-disturb
//!   growth, retention scaling, block retirement, mid-GC power loss, on an
//!   optionally aged platform — crossed with arbitrary topologies and
//!   workloads produces byte-identical `PerfReport` renderings and
//!   completion records across repeated runs.
//! * **Fork ≡ continuous under faults** (property): splitting a faulty
//!   session at an arbitrary command via
//!   [`SimSession::capture`]/[`SimSession::fork`], or copying it in memory
//!   with [`SimSession::duplicate`], reproduces the continuous run exactly
//!   — including split points before, at and after the power-loss
//!   trigger, whose command-index key is session state.
//! * **Trigger pinning**: the power-loss recovery replay fires exactly once
//!   even when the session is captured and forked at the trigger itself.

use proptest::prelude::*;
use ssdx_core::{
    CommandRecord, FaultConfig, FtlMode, SimSession, Ssd, SsdConfig, SteadyStateCutoff,
};
use ssdx_hostif::{AccessPattern, Workload};

fn config(channels: u32, ways: u32, seed: u64, faults: FaultConfig) -> SsdConfig {
    SsdConfig::builder("faulty")
        .topology(channels, ways, 1)
        .dram_buffers(channels)
        .dram_buffer_capacity(128 * 1024)
        .ftl_mode(FtlMode::PageMapped)
        .seed(seed)
        .faults(faults)
        .build()
        .expect("the swept fault topologies validate")
}

/// A small footprint so garbage collection — and with it retirement and
/// mid-GC power loss — actually happens within the short swept streams.
fn workload(pattern: AccessPattern, commands: u64, seed: u64) -> Workload {
    Workload::builder(pattern)
        .command_count(commands)
        .footprint_bytes(1 << 20)
        .seed(seed)
        .build()
}

/// Steps `session` to the end of its stream, appending every completion
/// record to `records`, and returns the report rendering.
fn drain(mut session: SimSession<'_>, records: &mut Vec<CommandRecord>) -> String {
    records.extend(std::iter::from_fn(|| session.step()));
    format!("{:?}", session.finish())
}

/// Runs the full stream in one session on a platform aged to `endurance`,
/// returning the report rendering and every completion record.
fn continuous(
    cfg: &SsdConfig,
    w: &Workload,
    endurance: f64,
    cutoff: SteadyStateCutoff,
) -> (String, Vec<CommandRecord>) {
    let mut ssd = Ssd::try_new(cfg.clone()).unwrap();
    ssd.age_to_normalized(endurance);
    let mut session = ssd.session(w);
    session.steady_state(cutoff);
    let mut records = Vec::new();
    let report = drain(session, &mut records);
    (report, records)
}

/// Runs `split` commands on an aged platform, captures, then forks a fresh
/// **un-aged** platform from the image and finishes there: the wear state
/// injected by aging (and everything the fault schedule did to it) must
/// travel inside the image.
fn split_run(
    cfg: &SsdConfig,
    w: &Workload,
    endurance: f64,
    cutoff: SteadyStateCutoff,
    split: u64,
) -> (String, Vec<CommandRecord>) {
    let mut ssd = Ssd::try_new(cfg.clone()).unwrap();
    ssd.age_to_normalized(endurance);
    let mut session = ssd.session(w);
    session.steady_state(cutoff);
    let mut records: Vec<CommandRecord> = (0..split).map_while(|_| session.step()).collect();
    let image = session.capture();

    let mut forked = Ssd::try_new(cfg.clone()).unwrap();
    let session = SimSession::fork(&mut forked, w, &image)
        .expect("a freshly captured faulty image forks onto an identical platform");
    let report = drain(session, &mut records);
    (report, records)
}

/// Runs `split` commands on an aged platform owned by its session, copies
/// the session in memory with [`SimSession::duplicate`], runs the original
/// to the end (which must not move the copy), then finishes the copy.
fn duplicate_run(
    cfg: &SsdConfig,
    w: &Workload,
    endurance: f64,
    cutoff: SteadyStateCutoff,
    split: u64,
) -> (String, Vec<CommandRecord>) {
    let mut ssd = Ssd::try_new(cfg.clone()).unwrap();
    ssd.age_to_normalized(endurance);
    let mut session = ssd.into_session(std::sync::Arc::new(*w));
    session.steady_state(cutoff);
    let mut records: Vec<CommandRecord> = (0..split).map_while(|_| session.step()).collect();
    let copy = session.duplicate();
    let _ = session.finish();

    let report = drain(copy, &mut records);
    (report, records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any fault schedule × topology × workload is byte-deterministic
    /// across repeated runs and across an arbitrary capture→fork split
    /// point — the campaign's determinism contract, stated as a property.
    #[test]
    fn fault_schedules_are_byte_deterministic_across_runs_and_forks(
        channels in prop::sample::select(vec![1u32, 2]),
        ways in prop::sample::select(vec![1u32, 2]),
        seed in 1u64..1_000,
        read_disturb in prop::sample::select(vec![0.0f64, 0.02, 0.25]),
        retention in prop::sample::select(vec![1.0f64, 2.0, 4.0]),
        retire_limit in prop::sample::select(vec![u64::MAX, 1, 3]),
        endurance in prop::sample::select(vec![0.0f64, 0.8]),
        pattern in prop::sample::select(vec![
            AccessPattern::SequentialWrite,
            AccessPattern::RandomWrite,
            AccessPattern::RandomRead,
        ]),
        commands in 24u64..72,
        power_loss_num in 0u64..=10,
        split_num in 0u64..=10,
    ) {
        // power_loss_num 0 disables the fault; 1..=10 spreads the trigger
        // across the stream (including past the end, where it never fires).
        let power_loss_at = match power_loss_num {
            0 => u64::MAX,
            n => commands * (n - 1) / 9 + 1,
        };
        let faults = FaultConfig {
            read_disturb_per_read: read_disturb,
            retention_scale: retention,
            retire_pe_limit: retire_limit,
            power_loss_at,
        };
        let cfg = config(channels, ways, seed, faults);
        let w = workload(pattern, commands, seed ^ 0xfa17);
        let cutoff = SteadyStateCutoff::Commands(commands / 4);
        // split ranges over 0..=commands+epsilon: 10/10 maps past the end.
        let split = commands * split_num / 9;

        let (first_report, first_records) = continuous(&cfg, &w, endurance, cutoff);
        let (second_report, second_records) = continuous(&cfg, &w, endurance, cutoff);
        prop_assert_eq!(&second_report, &first_report, "repeated runs diverged");
        prop_assert_eq!(&second_records, &first_records);

        let (fork_report, fork_records) = split_run(&cfg, &w, endurance, cutoff, split);
        prop_assert_eq!(
            &fork_report, &first_report,
            "fork diverged at split {} with power loss at {}", split, power_loss_at
        );
        prop_assert_eq!(&fork_records, &first_records);

        let (dup_report, dup_records) = duplicate_run(&cfg, &w, endurance, cutoff, split);
        prop_assert_eq!(
            &dup_report, &first_report,
            "duplicate diverged at split {} with power loss at {}", split, power_loss_at
        );
        prop_assert_eq!(&dup_records, &first_records);
    }
}

/// The power-loss trigger keys on the snapshot-encoded command cursor, so
/// capturing and forking — or duplicating — immediately before, at, or
/// after the trigger replays the outage exactly once — never twice, never
/// zero times.
#[test]
fn forking_around_the_power_loss_trigger_is_equivalent() {
    let faults = FaultConfig {
        power_loss_at: 16,
        ..FaultConfig::healthy()
    };
    let cfg = config(2, 2, 77, faults);
    let w = workload(AccessPattern::RandomWrite, 48, 77);
    let cutoff = SteadyStateCutoff::Commands(8);
    let (cold_report, cold_records) = continuous(&cfg, &w, 0.0, cutoff);
    for split in [15, 16, 17] {
        let (report, records) = split_run(&cfg, &w, 0.0, cutoff, split);
        assert_eq!(
            report, cold_report,
            "power-loss replay diverged when forked at command {split}"
        );
        assert_eq!(records, cold_records);
        let (report, records) = duplicate_run(&cfg, &w, 0.0, cutoff, split);
        assert_eq!(
            report, cold_report,
            "power-loss replay diverged when duplicated at command {split}"
        );
        assert_eq!(records, cold_records);
    }
}

/// A degraded device is still a *different* device: the same platform with
/// and without an aggressive fault schedule must not produce identical
/// reports (otherwise the injection is silently wired to nothing).
#[test]
fn fault_schedules_actually_change_the_simulation() {
    let healthy = config(2, 2, 9, FaultConfig::healthy());
    let degraded = config(
        2,
        2,
        9,
        FaultConfig {
            read_disturb_per_read: 0.5,
            retention_scale: 4.0,
            retire_pe_limit: 1,
            power_loss_at: 24,
        },
    );
    let w = workload(AccessPattern::RandomWrite, 96, 9);
    let cutoff = SteadyStateCutoff::None;
    let (healthy_report, _) = continuous(&healthy, &w, 0.8, cutoff);
    let (degraded_report, _) = continuous(&degraded, &w, 0.8, cutoff);
    assert_ne!(
        healthy_report, degraded_report,
        "an aggressive fault schedule must be observable in the report"
    );
}
