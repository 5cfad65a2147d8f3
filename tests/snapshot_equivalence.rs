//! Snapshot, fork and warm-start equivalence suite.
//!
//! The snapshot codec's correctness claim is behavioural, not structural:
//! a run forked from a captured image must be indistinguishable — byte for
//! byte — from the continuous run that never stopped. Every test here pins
//! some face of that claim:
//!
//! * **Fork ≡ continuous** (property): across arbitrary topologies, FTL
//!   modes, workloads and split points, splitting a session at command *k*
//!   via [`SimSession::capture`]/[`SimSession::fork`] — or copying an
//!   owned session in memory with [`SimSession::duplicate`] — reproduces
//!   the continuous run's `PerfReport` `Debug` rendering and the complete
//!   stream of [`CommandRecord`]s its step loop returns, exactly.
//! * **Codec robustness** (property): an image round-trips
//!   state-identically (capture → fork → capture yields the same bytes),
//!   and truncated, bit-flipped or arbitrary byte strings decode to `Err`
//!   without ever panicking.
//! * **Golden format pin**: `tests/golden/snapshot_v2.bin` is a committed
//!   version-2 image; any change to the wire format fails the comparison
//!   until `SNAPSHOT_VERSION` is bumped and the fixture regenerated. The
//!   retired `tests/golden/snapshot_v1.bin` must be refused as an
//!   unsupported version, never misparsed.
//! * **Warm-start ≡ cold** : an [`Explorer`] sweep with
//!   [`warm_start`](Explorer::warm_start) forks every point of a group of
//!   identical points from one shared warmup image, runs a point no other
//!   point repeats cold, and still produces byte-identical sweeps —
//!   sequentially and through the [`ParallelExecutor`] at 1, 2, 4 and 8
//!   threads — while provably running the warmup once per group.
//! * **Inventory blindness guard**: every crate in the ssdx-lint layering
//!   table appears in [`STATE_INVENTORY`], so a new crate with mutable
//!   state cannot be silently forgotten by the snapshot.

use proptest::prelude::*;
use ssdx_core::{
    Axis, CommandRecord, Explorer, FtlMode, ParallelExecutor, SimSession, Snapshot, Ssd, SsdConfig,
    SteadyStateCutoff, SNAPSHOT_VERSION, STATE_INVENTORY,
};
use ssdx_hostif::{AccessPattern, Workload};
use ssdx_sim::codec::DecodeError;
use std::sync::Arc;

fn config(channels: u32, ways: u32, seed: u64, ftl: FtlMode) -> SsdConfig {
    SsdConfig::builder("snap")
        .topology(channels, ways, 1)
        .dram_buffers(channels)
        .dram_buffer_capacity(128 * 1024)
        .ftl_mode(ftl)
        .seed(seed)
        .build()
        .expect("the swept snapshot topologies validate")
}

fn workload(pattern: AccessPattern, commands: u64, seed: u64) -> Workload {
    Workload::builder(pattern)
        .command_count(commands)
        .footprint_bytes(4 << 20)
        .seed(seed)
        .build()
}

/// Steps `session` to the end of its stream, appending every completion
/// record to `records`, and returns the report rendering.
fn drain(mut session: SimSession<'_>, records: &mut Vec<CommandRecord>) -> String {
    records.extend(std::iter::from_fn(|| session.step()));
    format!("{:?}", session.finish())
}

/// Runs the full stream in one session, returning the report rendering and
/// every completion record.
fn continuous(
    cfg: &SsdConfig,
    w: &Workload,
    cutoff: SteadyStateCutoff,
) -> (String, Vec<CommandRecord>) {
    let mut ssd = Ssd::try_new(cfg.clone()).unwrap();
    let mut session = ssd.session(w);
    session.steady_state(cutoff);
    let mut records = Vec::new();
    let report = drain(session, &mut records);
    (report, records)
}

/// Runs `split` commands, captures, then forks a fresh platform from the
/// image and finishes there. Returns the forked run's report rendering,
/// the concatenated completion records of both halves, and the image.
fn split_run(
    cfg: &SsdConfig,
    w: &Workload,
    cutoff: SteadyStateCutoff,
    split: u64,
) -> (String, Vec<CommandRecord>, Snapshot) {
    let mut ssd = Ssd::try_new(cfg.clone()).unwrap();
    let mut session = ssd.session(w);
    session.steady_state(cutoff);
    let mut records: Vec<CommandRecord> = (0..split).map_while(|_| session.step()).collect();
    let image = session.capture();

    let mut forked = Ssd::try_new(cfg.clone()).unwrap();
    let session = SimSession::fork(&mut forked, w, &image)
        .expect("a freshly captured image forks onto an identical platform");
    let report = drain(session, &mut records);
    (report, records, image)
}

/// Runs `split` commands on a session that owns its platform, copies it in
/// memory with [`SimSession::duplicate`], runs the original to the end (which
/// must not move the copy), then finishes the copy. Returns the copy's report
/// rendering and the concatenated completion records of both halves.
fn duplicate_run(
    cfg: &SsdConfig,
    w: &Workload,
    cutoff: SteadyStateCutoff,
    split: u64,
) -> (String, Vec<CommandRecord>) {
    let mut session = Ssd::try_new(cfg.clone())
        .unwrap()
        .into_session(std::sync::Arc::new(*w));
    session.steady_state(cutoff);
    let mut records: Vec<CommandRecord> = (0..split).map_while(|_| session.step()).collect();
    let copy = session.duplicate();
    let _ = session.finish();

    let report = drain(copy, &mut records);
    (report, records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The heart of the suite: fork-at-k equals never-stopping, for
    /// arbitrary platforms, workloads and split points — including split
    /// at 0 (fork before the first command) and past the end (fork of a
    /// finished session).
    #[test]
    fn fork_is_byte_identical_to_the_continuous_run(
        channels in prop::sample::select(vec![1u32, 2, 4]),
        ways in prop::sample::select(vec![1u32, 2]),
        seed in 1u64..1_000,
        ftl_mode in prop::sample::select(vec![FtlMode::WafAbstraction, FtlMode::PageMapped]),
        pattern in prop::sample::select(vec![
            AccessPattern::SequentialWrite,
            AccessPattern::RandomWrite,
            AccessPattern::RandomRead,
            AccessPattern::SequentialRead,
        ]),
        commands in 24u64..72,
        split_num in 0u64..=10,
    ) {
        let cfg = config(channels, ways, seed, ftl_mode);
        let w = workload(pattern, commands, seed ^ 0x5eed);
        let cutoff = SteadyStateCutoff::Commands(commands / 4);
        // split ranges over 0..=commands+epsilon: 10/10 maps past the end.
        let split = commands * split_num / 9;

        let (cold_report, cold_records) = continuous(&cfg, &w, cutoff);
        let (fork_report, fork_records, _) = split_run(&cfg, &w, cutoff, split);
        let (dup_report, dup_records) = duplicate_run(&cfg, &w, cutoff, split);

        prop_assert_eq!(&fork_report, &cold_report, "PerfReport diverged at split {}", split);
        prop_assert_eq!(&fork_records, &cold_records, "completion records diverged");
        prop_assert_eq!(&dup_report, &cold_report, "duplicate diverged at split {}", split);
        prop_assert_eq!(&dup_records, &cold_records, "duplicate records diverged");
    }

    /// Capture → fork → capture is a fixed point: the re-captured image is
    /// byte-identical, so every snapshot field round-trips exactly.
    #[test]
    fn capture_round_trips_to_identical_bytes(
        seed in 1u64..1_000,
        ftl_mode in prop::sample::select(vec![FtlMode::WafAbstraction, FtlMode::PageMapped]),
        split in 1u64..48,
    ) {
        let cfg = config(2, 2, seed, ftl_mode);
        let w = workload(AccessPattern::RandomWrite, 48, seed);
        let mut ssd = Ssd::try_new(cfg.clone()).unwrap();
        let image = {
            let mut session = ssd.session(&w);
            for _ in 0..split {
                session.step();
            }
            session.capture()
        };
        let mut forked = Ssd::try_new(cfg).unwrap();
        let session = SimSession::fork(&mut forked, &w, &image).unwrap();
        let again = session.capture();
        prop_assert_eq!(image.to_bytes(), again.to_bytes());
    }

    /// Truncating an image anywhere strictly before its end yields `Err`
    /// from header validation or from the fork — never a panic, never a
    /// silently resumed session.
    #[test]
    fn truncated_images_error_and_never_panic(
        seed in 1u64..500,
        cut_num in 0u64..=100,
    ) {
        let cfg = config(2, 1, seed, FtlMode::WafAbstraction);
        let w = workload(AccessPattern::SequentialWrite, 24, seed);
        let (_, _, image) = split_run(&cfg, &w, SteadyStateCutoff::None, 12);
        let full = image.to_bytes();
        let cut = (full.len() as u64 - 1) * cut_num / 100;
        let truncated = full[..cut as usize].to_vec();

        let failed = match Snapshot::from_bytes(&truncated) {
            Err(_) => true,
            Ok(snap) => {
                let mut ssd = Ssd::try_new(cfg).unwrap();
                SimSession::fork(&mut ssd, &w, &snap).is_err()
            }
        };
        prop_assert!(failed, "a truncated image must not restore");
    }

    /// Bit flips decode to `Err` or to a state the decoder's semantic
    /// validation accepted — either way, no panic and no corruption of the
    /// decode machinery. (A flip inside a plain counter payload can be
    /// indistinguishable from a legitimately different run; the contract
    /// is *never panic*, not *detect every flip* — the format carries no
    /// checksum by design, see ARCHITECTURE.md.)
    #[test]
    fn bit_flipped_images_never_panic(
        seed in 1u64..500,
        flip_num in 0u64..=997,
    ) {
        let cfg = config(2, 1, seed, FtlMode::PageMapped);
        let w = workload(AccessPattern::RandomWrite, 24, seed);
        let (_, _, image) = split_run(&cfg, &w, SteadyStateCutoff::None, 12);
        let mut bytes = image.to_bytes().to_vec();
        let bit = flip_num % (bytes.len() as u64 * 8);
        bytes[(bit / 8) as usize] ^= 1 << (bit % 8);

        if let Ok(snap) = Snapshot::from_bytes(&bytes) {
            let mut ssd = Ssd::try_new(cfg).unwrap();
            let _ = SimSession::fork(&mut ssd, &w, &snap);
        }
    }

    /// Arbitrary byte strings never decode: without the magic/version
    /// header they fail [`Snapshot::from_bytes`]; with a forged header the
    /// fork's signature and semantic validation reject them. No input
    /// panics.
    #[test]
    fn arbitrary_bytes_error_and_never_panic(
        body in prop::collection::vec(any::<u8>(), 0..256),
        forge_header in any::<bool>(),
    ) {
        let bytes = if forge_header {
            let mut forged = b"SSDX".to_vec();
            forged.push(SNAPSHOT_VERSION);
            forged.extend_from_slice(&body);
            forged
        } else {
            body
        };
        let cfg = config(2, 1, 7, FtlMode::WafAbstraction);
        let w = workload(AccessPattern::SequentialWrite, 8, 7);
        let failed = match Snapshot::from_bytes(&bytes) {
            Err(_) => true,
            Ok(snap) => {
                let mut ssd = Ssd::try_new(cfg).unwrap();
                SimSession::fork(&mut ssd, &w, &snap).is_err()
            }
        };
        prop_assert!(failed, "random bytes must never restore a session");
    }
}

/// The replica explorer used by the warm-start legs: `replicas` identical
/// points (distinct labels, no-op mutators) over one platform, so all jobs
/// fall into a single warm-start group.
fn replica_explorer(replicas: usize, commands: u64, warm: bool) -> Explorer {
    let cfg = config(2, 2, 23, FtlMode::WafAbstraction);
    let mut axis = Axis::new("replica");
    for i in 0..replicas {
        axis = axis.point(format!("r{i}"), |_| {});
    }
    let warmup = SteadyStateCutoff::Commands(commands / 8 * 7);
    let mut explorer = Explorer::new(cfg)
        .over(axis)
        .steady_state(SteadyStateCutoff::Commands(commands / 8));
    if warm {
        explorer = explorer.warm_start(warmup);
    }
    explorer
}

/// Warm-start forks every replica from one shared image and the sweep —
/// sequential and parallel at 1, 2, 4 and 8 threads — stays byte-identical
/// to the cold run.
#[test]
fn warm_start_sweeps_are_byte_identical_at_every_thread_count() {
    const COMMANDS: u64 = 256;
    let w = workload(AccessPattern::RandomWrite, COMMANDS, 23);
    let cold = replica_explorer(4, COMMANDS, false).run(&w).unwrap();
    let warm_explorer = replica_explorer(4, COMMANDS, true);
    let warm = warm_explorer.run(&w).unwrap();
    assert_eq!(
        format!("{cold:?}"),
        format!("{warm:?}"),
        "sequential warm-start diverged"
    );
    for threads in [1, 2, 4, 8] {
        let parallel = ParallelExecutor::with_threads(threads)
            .run(&warm_explorer, &w)
            .unwrap();
        assert_eq!(
            format!("{cold:?}"),
            format!("{parallel:?}"),
            "warm-start diverged at {threads} threads"
        );
    }
}

/// Warmup runs once per group: every replica's job holds the *same* `Arc`
/// to the warmup image, a job whose configuration no other job shares
/// carries none and runs cold, and a sweep crossing a replica axis with a
/// configuration axis warms each replica pair once and still equals the
/// cold sweep at every thread count.
#[test]
fn warm_start_shares_one_image_per_configuration_group() {
    const COMMANDS: u64 = 64;
    let w = workload(AccessPattern::RandomWrite, COMMANDS, 23);
    let jobs = replica_explorer(3, COMMANDS, true).warmed_jobs(&w).unwrap();
    assert_eq!(jobs.len(), 3);
    let first = jobs[0].warm_image().expect("warm-start attaches an image");
    for job in &jobs[1..] {
        let image = job.warm_image().expect("every replica is warmed");
        assert!(
            Arc::ptr_eq(first, image),
            "replicas of one configuration must share one warmup image"
        );
    }

    // An axis that *does* mutate the configuration makes groups of one,
    // which have nothing to share a warmup with.
    let cfg = config(2, 2, 23, FtlMode::WafAbstraction);
    let seeds = Axis::over("seed", [1u64, 2], |c, &s| c.seed = s);
    let explorer = Explorer::new(cfg.clone())
        .over(seeds.clone())
        .warm_start(SteadyStateCutoff::Commands(8));
    let jobs = explorer.warmed_jobs(&w).unwrap();
    assert_eq!(jobs.len(), 2);
    assert!(
        jobs.iter().all(|job| job.warm_image().is_none()),
        "distinct configurations must run cold, without an image"
    );

    // Crossed with two replicas, each seed's pair shares one image.
    let replicas = Axis::new("replica").point("r0", |_| {}).point("r1", |_| {});
    let crossed = Explorer::new(cfg)
        .over(seeds)
        .over(replicas)
        .steady_state(SteadyStateCutoff::Commands(COMMANDS / 8));
    let warm = crossed
        .clone()
        .warm_start(SteadyStateCutoff::Commands(COMMANDS / 2));
    let jobs = warm.warmed_jobs(&w).unwrap();
    let image = |i: usize| jobs[i].warm_image().expect("every replica pair is warmed");
    assert_eq!(jobs.len(), 4);
    assert!(Arc::ptr_eq(image(0), image(1)) && Arc::ptr_eq(image(2), image(3)));
    assert!(
        !Arc::ptr_eq(image(0), image(2)),
        "different configurations must not share a warmup image"
    );
    let cold = crossed.run(&w).unwrap();
    for threads in [1, 2, 4, 8] {
        let parallel = ParallelExecutor::with_threads(threads)
            .run(&warm, &w)
            .unwrap();
        assert_eq!(
            format!("{cold:?}"),
            format!("{parallel:?}"),
            "warm-start diverged at {threads} threads"
        );
    }
}

/// Wall-clock sanity: with the warmup at 7/8 of the stream and 6 replicas,
/// the warm sweep simulates ~1.75 stream-lengths against the cold sweep's
/// 6, so it must be measurably faster. Generous margin: warm merely has to
/// beat cold, not hit the theoretical ratio. The wall clock is the
/// observable under test here — it never feeds a simulated outcome — so
/// the two `Instant` reads below carry `no-wall-clock` allows.
#[test]
fn warm_start_runs_the_warmup_once() {
    const COMMANDS: u64 = 4096;
    let w = workload(AccessPattern::RandomWrite, COMMANDS, 23);
    let cold_explorer = replica_explorer(6, COMMANDS, false);
    let warm_explorer = replica_explorer(6, COMMANDS, true);

    // Untimed passes first, so neither leg pays one-time warmup costs
    // (lazy wear maps, allocator pools) inside its measurement window.
    let cold_sweep = cold_explorer.run(&w).unwrap();
    let warm_sweep = warm_explorer.run(&w).unwrap();
    assert_eq!(format!("{cold_sweep:?}"), format!("{warm_sweep:?}"));

    // ssdx-lint::allow(no-wall-clock): the elapsed time IS the assertion —
    // warm-start exists to cut wall-clock cost, nothing simulated reads it.
    let started = std::time::Instant::now();
    let _ = cold_explorer.run(&w).unwrap();
    let cold_elapsed = started.elapsed();

    // ssdx-lint::allow(no-wall-clock): second leg of the same measurement.
    let started = std::time::Instant::now();
    let _ = warm_explorer.run(&w).unwrap();
    let warm_elapsed = started.elapsed();

    assert!(
        warm_elapsed < cold_elapsed,
        "warm-start re-ran the warmup: warm {warm_elapsed:?} vs cold {cold_elapsed:?}"
    );
}

/// Format pin: the canonical run below must keep producing the committed
/// version-2 image byte for byte. Any wire-format change — field order,
/// width, a new field — fails this comparison and therefore **must** bump
/// [`SNAPSHOT_VERSION`], regenerate the fixture (`REGENERATE_GOLDEN=1`,
/// renaming it to match the new version), and keep the old version's
/// rejection explicit in [`Snapshot::from_bytes`].
#[test]
fn golden_v2_image_still_decodes_and_still_matches() {
    const GOLDEN_PATH: &str = "tests/golden/snapshot_v2.bin";
    let cfg = config(2, 2, 42, FtlMode::PageMapped);
    let w = workload(AccessPattern::RandomWrite, 64, 42);
    let (_, _, image) = split_run(&cfg, &w, SteadyStateCutoff::Commands(8), 32);

    if std::env::var_os("REGENERATE_GOLDEN").is_some() {
        std::fs::create_dir_all("tests/golden").unwrap();
        std::fs::write(GOLDEN_PATH, image.to_bytes()).unwrap();
        eprintln!(
            "regenerated {GOLDEN_PATH} ({} bytes)",
            image.to_bytes().len()
        );
        return;
    }

    let golden = std::fs::read(GOLDEN_PATH)
        .expect("golden image missing — run with REGENERATE_GOLDEN=1 on a known-good tree");
    let golden = Snapshot::from_bytes(&golden).expect("the committed golden image decodes");
    assert_eq!(golden.version(), SNAPSHOT_VERSION);
    assert_eq!(
        golden.to_bytes(),
        image.to_bytes(),
        "the snapshot wire format changed: bump SNAPSHOT_VERSION and \
         regenerate the fixture under the new version's file name"
    );

    // The committed bytes are not just equal, they still *work*: forking
    // from the golden image finishes identically to the continuous run.
    let (cold_report, _) = continuous(&cfg, &w, SteadyStateCutoff::Commands(8));
    let mut ssd = Ssd::try_new(cfg).unwrap();
    let session = SimSession::fork(&mut ssd, &w, &golden).unwrap();
    let report = session.finish();
    assert_eq!(format!("{report:?}"), cold_report);
}

/// The retired version-1 golden image is refused by its version byte, not
/// misparsed: version 2 changed the AHB, resource and session sections, so
/// a version-1 image decoded as version 2 would be garbage.
#[test]
fn golden_v1_image_is_rejected_as_an_unsupported_version() {
    let v1 = std::fs::read("tests/golden/snapshot_v1.bin").expect("the retired v1 fixture exists");
    assert_eq!(&v1[..4], b"SSDX");
    assert_eq!(v1[4], 1);
    assert_eq!(
        Snapshot::from_bytes(&v1),
        Err(DecodeError::Invalid {
            offset: 4,
            what: "unsupported snapshot version",
        })
    );
}

/// Blindness guard: the snapshot's state inventory and the ssdx-lint
/// layering table must list exactly the same crates, so adding a crate to
/// the workspace forces an explicit snapshot-coverage decision (a carrier
/// type, or an audited "stateless" entry).
#[test]
fn state_inventory_covers_every_layered_crate() {
    let mut inventory: Vec<&str> = STATE_INVENTORY.iter().map(|e| e.crate_name).collect();
    let mut layered: Vec<&str> = ssdx_lint::LAYERS.iter().map(|c| c.name).collect();
    inventory.sort_unstable();
    layered.sort_unstable();
    assert_eq!(
        inventory, layered,
        "crates/core/src/snapshot.rs STATE_INVENTORY must cover exactly the \
         ssdx-lint LAYERS table: audit the new crate's mutable state and add \
         an entry (or prune the stale one)"
    );
}
