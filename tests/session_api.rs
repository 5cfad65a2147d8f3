//! Integration tests for the session-based execution API: `CommandSource`
//! genericity, `SimSession` step/finish equivalence and the order of the
//! records and samples a step loop reads.

use proptest::prelude::*;
use ssdexplorer::core::{
    Axis, Explorer, FtlMode, ParallelExecutor, PerfReport, SimSession, Ssd, SsdConfig,
    SteadyStateCutoff,
};
use ssdexplorer::hostif::{
    source_fn, AccessPattern, CommandSource, CommandStream, HostCommand, HostOp, StreamBounds,
    TracePlayer, Workload, ZipfianWorkload,
};
use ssdexplorer::sim::SimTime;
use std::borrow::Cow;
use std::sync::Arc;

fn small_config(name: &str) -> SsdConfig {
    SsdConfig::builder(name)
        .topology(4, 2, 2)
        .dram_buffers(4)
        .dram_buffer_capacity(128 * 1024)
        .build()
        .expect("valid test configuration")
}

fn fingerprint(report: &PerfReport) -> String {
    format!("{report:?}")
}

#[test]
fn step_records_and_snapshots_arrive_in_order() {
    let w = Workload::builder(AccessPattern::SequentialWrite)
        .command_count(160)
        .build();
    let mut ssd = Ssd::new(small_config("ordering"));
    let mut session = ssd.session(&w);
    let mut next_index = 0;
    let mut snapshots_seen = 0;
    while let Some(record) = session.step() {
        assert_eq!(record.index, next_index, "records arrive in stream order");
        assert!(record.completed_at >= record.admitted_at);
        next_index += 1;
        if session.completed() % 50 == 0 {
            let snapshot = session.snapshot();
            assert_eq!(
                snapshot.commands_completed, next_index,
                "snapshots reflect the commands already returned"
            );
            snapshots_seen += 1;
        }
    }
    assert!(
        session.step().is_none(),
        "an exhausted session stays exhausted"
    );
    let report = session.finish();

    assert_eq!(next_index, 160);
    assert_eq!(snapshots_seen, 3);
    assert_eq!(report.commands, 160, "finish reports every stepped command");
}

#[test]
fn closure_sources_run_through_the_same_pipeline_as_explicit_streams() {
    let generator = source_fn("gen", 128, |i| HostCommand {
        id: i,
        op: HostOp::Write,
        offset: i * 4096,
        bytes: 4096,
        issue_at: SimTime::ZERO,
    });
    let explicit = CommandStream::new("gen", generator.commands().into_owned());
    let a = Ssd::new(small_config("closure")).simulate(&generator);
    let b = Ssd::new(small_config("closure")).simulate(&explicit);
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn boxed_dyn_sources_are_accepted() {
    let sources: Vec<Box<dyn CommandSource>> = vec![
        Box::new(
            Workload::builder(AccessPattern::SequentialWrite)
                .command_count(32)
                .build(),
        ),
        Box::new(TracePlayer::parse("0 write 0 4096\n1 read 0 4096\n").unwrap()),
    ];
    let mut ssd = Ssd::new(small_config("dyn"));
    for source in &sources {
        let report = ssd.simulate(source.as_ref());
        assert!(report.commands > 0);
    }
}

/// A Zipfian source that refuses to list its stream: anything that still
/// collected a whole stream would panic here.
struct Unlisted(ZipfianWorkload);

impl CommandSource for Unlisted {
    fn label(&self) -> String {
        self.0.label()
    }

    fn len(&self) -> u64 {
        self.0.len()
    }

    fn command(&self, index: u64) -> HostCommand {
        self.0.command(index)
    }

    fn bounds(&self) -> StreamBounds {
        self.0.bounds()
    }

    fn random_write_fraction(&self) -> f64 {
        self.0.random_write_fraction()
    }

    fn commands(&self) -> Cow<'_, [HostCommand]> {
        panic!("the platform must read commands by index, never list the stream")
    }
}

/// Session, fork, owned duplicate, warm-started `Explorer` and
/// `ParallelExecutor` all run without ever listing the stream, and give
/// the reports the listing source gives.
#[test]
fn no_platform_path_lists_the_whole_stream() {
    let zipf = || {
        ZipfianWorkload::new(0.9, 5)
            .command_count(600)
            .footprint_bytes(8 << 20)
            .read_fraction(0.3)
    };
    let unlisted = Unlisted(zipf());
    let reference = zipf();
    let mut cfg = small_config("unlisted");
    cfg.ftl_mode = FtlMode::PageMapped;

    let expected = Ssd::new(cfg.clone()).simulate(&reference);
    assert_eq!(
        fingerprint(&Ssd::new(cfg.clone()).session(&unlisted).finish()),
        fingerprint(&expected)
    );

    let image = {
        let mut ssd = Ssd::new(cfg.clone());
        let mut session = ssd.session(&unlisted);
        for _ in 0..250 {
            session.step();
        }
        session.capture()
    };
    let mut ssd = Ssd::new(cfg.clone());
    let forked = SimSession::fork(&mut ssd, &unlisted, &image).expect("fork");
    assert_eq!(fingerprint(&forked.finish()), fingerprint(&expected));

    let mut owned = Ssd::new(cfg.clone()).into_session(Arc::new(Unlisted(zipf())));
    for _ in 0..250 {
        owned.step();
    }
    let copy = owned.duplicate();
    assert_eq!(fingerprint(&owned.finish()), fingerprint(&expected));
    assert_eq!(fingerprint(&copy.finish()), fingerprint(&expected));

    // Two replicas per seed, so every point forks from a warmup image.
    let explorer = Explorer::new(cfg)
        .over(Axis::over("seed", [1u64, 2, 3], |cfg, &s| cfg.seed = s))
        .over(Axis::new("replica").point("a", |_| {}).point("b", |_| {}))
        .warm_start(SteadyStateCutoff::Commands(200));
    let sweep = |s: &dyn CommandSource| {
        let sequential = explorer.run(s).expect("sweep");
        let parallel = ParallelExecutor::with_threads(2)
            .run(&explorer, s)
            .expect("sweep");
        (
            format!("{:?}", sequential.points),
            format!("{:?}", parallel.points),
        )
    };
    let (sequential, parallel) = sweep(&unlisted);
    assert_eq!(sequential, parallel);
    assert_eq!(sequential, sweep(&reference).0);
}

proptest! {
    // Full-pipeline properties are expensive; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole equivalence: stepping a session to completion is
    /// byte-identical to the one-shot path, for every pattern, topology and
    /// seed, including an interleaving of step() and run_until().
    #[test]
    fn stepped_sessions_are_byte_identical_to_one_shot_runs(
        channels in 1u32..5,
        ways in 1u32..4,
        pattern_idx in 0usize..4,
        commands in 32u64..160,
        seed in any::<u64>(),
    ) {
        let pattern = AccessPattern::all()[pattern_idx];
        let config = || {
            SsdConfig::builder("prop-session")
                .topology(channels, ways, 2)
                .dram_buffers(channels)
                .dram_buffer_capacity(64 * 1024)
                .build()
                .expect("topology is valid")
        };
        let w = Workload::builder(pattern)
            .command_count(commands)
            .footprint_bytes(32 << 20)
            .seed(seed)
            .build();

        let one_shot = Ssd::new(config()).simulate(&w);

        let mut ssd = Ssd::new(config());
        let mut session = ssd.session(&w);
        // Interleave the driving styles: a few manual steps, a deadline
        // chunk, then drain via finish().
        for _ in 0..commands / 4 {
            prop_assert!(session.step().is_some());
        }
        session.run_until(session.now() + SimTime::from_us(200));
        let stepped = session.finish();

        prop_assert_eq!(fingerprint(&one_shot), fingerprint(&stepped));
    }

    /// Session accounting stays consistent at every step.
    #[test]
    fn session_progress_counters_always_add_up(
        commands in 16u64..96,
        pattern_idx in 0usize..4,
    ) {
        let pattern = AccessPattern::all()[pattern_idx];
        let w = Workload::builder(pattern)
            .command_count(commands)
            .footprint_bytes(16 << 20)
            .build();
        let mut ssd = Ssd::new(small_config("prop-counters"));
        let mut session = ssd.session(&w);
        let mut last_now = SimTime::ZERO;
        let mut seen = 0u64;
        while let Some(record) = session.step() {
            prop_assert_eq!(record.index, seen);
            seen += 1;
            prop_assert_eq!(session.completed(), seen);
            prop_assert_eq!(session.completed() + session.remaining(), commands);
            // The session clock never runs backwards.
            prop_assert!(session.now() >= last_now);
            last_now = session.now();
        }
        prop_assert!(session.is_done());
        let report = session.finish();
        prop_assert_eq!(report.commands, commands);
        prop_assert_eq!(report.elapsed, last_now);
    }
}
