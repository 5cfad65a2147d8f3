//! Property and integration tests for the tail-latency metrics subsystem.
//!
//! The log-bucketed [`LatencyHistogram`] trades exactness for fixed memory
//! and zero allocations; these properties pin the trade precisely: every
//! quantile it reports is within one bucket's relative error
//! (`LatencyHistogram::RELATIVE_ERROR`) above the exact sorted-vector
//! quantile, and `merge` is exact — associative, commutative and
//! indistinguishable from having recorded every sample into one histogram.
//! The integration half asserts the end-to-end flow: a session records
//! each completion exactly once, the tail-latency study is deterministic
//! byte for byte and its per-class counts match the workload mixes that
//! produced them.

use proptest::prelude::*;
use ssdexplorer::core::{
    metrics, ClassHistograms, CommandClass, CommandRecord, LatencyHistogram, Ssd, SsdConfig,
    SteadyStateCutoff,
};
use ssdexplorer::hostif::{CommandSource, HostOp, RmwWorkload, ZipfianWorkload};
use ssdexplorer::sim::SimTime;

/// Exact quantile of a sorted sample vector, using the same rank convention
/// as the histogram (`ceil(q * n)`, clamped to at least rank 1).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil().max(1.0)) as usize;
    sorted[rank - 1]
}

/// Samples spanning every histogram regime: exact sub-32 ns values,
/// microsecond-scale latencies and multi-second outliers. Bounded below
/// `u64::MAX / 1000` so `SimTime::from_ns` cannot overflow.
fn sample_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            0u64..64,
            64u64..100_000,
            100_000u64..10_000_000_000,
            10_000_000_000u64..1_000_000_000_000_000,
        ],
        1..300,
    )
}

fn histogram_of(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &ns in samples {
        h.record(SimTime::from_ns(ns));
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn quantiles_match_exact_quantiles_within_one_bucket(samples in sample_strategy()) {
        let h = histogram_of(&samples);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&sorted, q);
            let approx = h.quantile(q).as_ns();
            // The histogram resolves to the upper bound of the bucket
            // holding the rank, clamped to the observed maximum: never
            // below the exact value, and above it by at most one bucket's
            // relative error (1/32 of the value, +1 for integer rounding).
            prop_assert!(approx >= exact, "q={q}: approx {approx} < exact {exact}");
            let bound = exact + exact / 32 + 1;
            prop_assert!(
                approx <= bound,
                "q={q}: approx {approx} > error bound {bound} (exact {exact})"
            );
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.min().as_ns(), sorted[0]);
        prop_assert_eq!(h.max().as_ns(), sorted[sorted.len() - 1]);
    }

    #[test]
    fn merge_is_associative_and_order_independent(
        a in sample_strategy(),
        b in sample_strategy(),
        c in sample_strategy(),
    ) {
        let (ha, hb, hc) = (histogram_of(&a), histogram_of(&b), histogram_of(&c));

        // (a ∪ b) ∪ c == a ∪ (b ∪ c), comparing full histogram state.
        let mut left = ha;
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb;
        bc.merge(&hc);
        let mut right = ha;
        right.merge(&bc);
        prop_assert_eq!(left, right);

        // a ∪ b == b ∪ a.
        let mut ab = ha;
        ab.merge(&hb);
        let mut ba = hb;
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);

        // Merging shards is indistinguishable from one big recording pass.
        let mut all: Vec<u64> = a.clone();
        all.extend(&b);
        let one_pass = histogram_of(&all);
        prop_assert_eq!(ab, one_pass);

        // The empty histogram is the merge identity.
        let mut with_empty = one_pass;
        with_empty.merge(&LatencyHistogram::new());
        prop_assert_eq!(with_empty, one_pass);
    }
}

/// Per-class histograms rebuilt post-hoc from a session's step records,
/// admitting only the records past `warmup`.
fn class_histograms(records: &[CommandRecord], warmup: SteadyStateCutoff) -> ClassHistograms {
    let mut classes = ClassHistograms::new();
    for r in records {
        if warmup.admits(r.index, r.completed_at) {
            classes.record(r.command.op, r.latency());
        }
    }
    classes
}

fn cutoff_strategy() -> impl Strategy<Value = SteadyStateCutoff> {
    prop_oneof![
        Just(SteadyStateCutoff::None),
        (0u64..200).prop_map(SteadyStateCutoff::Commands),
        (0u64..2_000).prop_map(|us| SteadyStateCutoff::SimulatedTime(SimTime::from_us(us))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A session records each completion once: into its steady-state class
    /// when the cutoff admits it, into the warmup otherwise. The whole-run
    /// report histogram is the two together, so it equals a histogram
    /// rebuilt from every completion record, whatever the cutoff.
    #[test]
    fn every_completion_is_recorded_exactly_once(
        commands in 1u64..160,
        read_fraction in prop::sample::select(vec![0.0, 0.3, 0.7, 1.0]),
        seed in 0u64..1_000,
        cutoff in cutoff_strategy(),
    ) {
        let zipf = ZipfianWorkload::new(0.9, seed)
            .command_count(commands)
            .footprint_bytes(8 << 20)
            .read_fraction(read_fraction);
        let config = SsdConfig::builder("record-once")
            .topology(2, 2, 1)
            .seed(seed)
            .build()
            .unwrap();
        let mut ssd = Ssd::try_new(config).unwrap();
        let mut session = ssd.session(&zipf);
        session.steady_state(cutoff);
        let records: Vec<CommandRecord> = std::iter::from_fn(|| session.step()).collect();
        let report = session.finish();

        prop_assert_eq!(records.len() as u64, commands);
        prop_assert_eq!(report.latency.count(), commands);
        prop_assert!(report.class_latency.count() <= commands);
        let mut rebuilt = LatencyHistogram::new();
        for record in &records {
            rebuilt.record(record.latency());
        }
        prop_assert_eq!(*report.latency, rebuilt);
        prop_assert_eq!(*report.class_latency, class_histograms(&records, cutoff));
    }
}

#[test]
fn tail_latency_study_is_deterministic_byte_for_byte() {
    let base = SsdConfig::builder("tails-det")
        .topology(4, 2, 2)
        .dram_buffers(4)
        .dram_buffer_capacity(128 * 1024)
        .build()
        .unwrap();
    let run = || {
        metrics::tail_latency_study(&base, 1_024, SteadyStateCutoff::Commands(128))
            .expect("the study configuration validates")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.to_table(), b.to_table());
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(format!("{:?}", a.sweep), format!("{:?}", b.sweep));

    // Four workloads, in suite order, led by the workload axis.
    assert_eq!(a.sweep.axes, vec!["workload".to_string()]);
    let labels: Vec<_> = a
        .sweep
        .points
        .iter()
        .map(|p| p.value("workload").unwrap().to_string())
        .collect();
    assert_eq!(labels, vec!["zipf-0.99", "bursty", "mixed", "rmw"]);
    // Every workload reports all four headline percentiles for each class
    // it actually exercises, monotonically ordered.
    for point in &a.sweep.points {
        let tails = point.report.tails();
        assert!(tails.iter().any(|t| t.count > 0));
        for tail in tails.into_iter().filter(|t| t.count > 0) {
            assert!(tail.p50 <= tail.p95);
            assert!(tail.p95 <= tail.p99);
            assert!(tail.p99 <= tail.p999);
            assert!(tail.p999 <= tail.max);
        }
    }
}

#[test]
fn study_class_counts_match_the_workload_mixes() {
    let base = SsdConfig::builder("tails-counts")
        .topology(4, 2, 2)
        .dram_buffers(4)
        .build()
        .unwrap();
    let commands = 1_024;
    let warmup = 128;
    let study =
        metrics::tail_latency_study(&base, commands, SteadyStateCutoff::Commands(warmup)).unwrap();
    for point in &study.sweep.points {
        let read = point.report.tail(CommandClass::Read).count;
        let write = point.report.tail(CommandClass::Write).count;
        let trim = point.report.tail(CommandClass::Trim).count;
        assert_eq!(
            read + write + trim,
            commands - warmup,
            "{}: every post-warmup completion lands in exactly one class",
            point.label()
        );
        assert_eq!(trim, 0, "the generative suite issues no trims");
    }
    // The rmw point must split exactly half-and-half: one read + one write
    // per update, and the warmup trims matching halves of each.
    let rmw = study
        .sweep
        .points
        .iter()
        .find(|p| p.value("workload") == Some("rmw"))
        .unwrap();
    assert_eq!(
        rmw.report.tail(CommandClass::Read).count,
        rmw.report.tail(CommandClass::Write).count
    );
}

#[test]
fn session_tails_agree_with_an_exact_reference() {
    // Drive one zipfian session and recompute every percentile from the
    // raw per-command records: the histogram answer must sit within its
    // documented error bound of the exact answer.
    let zipf = ZipfianWorkload::new(0.9, 7)
        .command_count(1_500)
        .footprint_bytes(64 << 20)
        .read_fraction(0.6);
    let mut ssd = ssdexplorer::core::Ssd::try_new(
        SsdConfig::builder("tails-exact")
            .topology(4, 2, 2)
            .dram_buffers(4)
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut session = ssd.session(&zipf);
    let records: Vec<CommandRecord> = std::iter::from_fn(|| session.step()).collect();
    let report = session.finish();

    for class in [CommandClass::Read, CommandClass::Write] {
        let mut exact: Vec<u64> = records
            .iter()
            .filter(|r| CommandClass::from(r.command.op) == class)
            .map(|r| r.latency().as_ns())
            .collect();
        exact.sort_unstable();
        let tail = report.tail(class);
        assert_eq!(tail.count, exact.len() as u64);
        for (q, approx) in [(0.5, tail.p50), (0.99, tail.p99), (0.999, tail.p999)] {
            let reference = exact_quantile(&exact, q);
            let approx = approx.as_ns();
            assert!(approx >= reference);
            assert!(
                approx <= reference + reference / 32 + 1,
                "{class:?} q={q}: {approx} vs exact {reference}"
            );
        }
    }
}

#[test]
fn generative_sources_feed_any_simulation_entry_point() {
    // The suite's sources are ordinary CommandSources: one-shot simulate,
    // stepped sessions and sweeps all accept them.
    let rmw = RmwWorkload::new(3).updates(64).footprint_bytes(8 << 20);
    let mut ssd = ssdexplorer::core::Ssd::try_new(SsdConfig::default()).unwrap();
    let one_shot = ssd.simulate(&rmw);
    assert_eq!(one_shot.commands, 128);
    assert_eq!(one_shot.workload, "rmw");

    let mut classes = ClassHistograms::new();
    for op in [HostOp::Read, HostOp::Write] {
        classes.record(op, SimTime::from_us(10));
    }
    assert_eq!(classes.count(), 2);

    // Stepping reproduces the one-shot run byte for byte (the session
    // contract), generative sources included.
    let mut ssd2 = ssdexplorer::core::Ssd::try_new(SsdConfig::default()).unwrap();
    let mut session = ssd2.session(&rmw);
    while session.step().is_some() {}
    let stepped = session.finish();
    assert_eq!(format!("{one_shot:?}"), format!("{stepped:?}"));
    assert_eq!(one_shot.class_latency, stepped.class_latency);
    assert_eq!(CommandSource::commands(&rmw).len(), 128);
}
