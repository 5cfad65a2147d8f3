//! `fig6-seqwrite`: the paper's Fig. 6 simulation-speed method.
//!
//! Each round simulates every Table III configuration (C1–C8, 128 KiB
//! steady-state write buffer, WAF-mode FTL) under one long sequential
//! 4 KiB write stream through `Ssd::session(..).finish()`, on one thread.
//! Each configuration point is one request. Every repeat's report must be
//! byte-identical to the first. The first round warms caches and the
//! allocator and is left out of the timings.

use crate::layers::{self, Profile};
use crate::report::peak_rss_mb;
use crate::stats::median;
use crate::{Ctx, Outcome};
use ssdx_core::configs::table3_configs;
use ssdx_core::{FtlMode, PerfReport, Ssd, SsdConfig};
use ssdx_hostif::{AccessPattern, Workload};
use ssdx_server::WorkloadSpec;
use ssdx_sim::Frequency;
use std::time::{Duration, Instant};

/// Host commands per configuration point: long enough that one point
/// takes a few hundred milliseconds, so warm-up and timer noise vanish.
const COMMANDS: u64 = 250_000;
/// Rounds measured even when `--seconds` is shorter.
const MIN_ROUNDS: usize = 3;

pub fn configs(seed: u64) -> Vec<SsdConfig> {
    table3_configs()
        .into_iter()
        .map(|mut cfg| {
            cfg.dram_buffer_capacity = 128 * 1024;
            cfg.ftl_mode = FtlMode::WafAbstraction;
            cfg.seed = seed;
            cfg
        })
        .collect()
}

pub fn workload(seed: u64) -> Workload {
    Workload::builder(AccessPattern::SequentialWrite)
        .block_size(4096)
        .command_count(COMMANDS)
        .seed(seed)
        .build()
}

/// One configuration's run within a round.
struct Point {
    setup: Duration,
    simulate: Duration,
}

/// Every round does identical, deterministic work, and host noise on a
/// shared machine comes in stretches of seconds. So, like the Fig. 6
/// baseline, the figures take each configuration's least-disturbed run
/// (a point lasts about 0.2 s, short enough to fall in a quiet stretch).
struct Best {
    setup: Duration,
    simulate: Duration,
    /// Each configuration's fastest point, set-up included.
    point_s: Vec<f64>,
}

fn best(rounds: &[Vec<Point>]) -> Best {
    let mut out = Best {
        setup: Duration::ZERO,
        simulate: Duration::ZERO,
        point_s: Vec::new(),
    };
    for c in 0..rounds[0].len() {
        let runs = || rounds.iter().map(|r| &r[c]);
        let fastest = |f: fn(&Point) -> Duration| runs().map(f).min().expect("at least one round");
        out.setup += fastest(|p| p.setup);
        out.simulate += fastest(|p| p.simulate);
        out.point_s
            .push(fastest(|p| p.setup + p.simulate).as_secs_f64());
    }
    out
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let configs = configs(ctx.seed);
    let workload = workload(ctx.seed);
    let clock = Frequency::from_mhz(200);
    let mut out = Outcome::default();
    let mut references: Vec<Option<String>> = vec![None; configs.len()];
    let mut reports: Vec<Option<PerfReport>> = vec![None; configs.len()];
    let (mut commands, mut cycles) = (0, 0);
    let mut rounds = Vec::new();
    let mut traced_rounds = Vec::new();

    let started = Instant::now();
    let mut warm_up = true;
    while rounds.len() + traced_rounds.len() < MIN_ROUNDS || started.elapsed() < ctx.seconds {
        // A traced run alternates traced and untraced rounds, so the two
        // speeds it compares ran under the same conditions.
        let traced = ctx.traced() && rounds.len() > traced_rounds.len();
        let mut round = Vec::with_capacity(configs.len());
        for (i, cfg) in configs.iter().enumerate() {
            let tracer = &mut ctx.tracer;
            let span = traced.then(|| tracer.open("ssd.point"));
            let t0 = Instant::now();
            let mut ssd = Ssd::try_new(cfg.clone()).map_err(|e| format!("{}: {e}", cfg.name))?;
            let t1 = Instant::now();
            let session = ssd.session(&workload);
            let t2 = Instant::now();
            let report = session.finish();
            let t3 = Instant::now();
            if let Some(span) = span {
                tracer.record("ssd.try_new", t0, t1);
                tracer.record("session.open", t1, t2);
                tracer.record("session.finish", t2, t3);
                tracer.close(span);
            }
            round.push(Point {
                setup: t2 - t0,
                simulate: t3 - t2,
            });
            let text = format!("{report:?}");
            match &references[i] {
                Some(reference) => out.checks.check(*reference == text, || {
                    format!("{}: a repeat's report differs from the first", cfg.name)
                }),
                None => {
                    commands += report.commands;
                    cycles += clock.time_to_cycles(report.elapsed);
                    references[i] = Some(text);
                    reports[i] = Some(report);
                }
            }
        }
        if warm_up {
            warm_up = false;
        } else if traced {
            traced_rounds.push(round);
        } else {
            rounds.push(round);
        }
    }

    let cmds_per_s = |b: &Best| commands as f64 / b.simulate.as_secs_f64();
    let untraced = best(&rounds);
    let m = &mut out.metrics;
    if !ctx.traced() {
        m.put("setup_s", untraced.setup.as_secs_f64(), "s");
        m.put("sim_cmds_per_s", cmds_per_s(&untraced), "1/s");
        m.put(
            "sim_kcps",
            cycles as f64 / 1e3 / untraced.simulate.as_secs_f64(),
            "kcycles/s",
        );
        let total: f64 = untraced.point_s.iter().sum();
        m.put("points_per_s", configs.len() as f64 / total, "1/s");
        m.put("request_p50_ms", median(&untraced.point_s) * 1e3, "ms");
        m.put("peak_rss_mb", peak_rss_mb("self"), "MiB");
        return Ok(out);
    }

    let traced = best(&traced_rounds);
    m.put(
        "trace.sim_cmds_per_s_untraced",
        cmds_per_s(&untraced),
        "1/s",
    );
    m.put("trace.sim_cmds_per_s_traced", cmds_per_s(&traced), "1/s");
    m.put(
        "trace.overhead_cmds_per_s",
        cmds_per_s(&traced) - cmds_per_s(&untraced),
        "1/s",
    );
    // C8 (8192 dies) is the configuration whose platform build and
    // first-touch die state the layer figures should explain.
    let c8 = configs.len() - 1;
    let report = reports[c8].take().expect("every configuration ran");
    let probe_cfg = configs[0].clone();
    let profile = Profile {
        config: configs[c8].clone(),
        source: &workload,
        report: &report,
    };
    layers::platform(ctx, &profile, &mut out)?;
    layers::ftl(ctx, &profile, &mut out);
    layers::components(ctx, &profile, &mut out);
    let explorer = ssdx_core::Explorer::new(configs[0].clone())
        .over(ssdx_core::Axis::configs("config", configs.clone()));
    layers::sweep_level(ctx, &explorer, &workload, &mut out)?;
    let spec = WorkloadSpec::Basic {
        pattern: AccessPattern::SequentialWrite,
        block_size: 4096,
        command_count: layers::PROBE_COMMANDS,
        footprint_bytes: 1 << 30,
        seed: ctx.seed,
    };
    layers::service_probe(ctx, &probe_cfg.to_text(), &spec, &mut out)?;
    layers::wire(ctx, &report, &mut out);
    layers::model(&report, &mut out.metrics);
    Ok(out)
}
