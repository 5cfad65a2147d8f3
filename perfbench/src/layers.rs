//! Per-layer figures for the traced run.
//!
//! Every function here times calls into one crate's public items from the
//! benchmark's own code, under a span named after the layer, and is driven
//! by the workload's own inputs: its representative configuration, its
//! command stream and the op counts its `PerfReport` shows. No program
//! code is instrumented.

use crate::report::Metrics;
use crate::service::{self, ServerProcess};
use crate::stats::{mean, median, quantile, NsHistogram};
use crate::{Ctx, Outcome};
use ssdx_channel::{ChannelConfig, ChannelController};
use ssdx_core::{
    CommandClass, Explorer, LatencyHistogram, PageAllocator, ParallelExecutor, PerfReport,
    SimSession, Snapshot, Ssd, SsdConfig,
};
use ssdx_cpu::CpuModel;
use ssdx_dram::{AccessKind, DramBuffer};
use ssdx_ftl::PageMappedFtl;
use ssdx_hostif::{CommandSource, HostOp};
use ssdx_interconnect::{AhbBus, AhbConfig};
use ssdx_nand::{NandDie, NandOp, OnfiBus, PageAddr};
use ssdx_server::{frame, Client, Response, WorkloadSpec};
use ssdx_sim::{Resource, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// Commands of each session the service probe drives.
pub const PROBE_COMMANDS: u64 = 4096;
/// Completions per `Step` request, on the probe and the service workload.
pub const STEP_COMMANDS: u64 = 256;
/// Bounds on the ops one component microbenchmark issues.
const MIN_OPS: u64 = 20_000;
const MAX_OPS: u64 = 400_000;

/// The workload's representative platform, stream and report.
pub struct Profile<'a> {
    pub config: SsdConfig,
    pub source: &'a (dyn CommandSource + Sync),
    pub report: &'a PerfReport,
}

fn ops(count: u64) -> u64 {
    count.clamp(MIN_OPS, MAX_OPS)
}

fn us(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Times `f` `n` times under a span, returning nanoseconds per call.
fn per_call_ns(ctx: &mut Ctx, span: &'static str, n: u64, mut f: impl FnMut(u64)) -> f64 {
    let id = ctx.tracer.open(span);
    let start = Instant::now();
    for i in 0..n {
        f(i);
    }
    let ns = start.elapsed().as_nanos() as f64 / n.max(1) as f64;
    ctx.tracer.close(id);
    ns
}

/// Median of `repeats` timings of `f`, in microseconds, under a span each.
fn median_us<T>(
    ctx: &mut Ctx,
    span: &'static str,
    repeats: usize,
    mut f: impl FnMut() -> T,
) -> (f64, T) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        let id = ctx.tracer.open(span);
        let start = Instant::now();
        let value = black_box(f());
        times.push(us(start));
        ctx.tracer.close(id);
        last = Some(value);
    }
    (median(&times), last.expect("at least one repeat"))
}

/// `ssd`, `session`, `hostif`, `snapshot` and `metrics`: platform build,
/// session open, stream materialisation, one full session stepped call by
/// call, and a mid-stream snapshot's capture, decode and fork.
pub fn platform(ctx: &mut Ctx, p: &Profile<'_>, out: &mut Outcome) -> Result<(), String> {
    let cfg = &p.config;
    let m = &mut out.metrics;
    let (try_new_us, _) = median_us(ctx, "ssd.try_new", 5, || Ssd::try_new(cfg.clone()));
    m.put("ssd.try_new_us", try_new_us, "us");
    let mut ssd = Ssd::try_new(cfg.clone()).map_err(|e| e.to_string())?;
    let (open_us, _) = median_us(ctx, "session.open", 5, || ssd.session(p.source).remaining());
    m.put("session.open_us", open_us, "us");
    let (commands_us, len) = median_us(ctx, "hostif.commands", 5, || p.source.commands().len());
    m.put(
        "hostif.commands_ns_per_cmd",
        commands_us * 1e3 / len.max(1) as f64,
        "ns",
    );

    // One session stepped call by call.
    let mut steps = NsHistogram::new();
    let mut latencies = Vec::with_capacity(len);
    let mut session = ssd.session(p.source);
    let id = ctx.tracer.open("session.steps");
    loop {
        let start = Instant::now();
        let record = session.step();
        steps.record(start.elapsed().as_nanos() as u64);
        match record {
            Some(record) => latencies.push(record.latency()),
            None => break,
        }
    }
    ctx.tracer.close(id);
    let id = ctx.tracer.open("session.finish");
    let start = Instant::now();
    let report = session.finish();
    let finish_us = us(start);
    ctx.tracer.close(id);
    out.checks
        .check(format!("{report:?}") == format!("{:?}", p.report), || {
            "a session stepped call by call differs from finish()".to_string()
        });
    m.put("session.step_ns_p50", steps.quantile(0.5), "ns");
    m.put("session.step_ns_p99", steps.quantile(0.99), "ns");
    m.put("session.steps", steps.count() as f64, "count");
    m.put("session.finish_us", finish_us, "us");

    let rounds = (1_000_000 / latencies.len().max(1)).max(1) as u64;
    let ns = per_call_ns(ctx, "metrics.hist_record", rounds, |_| {
        let mut h = LatencyHistogram::new();
        for &l in &latencies {
            h.record(black_box(l));
        }
        black_box(h.count());
    });
    m.put(
        "metrics.hist_record_ns",
        ns / latencies.len().max(1) as f64,
        "ns",
    );

    // A snapshot a quarter of the way into the stream.
    let mut session = ssd.session(p.source);
    for _ in 0..len / 4 {
        session.step();
    }
    let (capture_us, image) = median_us(ctx, "snapshot.capture", 5, || session.capture());
    drop(session);
    let bytes = image.into_bytes();
    m.put("snapshot.capture_us", capture_us, "us");
    m.put("snapshot.bytes", bytes.len() as f64, "bytes");
    let (from_bytes_us, image) = median_us(ctx, "snapshot.from_bytes", 5, || {
        Snapshot::from_bytes(&bytes).map_err(|e| e.to_string())
    });
    let image = image?;
    m.put("snapshot.from_bytes_us", from_bytes_us, "us");
    let (fork_us, forked) = median_us(ctx, "snapshot.fork", 5, || {
        SimSession::fork(&mut ssd, p.source, &image).map(|s| s.completed())
    });
    out.checks.check(forked == Ok(len as u64 / 4), || {
        "a fork did not resume at the captured cursor".to_string()
    });
    m.put("snapshot.fork_us", fork_us, "us");
    Ok(())
}

/// `ftl`: the workload's LPN stream replayed into a `PageMappedFtl` sized
/// the way a page-mapped session sizes it.
pub fn ftl(ctx: &mut Ctx, p: &Profile<'_>, out: &mut Outcome) {
    let cfg = &p.config;
    let commands = p.source.commands();
    let page_bytes = cfg.nand.geometry.page_size_bytes;
    let ppb = cfg.nand.geometry.pages_per_block;
    let max_end = commands
        .iter()
        .map(|c| c.offset + c.bytes as u64)
        .max()
        .unwrap_or(page_bytes as u64);
    let logical_pages = max_end.div_ceil(page_bytes as u64).max(1);
    let op = cfg.waf.over_provisioning;
    let blocks = ((logical_pages as f64 * (1.0 + op) / ppb as f64).ceil() as u32).max(8) + 8;
    let mut ftl = PageMappedFtl::new(blocks, ppb, op).with_retire_limit(cfg.faults.retire_pe_limit);

    let id = ctx.tracer.open("ftl.replay");
    let (mut write_ns, mut writes, mut read_ns, mut reads) = (0u128, 0u64, 0u128, 0u64);
    let mut failures = 0u64;
    for cmd in commands.iter() {
        let first = cmd.offset / page_bytes as u64;
        for lpn in first..first + cmd.bytes.div_ceil(page_bytes).max(1) as u64 {
            let start = Instant::now();
            match cmd.op {
                HostOp::Write => {
                    failures += u64::from(black_box(ftl.write(lpn)).is_err());
                    write_ns += start.elapsed().as_nanos();
                    writes += 1;
                }
                HostOp::Read => {
                    failures += u64::from(black_box(ftl.read(lpn)).is_err());
                    read_ns += start.elapsed().as_nanos();
                    reads += 1;
                }
                HostOp::Trim => failures += u64::from(ftl.trim(lpn).is_err()),
            }
        }
    }
    if reads == 0 {
        // A write-only stream: read back what it wrote.
        for cmd in commands.iter().take(MAX_OPS as usize) {
            let start = Instant::now();
            failures += u64::from(black_box(ftl.read(cmd.offset / page_bytes as u64)).is_err());
            read_ns += start.elapsed().as_nanos();
            reads += 1;
        }
    }
    ctx.tracer.close(id);
    out.checks.check(failures == 0, || {
        format!("{failures} FTL operations failed")
    });
    let stats = ftl.stats();
    let m = &mut out.metrics;
    m.put("ftl.write_ns", write_ns as f64 / writes.max(1) as f64, "ns");
    m.put("ftl.read_ns", read_ns as f64 / reads.max(1) as f64, "ns");
    m.put("ftl.host_writes", stats.host_writes as f64, "count");
    m.put("ftl.gc_relocations", stats.gc_relocations as f64, "count");
    m.put("ftl.erases", stats.erases as f64, "count");
    m.put(
        "ftl.wear_level_moves",
        stats.wear_level_moves as f64,
        "count",
    );
    m.put("ftl.waf", stats.waf(), "ratio");
}

/// `channel`, `nand`, `dram`, `cpu`, `ahb`, `sim` and `ecc`: each
/// component driven on its own with the op counts and sizes the
/// workload's report shows (clamped to a bounded count).
pub fn components(ctx: &mut Ctx, p: &Profile<'_>, out: &mut Outcome) {
    let cfg = &p.config;
    let geo = cfg.nand.geometry;
    let raw_page = geo.raw_page_bytes();
    let channel_cfg = ChannelConfig::new(cfg.ways, cfg.dies_per_way)
        .with_gang(cfg.gang)
        .with_onfi(OnfiBus::new(cfg.onfi_speed));
    let mut channel = ChannelController::new(0, channel_cfg, cfg.nand, cfg.seed);
    let mut allocator = PageAllocator::new(cfg);
    let step = SimTime::from_us(1);
    let mut now = SimTime::ZERO;
    let m = &mut out.metrics;

    // First touch: one program on every die of a fresh channel.
    let id = ctx.tracer.open("channel.first_touch");
    let mut first_ns = Vec::new();
    for way in 0..cfg.ways {
        for die in 0..cfg.dies_per_way {
            let addr = PageAddr {
                plane: 0,
                block: 0,
                page: 0,
            };
            let start = Instant::now();
            black_box(channel.execute(now, way, die, NandOp::Program, addr, raw_page));
            first_ns.push(start.elapsed().as_nanos() as f64);
            now += step;
        }
    }
    ctx.tracer.close(id);
    m.put("channel.first_touch_ns", mean(&first_ns), "ns");

    let programs = ops(p.report.nand_page_programs);
    let targets: Vec<_> = (0..programs).map(|_| allocator.next_write()).collect();
    let ns = per_call_ns(ctx, "channel.program", programs, |i| {
        let t = targets[i as usize];
        now += step;
        black_box(channel.execute(now, t.way, t.die, NandOp::Program, t.addr, raw_page));
    });
    m.put("channel.program_ns", ns, "ns");
    let reads = ops(p.report.nand_page_reads);
    let targets: Vec<_> = (0..reads).map(|lpn| allocator.locate(lpn)).collect();
    let ns = per_call_ns(ctx, "channel.read", reads, |i| {
        let t = targets[i as usize];
        now += step;
        black_box(channel.execute(now, t.way, t.die, NandOp::Read, t.addr, raw_page));
    });
    m.put("channel.read_ns", ns, "ns");
    let erases = ops(p.report.nand_page_programs / geo.pages_per_block as u64);
    let ns = per_call_ns(ctx, "channel.erase", erases, |i| {
        let t = targets[i as usize % targets.len()];
        let addr = PageAddr { page: 0, ..t.addr };
        now += step;
        black_box(channel.execute(now, t.way, t.die, NandOp::Erase, addr, 0));
    });
    m.put("channel.erase_ns", ns, "ns");

    let mut die = NandDie::new(0, cfg.nand, cfg.seed);
    let pages_per_plane = geo.blocks_per_plane as u64 * geo.pages_per_block as u64;
    let ns = per_call_ns(ctx, "nand.execute", programs, |i| {
        let page = i % pages_per_plane;
        let addr = PageAddr {
            plane: 0,
            block: (page / geo.pages_per_block as u64) as u32,
            page: (page % geo.pages_per_block as u64) as u32,
        };
        now += step;
        black_box(die.execute(now, NandOp::Program, addr));
    });
    m.put("nand.die_execute_ns", ns, "ns");

    let commands = p.source.commands();
    let host_ops = ops(p.report.commands);
    let mut dram = DramBuffer::new(0, cfg.dram_timings);
    let (mut hits, mut bursts) = (0u64, 0u64);
    let mut at = SimTime::ZERO;
    let ns = per_call_ns(ctx, "dram.access", host_ops, |i| {
        let cmd = &commands[i as usize % commands.len()];
        let kind = if cmd.op == HostOp::Read {
            AccessKind::Read
        } else {
            AccessKind::Write
        };
        let outcome = dram.access(at, cmd.offset, cmd.bytes, kind);
        at = outcome.end;
        hits += outcome.row_hits as u64;
        bursts += outcome.bursts as u64;
    });
    m.put("dram.access_ns", ns, "ns");
    m.put(
        "dram.row_hit_ratio",
        hits as f64 / bursts.max(1) as f64,
        "ratio",
    );
    m.put("dram.bursts", bursts as f64, "count");

    let mut cpu = CpuModel::new(cfg.firmware);
    let mut at = SimTime::ZERO;
    let ns = per_call_ns(ctx, "cpu.execute", host_ops, |_| {
        at = black_box(cpu.execute_command_overhead(black_box(at))).end;
    });
    m.put("cpu.execute_ns", ns, "ns");

    let desc_bytes = 4 * cpu.bus_accesses_per_task() * 4;
    let mut ahb = AhbBus::new(AhbConfig::paper_default());
    let cores = cfg.cpu_cores.max(1);
    let mut at = SimTime::ZERO;
    let ns = per_call_ns(ctx, "ahb.transfer", host_ops, |i| {
        at = black_box(ahb.transfer(black_box(at), (i % cores as u64) as u32, 0, desc_bytes)).end;
    });
    m.put("ahb.transfer_ns", ns, "ns");

    let mut link = Resource::new("host-link");
    let mut at = SimTime::ZERO;
    let ns = per_call_ns(ctx, "sim.reserve", host_ops, |i| {
        at = black_box(link.reserve(black_box(at), SimTime::from_ns(100 + i % 7))).start;
    });
    m.put("sim.reserve_ns", ns, "ns");

    let page_bytes = geo.page_size_bytes;
    let ns = per_call_ns(ctx, "ecc.encode", programs, |i| {
        black_box(cfg.ecc.encode_latency_for(page_bytes, black_box(i % 3000)));
    });
    m.put("ecc.encode_ns", ns, "ns");
    let ns = per_call_ns(ctx, "ecc.decode", reads, |i| {
        let raw = (i % 64) as f64 * 0.5;
        black_box(
            cfg.ecc
                .decode_latency_for(page_bytes, black_box(i % 3000), raw),
        );
    });
    m.put("ecc.decode_ns", ns, "ns");
}

/// `explorer`, `sweepjob` and `parallel`: warm-start capture, every job
/// timed on its own, and the same jobs through the parallel executor.
pub fn sweep_level<S: CommandSource + Sync + ?Sized>(
    ctx: &mut Ctx,
    explorer: &Explorer,
    source: &S,
    out: &mut Outcome,
) -> Result<(), String> {
    let id = ctx.tracer.open("explorer.warmed_jobs");
    let start = Instant::now();
    let jobs = explorer.warmed_jobs(source).map_err(|e| e.to_string())?;
    let warmed_s = start.elapsed().as_secs_f64();
    ctx.tracer.close(id);

    let executor = ParallelExecutor::with_threads(ctx.threads);
    let id = ctx.tracer.open("parallel.execute_jobs");
    let start = Instant::now();
    let points = executor
        .execute_jobs(&jobs, source)
        .map_err(|e| e.to_string())?;
    let run_s = start.elapsed().as_secs_f64();
    ctx.tracer.close(id);

    let mut job_s = Vec::with_capacity(jobs.len());
    for (job, parallel) in jobs.iter().zip(&points) {
        let id = ctx.tracer.open("sweepjob.execute");
        let start = Instant::now();
        let point = job.execute(source).map_err(|e| e.to_string())?;
        job_s.push(start.elapsed().as_secs_f64());
        ctx.tracer.close(id);
        out.checks
            .check(format!("{point:?}") == format!("{parallel:?}"), || {
                format!(
                    "{}: the parallel point differs from a sequential one",
                    job.point_label()
                )
            });
    }
    let workers = executor.workers_for(jobs.len());
    let sum: f64 = job_s.iter().sum();
    let max = quantile(&job_s, 1.0);
    let m = &mut out.metrics;
    m.put("explorer.warmed_jobs_s", warmed_s, "s");
    m.put("sweepjob.execute_s_p50", quantile(&job_s, 0.5), "s");
    m.put("sweepjob.execute_s_max", max, "s");
    m.put("parallel.run_s", run_s, "s");
    m.put("parallel.workers", workers as f64, "count");
    m.put("parallel.job_s_sum", sum, "s");
    m.put(
        "parallel.efficiency",
        sum / (workers as f64 * run_s),
        "ratio",
    );
    m.put("parallel.imbalance", max / mean(&job_s), "ratio");
    Ok(())
}

/// Client-observed latency of each verb, by verb.
#[derive(Default)]
pub struct VerbTimes {
    pub create_ms: Vec<f64>,
    pub step_ms: Vec<f64>,
    pub report_ms: Vec<f64>,
    pub fork_ms: Vec<f64>,
    pub close_ms: Vec<f64>,
}

impl VerbTimes {
    pub fn merge(&mut self, other: VerbTimes) {
        self.create_ms.extend(other.create_ms);
        self.step_ms.extend(other.step_ms);
        self.report_ms.extend(other.report_ms);
        self.fork_ms.extend(other.fork_ms);
        self.close_ms.extend(other.close_ms);
    }
}

/// `server`: per-verb client latencies, and the same step work done
/// in-process on the session's image (`step_local`); their difference is
/// the socket and queueing share (`step_wait`).
pub fn server_metrics(times: &VerbTimes, local_ms: &[f64], m: &mut Metrics) {
    let step_p50 = quantile(&times.step_ms, 0.5);
    let local_p50 = quantile(local_ms, 0.5);
    m.put(
        "server.create_ms_p50",
        quantile(&times.create_ms, 0.5),
        "ms",
    );
    m.put("server.step_ms_p50", step_p50, "ms");
    m.put("server.step_ms_p99", quantile(&times.step_ms, 0.99), "ms");
    m.put("server.step_samples", times.step_ms.len() as f64, "count");
    m.put(
        "server.report_ms_p50",
        quantile(&times.report_ms, 0.5),
        "ms",
    );
    m.put("server.fork_ms_p50", quantile(&times.fork_ms, 0.5), "ms");
    m.put("server.step_local_ms_p50", local_p50, "ms");
    m.put("server.step_wait_ms_p50", step_p50 - local_p50, "ms");
}

/// The in-process equivalent of `Step` requests on one session image:
/// `from_bytes`, `fork`, `STEP_COMMANDS` steps and `capture`, repeated
/// until the stream ends. Returns each request's milliseconds.
pub fn local_steps(
    ctx: &mut Ctx,
    config_text: &str,
    spec: &WorkloadSpec,
    image: Vec<u8>,
) -> Result<Vec<f64>, String> {
    let config = SsdConfig::from_text(config_text).map_err(|e| e.to_string())?;
    let source = spec.build()?;
    let mut ssd = Ssd::try_new(config).map_err(|e| e.to_string())?;
    let mut image = image;
    let mut times = Vec::new();
    loop {
        let id = ctx.tracer.open("server.step_local");
        let start = Instant::now();
        let snapshot = Snapshot::from_bytes(&image).map_err(|e| e.to_string())?;
        let mut session =
            SimSession::fork(&mut ssd, source.as_ref(), &snapshot).map_err(|e| e.to_string())?;
        for _ in 0..STEP_COMMANDS {
            if session.step().is_none() {
                break;
            }
        }
        let done = session.is_done();
        image = session.capture().into_bytes();
        drop(session);
        times.push(start.elapsed().as_secs_f64() * 1e3);
        ctx.tracer.close(id);
        if done {
            return Ok(times);
        }
    }
}

/// Times one request and records it under a span.
pub fn timed<T>(
    ctx: &mut Ctx,
    span: &'static str,
    into: &mut Vec<f64>,
    f: impl FnOnce() -> T,
) -> T {
    let id = ctx.tracer.open(span);
    let start = Instant::now();
    let value = f();
    into.push(start.elapsed().as_secs_f64() * 1e3);
    ctx.tracer.close(id);
    value
}

/// The server path for a workload that does not run it: one session of
/// the workload's kind created, stepped through, reported, forked and
/// closed on a freshly spawned server, then the same steps in-process.
pub fn service_probe(
    ctx: &mut Ctx,
    config_text: &str,
    spec: &WorkloadSpec,
    out: &mut Outcome,
) -> Result<(), String> {
    let server = ServerProcess::spawn(1)?;
    let mut times = VerbTimes::default();
    let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    let e = |e: ssdx_server::ClientError| e.to_string();
    let session = timed(ctx, "server.create", &mut times.create_ms, || {
        client.create_session(config_text, spec)
    })
    .map_err(e)?;
    let image = client.capture_snapshot(session).map_err(e)?;
    loop {
        let progress = timed(ctx, "server.step", &mut times.step_ms, || {
            client.step(session, STEP_COMMANDS)
        })
        .map_err(e)?;
        if progress.remaining == 0 {
            break;
        }
    }
    let report = timed(ctx, "server.report", &mut times.report_ms, || {
        client.fetch_report(session)
    })
    .map_err(e)?;
    out.checks
        .merge(service::check_report(config_text, spec, &report)?);
    let child = timed(ctx, "server.fork", &mut times.fork_ms, || {
        client.fork(session)
    })
    .map_err(e)?;
    client.close_session(child).map_err(e)?;
    client.close_session(session).map_err(e)?;
    drop(client);
    server.stop()?;
    let local = local_steps(ctx, config_text, spec, image)?;
    server_metrics(&times, &local, &mut out.metrics);
    Ok(())
}

/// `proto` and `frame`: the workload's report as a `Report` response,
/// encoded, decoded and sent through a frame round trip in memory.
pub fn wire(ctx: &mut Ctx, report: &PerfReport, out: &mut Outcome) {
    let response = Response::Report {
        session: 1,
        report: Box::new(report.clone()),
    };
    let n = 2_000;
    let bytes = response.encode();
    let encode_ns = per_call_ns(ctx, "proto.encode", n, |_| {
        black_box(black_box(&response).encode());
    });
    let mut ok = true;
    let decode_ns = per_call_ns(ctx, "proto.decode", n, |_| {
        ok &= matches!(
            Response::decode(black_box(&bytes)),
            Ok(Response::Report { .. })
        );
    });
    let mut buf = Vec::with_capacity(bytes.len() + 16);
    let frame_ns = per_call_ns(ctx, "frame.roundtrip", n, |_| {
        buf.clear();
        let written = frame::write_frame(&mut buf, &bytes);
        let read = frame::read_frame(&mut buf.as_slice(), frame::MAX_FRAME_BYTES);
        ok &= written.is_ok() && matches!(read, Ok(Some(p)) if p.len() == bytes.len());
    });
    out.checks.check(ok, || {
        "a report did not survive encode/decode/framing".to_string()
    });
    let m = &mut out.metrics;
    m.put("proto.encode_us", encode_ns / 1e3, "us");
    m.put("proto.decode_us", decode_ns / 1e3, "us");
    m.put("proto.report_bytes", bytes.len() as f64, "bytes");
    m.put("frame.roundtrip_us", frame_ns / 1e3, "us");
}

/// The modelled (simulated-time) counters of the workload's report. They
/// repeat exactly for a seed; a change that only speeds the simulator up
/// must leave them bit-identical.
pub fn model(report: &PerfReport, m: &mut Metrics) {
    let u = &report.utilization;
    m.put(
        "model.nand_page_programs",
        report.nand_page_programs as f64,
        "count",
    );
    m.put(
        "model.nand_page_reads",
        report.nand_page_reads as f64,
        "count",
    );
    m.put("model.waf", report.waf, "ratio");
    m.put("model.util_host_link", u.host_link, "ratio");
    m.put("model.util_dram", u.dram, "ratio");
    m.put("model.util_cpu", u.cpu, "ratio");
    m.put("model.util_ahb", u.ahb, "ratio");
    m.put("model.util_channel_bus", u.channel_bus, "ratio");
    m.put("model.util_die", u.die, "ratio");
    m.put("model.sim_elapsed_s", report.elapsed.as_secs_f64(), "sim_s");
    m.put("model.throughput_mbps", report.throughput_mbps, "MB/s");
    let p99 = |class| report.tail_quantile(class, 0.99).as_us_f64();
    m.put("model.read_p99_us", p99(CommandClass::Read), "sim_us");
    m.put("model.write_p99_us", p99(CommandClass::Write), "sim_us");
}
