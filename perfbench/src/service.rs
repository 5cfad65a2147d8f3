//! `service-zipf-step`: the simulation service, driven over its socket.
//!
//! The built `ssdx-server` runs in its own process with one worker per
//! hardware thread. One client connection per hardware thread drives a
//! closed loop: create a page-mapped Zipfian session, step it to the end in
//! fixed `Step` slices, fetch its report, fork it once, close both. Every
//! remote report must be byte-identical to an in-process `Ssd::simulate`
//! of the same config text and `WorkloadSpec`, and every request must get
//! its reply.

use crate::layers::{self, Profile, VerbTimes, STEP_COMMANDS};
use crate::report::{peak_rss_mb, Checks};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};
use ssdx_core::configs::table2_configs;
use ssdx_core::{Explorer, FtlMode, PerfReport, Ssd, SsdConfig};
use ssdx_server::{Client, ClientError, WorkloadSpec};
use ssdx_sim::rng::SimRng;
use ssdx_sim::Frequency;
use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Commands per session: `SESSION_COMMANDS / STEP_COMMANDS` steps each.
const SESSION_COMMANDS: u64 = 16_384;
/// Distinct session streams, cycled through by the connections.
const POOL: usize = 8;
/// Server start-ups timed for `setup_s`.
const SETUP_REPEATS: usize = 3;

/// A spawned `ssdx-server` process, stopped (or killed) on drop.
pub struct ServerProcess {
    child: Child,
    addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl ServerProcess {
    /// Starts the server built beside this binary on an ephemeral port and
    /// waits until it listens.
    pub fn spawn(workers: usize) -> Result<ServerProcess, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let bin = exe.with_file_name("ssdx-server");
        let mut child = Command::new(&bin)
            .args([
                "--bind",
                "127.0.0.1:0",
                "--workers",
                &workers.to_string(),
                "--quiet",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let addr = line
            .strip_prefix("listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        let server = ServerProcess {
            child,
            addr: addr.unwrap_or_default(),
            _stdout: stdout,
        };
        if server.addr.is_empty() {
            return Err(format!("the server did not report its address: {line:?}"));
        }
        Ok(server)
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// Asks the server to shut down and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = Client::connect(&self.addr).and_then(|mut c| c.shutdown_server());
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return match (asked, status.success()) {
                    (Ok(()), true) => Ok(()),
                    (asked, _) => Err(format!("server shutdown: {asked:?}, exit {status}")),
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("the server did not exit after Shutdown".to_string())
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Compares a remote report with an in-process simulation of the same
/// config text and spec.
pub fn check_report(
    config_text: &str,
    spec: &WorkloadSpec,
    remote: &PerfReport,
) -> Result<Checks, String> {
    let mut checks = Checks::default();
    let local = simulate(config_text, spec)?;
    checks.check(format!("{remote:?}") == format!("{local:?}"), || {
        format!("remote report differs from in-process simulate for {spec:?}")
    });
    Ok(checks)
}

fn simulate(config_text: &str, spec: &WorkloadSpec) -> Result<PerfReport, String> {
    let config = SsdConfig::from_text(config_text).map_err(|e| e.to_string())?;
    let source = spec.build()?;
    let mut ssd = Ssd::try_new(config).map_err(|e| e.to_string())?;
    Ok(ssd.simulate(source.as_ref()))
}

pub fn config(seed: u64) -> SsdConfig {
    let mut cfg = table2_configs().swap_remove(0);
    cfg.ftl_mode = FtlMode::PageMapped;
    cfg.seed = seed;
    cfg
}

pub fn zipf_spec(seed: u64, command_count: u64) -> WorkloadSpec {
    WorkloadSpec::Zipfian {
        theta: 0.9,
        seed,
        command_count,
        block_size: 4096,
        footprint_bytes: 64 << 20,
        read_fraction: 0.3,
    }
}

/// One connection's tally.
#[derive(Default)]
struct Tally {
    times: VerbTimes,
    commands: u64,
    cycles: u64,
    sessions: u64,
    requests: u64,
    replies: u64,
    checks: Checks,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.times.merge(other.times);
        self.commands += other.commands;
        self.cycles += other.cycles;
        self.sessions += other.sessions;
        self.requests += other.requests;
        self.replies += other.replies;
        self.checks.merge(other.checks);
    }
}

struct Conn<'a> {
    client: Client,
    tracer: Tracer,
    tally: Tally,
    config_text: &'a str,
}

impl Conn<'_> {
    /// One request: counted, timed into `times`, and spanned.
    fn request<T>(
        &mut self,
        span: &'static str,
        times: fn(&mut VerbTimes) -> &mut Vec<f64>,
        f: impl FnOnce(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, String> {
        self.tally.requests += 1;
        let id = self.tracer.open(span);
        let start = Instant::now();
        let reply = f(&mut self.client);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.tracer.close(id);
        times(&mut self.tally.times).push(ms);
        let value = reply.map_err(|e| format!("{span}: {e}"))?;
        self.tally.replies += 1;
        Ok(value)
    }

    fn create(&mut self, spec: &WorkloadSpec) -> Result<u32, String> {
        let text = self.config_text;
        self.request(
            "server.create",
            |t| &mut t.create_ms,
            |c| c.create_session(text, spec),
        )
    }

    /// Drives `session` (already created) to the end, then reports, forks
    /// and closes it.
    fn complete(&mut self, session: u32, reference: &str) -> Result<(), String> {
        loop {
            let progress = self.request(
                "server.step",
                |t| &mut t.step_ms,
                |c| c.step(session, STEP_COMMANDS),
            )?;
            self.tally.commands += progress.executed;
            if progress.remaining == 0 {
                break;
            }
        }
        let report = self.request(
            "server.report",
            |t| &mut t.report_ms,
            |c| c.fetch_report(session),
        )?;
        self.tally
            .checks
            .check(format!("{report:?}") == reference, || {
                format!("session {session}: remote report differs from in-process simulate")
            });
        self.tally.cycles += Frequency::from_mhz(200).time_to_cycles(report.elapsed);
        let child = self.request("server.fork", |t| &mut t.fork_ms, |c| c.fork(session))?;
        self.request(
            "server.close",
            |t| &mut t.close_ms,
            |c| c.close_session(child),
        )?;
        self.request(
            "server.close",
            |t| &mut t.close_ms,
            |c| c.close_session(session),
        )?;
        self.tally.sessions += 1;
        Ok(())
    }
}

/// The closed loop: each connection completes its first (already created)
/// session, then creates and completes sessions until `deadline`.
fn drive(
    conns: Vec<(Conn<'_>, u32)>,
    specs: &[WorkloadSpec],
    references: &[String],
    deadline: Instant,
) -> Result<(Tally, Vec<Tracer>, Vec<Client>), String> {
    let stride = conns.len();
    let results: Vec<Result<Conn<'_>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(index, (mut conn, first))| {
                scope.spawn(move || {
                    conn.complete(first, &references[index % POOL])?;
                    let mut next = index + stride;
                    while Instant::now() < deadline {
                        let session = conn.create(&specs[next % POOL])?;
                        conn.complete(session, &references[next % POOL])?;
                        next += stride;
                    }
                    Ok(conn)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a connection thread panicked".into()))
            })
            .collect()
    });
    let mut tally = Tally::default();
    let mut tracers = Vec::new();
    let mut clients = Vec::new();
    for conn in results {
        let conn = conn?;
        tally.merge(conn.tally);
        tracers.push(conn.tracer);
        clients.push(conn.client);
    }
    Ok((tally, tracers, clients))
}

/// A running server, its connections (each with its first session
/// created), and how long getting there took.
type SetUp<'a> = (ServerProcess, Vec<(Conn<'a>, u32)>, Duration);

/// Spawns the server, connects one client per thread and creates each
/// connection's first session.
fn set_up<'a>(
    ctx: &Ctx,
    config_text: &'a str,
    specs: &[WorkloadSpec],
) -> Result<SetUp<'a>, String> {
    let start = Instant::now();
    let server = ServerProcess::spawn(ctx.threads)?;
    let mut conns = Vec::with_capacity(ctx.threads);
    for index in 0..ctx.threads {
        let client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
        let mut conn = Conn {
            client,
            tracer: ctx.tracer.fork(),
            tally: Tally::default(),
            config_text,
        };
        // The handshake inside `connect` is one request and its reply.
        conn.tally.requests += 1;
        conn.tally.replies += 1;
        let first = conn.create(&specs[index % POOL])?;
        conns.push((conn, first));
    }
    Ok((server, conns, start.elapsed()))
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let config = config(ctx.seed);
    let config_text = config.to_text();
    let mut rng = SimRng::new(ctx.seed);
    let specs: Vec<WorkloadSpec> = (0..POOL)
        .map(|_| zipf_spec(rng.next_u64(), SESSION_COMMANDS))
        .collect();
    let mut references = Vec::with_capacity(POOL);
    for spec in &specs {
        references.push(format!("{:?}", simulate(&config_text, spec)?));
    }

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for repeat in 0..SETUP_REPEATS {
        let (server, conns, took) = set_up(ctx, &config_text, &specs)?;
        setups.push(took.as_secs_f64());
        if repeat + 1 == SETUP_REPEATS {
            kept = Some((server, conns));
        } else {
            drop(conns);
            server.stop()?;
        }
    }
    let (server, mut conns) = kept.expect("at least one set-up");
    let mut out = Outcome::default();

    // A traced run measures the first half untraced and the second traced,
    // so the tracing overhead is the difference of two like windows.
    let mut windows = Vec::new();
    let halves: &[bool] = if ctx.traced() {
        &[false, true]
    } else {
        &[false]
    };
    let mut image = Vec::new();
    let mut traced_times = VerbTimes::default();
    for (window_index, &traced) in halves.iter().enumerate() {
        for (conn, _) in conns.iter_mut() {
            conn.tracer = if traced {
                ctx.tracer.fork()
            } else {
                Tracer::new(false)
            };
        }
        if traced {
            let (conn, first) = &mut conns[0];
            image = conn
                .client
                .capture_snapshot(*first)
                .map_err(|e| e.to_string())?;
        }
        let window = ctx.seconds / halves.len() as u32;
        let start = Instant::now();
        let (tally, tracers, clients) = drive(conns, &specs, &references, start + window)?;
        let elapsed = start.elapsed().as_secs_f64();
        for tracer in tracers {
            ctx.tracer.absorb(tracer);
        }
        windows.push(tally.commands as f64 / elapsed);
        out.checks.check(tally.requests == tally.replies, || {
            format!("{} requests but {} replies", tally.requests, tally.replies)
        });
        if !ctx.traced() {
            let steps = &tally.times.step_ms;
            let m = &mut out.metrics;
            m.put("setup_s", median(&setups), "s");
            m.put("sim_cmds_per_s", tally.commands as f64 / elapsed, "1/s");
            m.put("sim_kcps", tally.cycles as f64 / 1e3 / elapsed, "kcycles/s");
            m.put("points_per_s", tally.sessions as f64 / elapsed, "1/s");
            m.put("request_p50_ms", quantile(steps, 0.5), "ms");
            m.put("peak_rss_mb", server.peak_rss_mb(), "MiB");
            out.notes.push(format!(
                "request latency over {} Step requests: p50 {:.4} ms, p99 {:.4} ms",
                steps.len(),
                quantile(steps, 0.5),
                quantile(steps, 0.99)
            ));
        }
        out.checks.merge(tally.checks);
        traced_times = tally.times;
        // The next window starts afresh: one created session per connection.
        conns = Vec::new();
        if window_index + 1 < halves.len() {
            for (index, client) in clients.into_iter().enumerate() {
                let mut conn = Conn {
                    client,
                    tracer: Tracer::new(false),
                    tally: Tally::default(),
                    config_text: &config_text,
                };
                let first = conn.create(&specs[index % POOL])?;
                conns.push((conn, first));
            }
        }
    }
    server.stop()?;
    if !ctx.traced() {
        return Ok(out);
    }

    let m = &mut out.metrics;
    m.put("trace.sim_cmds_per_s_untraced", windows[0], "1/s");
    m.put("trace.sim_cmds_per_s_traced", windows[1], "1/s");
    m.put("trace.overhead_cmds_per_s", windows[1] - windows[0], "1/s");
    let local = layers::local_steps(ctx, &config_text, &specs[0], image)?;
    layers::server_metrics(&traced_times, &local, &mut out.metrics);

    let source = specs[0].build()?;
    let report = simulate(&config_text, &specs[0])?;
    let profile = Profile {
        config: config.clone(),
        source: source.as_ref(),
        report: &report,
    };
    layers::platform(ctx, &profile, &mut out)?;
    layers::ftl(ctx, &profile, &mut out);
    layers::components(ctx, &profile, &mut out);
    let seeds: Vec<u64> = (0..POOL as u64).map(|i| ctx.seed.wrapping_add(i)).collect();
    let explorer = Explorer::new(config).over_values("seed", seeds, |cfg, &s| cfg.seed = s);
    layers::sweep_level(ctx, &explorer, source.as_ref(), &mut out)?;
    layers::wire(ctx, &report, &mut out);
    layers::model(&report, &mut out.metrics);
    Ok(out)
}
