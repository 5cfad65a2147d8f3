//! The repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload (`fig6-seqwrite`, `gc-zipf-sweep`, `service-zipf-step`)
//! for about `S` seconds of measurement on inputs generated from seed `N`,
//! checks the simulator's outputs, and prints as its last line one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; `--trace 1` runs the
//! traced variant and reports the per-layer ones. See `README.md` beside
//! this crate for every metric and why each workload exists.

mod fig6;
mod layers;
mod report;
mod service;
mod stats;
mod sweep;
mod trace;

use report::{Checks, Metrics};
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;

/// What one workload run needs to know.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub threads: usize,
    pub tracer: Tracer,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub checks: Checks,
    /// Lines printed beside the metrics, such as sample counts.
    pub notes: Vec<String>,
}

/// Every layer a traced run reports self time for.
const LAYERS: [&str; 19] = [
    "ahb", "channel", "cpu", "dram", "ecc", "explorer", "frame", "ftl", "hostif", "metrics",
    "nand", "parallel", "proto", "server", "session", "sim", "snapshot", "ssd", "sweepjob",
];

const USAGE: &str =
    "usage: perfbench --workload fig6-seqwrite|gc-zipf-sweep|service-zipf-step --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<(String, u64, u64, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(s), Some(secs), Some(t)) if secs > 0 => Ok((w, s, secs, t)),
        _ => Err("--workload, --seed, --seconds (> 0) and --trace are required".to_string()),
    }
}

fn main() -> ExitCode {
    let (workload, seed, seconds, traced) = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "fingerprint {}",
        report::fingerprint(&workload, seed, seconds, traced)
    );
    let mut ctx = Ctx {
        seed,
        seconds: Duration::from_secs(seconds),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        tracer: Tracer::new(traced),
    };
    let result = match workload.as_str() {
        "fig6-seqwrite" => fig6::run(&mut ctx),
        "gc-zipf-sweep" => sweep::run(&mut ctx),
        "service-zipf-step" => service::run(&mut ctx),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {workload}: {message}");
            return ExitCode::FAILURE;
        }
    };

    if traced {
        let self_times = ctx.tracer.self_seconds_by_layer();
        for layer in LAYERS {
            let seconds = self_times
                .iter()
                .find(|(name, _)| name == layer)
                .map_or(0.0, |&(_, s)| s);
            outcome.metrics.put(format!("self.{layer}_s"), seconds, "s");
        }
        outcome
            .metrics
            .put("trace.spans", ctx.tracer.spans().len() as f64, "count");
        let run_id = format!("{seed}-{}", std::process::id());
        let path = format!(".bench_out/spans-{workload}-{run_id}.jsonl");
        let written = std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, ctx.tracer.to_json_lines(&workload, &run_id)));
        match written {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
        }
    }

    for (name, value, unit) in outcome.metrics.iter() {
        println!("  {name:<36} {value:>18.6} {unit}");
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    let checks = &outcome.checks;
    println!(
        "checks: {} attempted, {} failed, error_rate {}",
        checks.attempted,
        checks.failed,
        checks.failed as f64 / checks.attempted.max(1) as f64
    );
    if let Some(failure) = &checks.first_failure {
        println!("first failure: {failure}");
    }
    println!("{}", report::summary_json(checks, &outcome.metrics));
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
