//! `ssdx-server` — the simulation service daemon.
//!
//! See `docs/OPERATIONS.md` for the operator guide.

use ssdx_server::{Server, ServerConfig};
use std::process::ExitCode;

const USAGE: &str = "\
usage: ssdx-server [options]
  --bind ADDR           listen address (default 127.0.0.1:7070; port 0 = ephemeral)
  --workers N           session operations run at once (default 4)
  --max-sessions N      concurrent session cap (default 1024)
  --telemetry-queue N   per-connection telemetry queue depth (default 256)
  --quiet               suppress the log on stderr
";

fn main() -> ExitCode {
    let mut cfg = ServerConfig::default();
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        let result: Result<(), String> = match arg.as_str() {
            "--bind" => value("--bind").map(|v| cfg.bind = v),
            "--workers" => parse(value("--workers"), &mut cfg.workers),
            "--max-sessions" => parse(value("--max-sessions"), &mut cfg.max_sessions),
            "--telemetry-queue" => parse(value("--telemetry-queue"), &mut cfg.telemetry_queue),
            "--quiet" => {
                quiet = true;
                Ok(())
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown option {other}")),
        };
        if let Err(message) = result {
            eprintln!("ssdx-server: {message}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    }
    let workers = cfg.workers;
    let server = match Server::bind(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("ssdx-server: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !quiet {
        server.set_log(Box::new(std::io::stderr()));
    }
    // stdout carries exactly one machine-readable line, so scripts can
    // discover an ephemeral port.
    println!("listening on {} ({} workers)", server.local_addr(), workers);
    match server.wait() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ssdx-server: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse(value: Result<String, String>, into: &mut usize) -> Result<(), String> {
    let value = value?;
    *into = value
        .parse()
        .map_err(|_| format!("not a number: {value}"))?;
    Ok(())
}
