//! Integration tests for the `experiments` binary's argument routing: an
//! unknown or retired subcommand is an error that runs nothing, and no
//! subcommand at all still runs the full suite.

use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_experiments");

const SUBCOMMANDS: [&str; 12] = [
    "all",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "speedup",
    "tails",
    "faults",
    "tables",
    "policies",
    "ablations",
];

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn experiments")
}

#[test]
fn unknown_subcommand_exits_2_and_lists_the_valid_ones() {
    let mut table = ssdx_bench::subcommands();
    table.push("all");
    table.sort_unstable();
    let mut expected = SUBCOMMANDS;
    expected.sort_unstable();
    assert_eq!(table, expected, "the experiment table's subcommands");

    // `fgi2` is the typo that used to fall through to the full suite;
    // `speed` was a subcommand until the Fig. 6 baseline moved to perfbench.
    for arg in ["nosuch", "fgi2", "speed"] {
        let out = run(&[arg]);
        assert_eq!(out.status.code(), Some(2), "`{arg}` must be rejected");
        assert!(
            out.stdout.is_empty(),
            "`{arg}` must not run a section, got:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert!(stderr.contains(&format!("`{arg}`")), "{stderr}");
        for experiment in ssdx_bench::EXPERIMENTS {
            let name = experiment.name;
            assert!(stderr.contains(name), "usage omits `{name}`: {stderr}");
        }
        assert!(stderr.contains("all"), "usage omits `all`: {stderr}");
    }
}

#[test]
fn ablations_prints_all_five_series() {
    let out = run(&["ablations"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    for header in [
        "way gang interconnection (sequential write):",
        "ECC scheme (sequential read):",
        "compressor placement (sequential write):",
        "ONFI interface speed (sequential write):",
        "host queue depth, no-cache policy (sequential write):",
    ] {
        assert!(stdout.contains(header), "missing `{header}`:\n{stdout}");
    }
}

#[test]
fn bare_invocation_runs_the_full_suite() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    // The first, a middle and the last section of the `all` run.
    assert!(stdout.contains("Table II "), "{stdout}");
    assert!(stdout.contains("Parallel sweep speedup"), "{stdout}");
    assert!(stdout.contains("Ablations "), "{stdout}");
}
