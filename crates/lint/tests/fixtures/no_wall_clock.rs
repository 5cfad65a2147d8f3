//@ path: crates/nand/src/fixture.rs
//! Fixture: wall-clock reads are flagged outside the harness crates.

use std::time::Instant; //~ ERROR no-wall-clock
use std::time::SystemTime; //~ ERROR no-wall-clock

fn flagged() {
    let t0 = Instant::now(); //~ ERROR no-wall-clock
    let epoch = SystemTime::UNIX_EPOCH; //~ ERROR no-wall-clock
}

fn fine() {
    // Simulated time and durations are not wall-clock reads.
    let dt = std::time::Duration::from_micros(25);
    // Mentioning Instant in a comment or "Instant in a string" is prose.
}
