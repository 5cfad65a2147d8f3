//! Pins the zero-allocation property of the simulation hot path: once a
//! platform is warm (its lazily populated per-die wear maps have seen their
//! working set), driving a `SimSession` command by command performs **zero
//! heap allocations per step** — in the WAF-abstracted mode, in the
//! page-mapped FTL mode (including garbage collection, which runs on the
//! FTL's reusable relocation buffer), in a loop that keeps every record and
//! snapshot in capacity-reserved buffers, and on a session that owns its
//! platform.
//!
//! This file is its own test binary so it can install a counting global
//! allocator without affecting any other suite.
//!
//! The counter is **per-thread**: the libtest harness thread lazily
//! allocates its channel-parking context the first time it blocks waiting
//! for the test to finish, and that can land inside a measurement window.
//! Only allocations made by the measuring thread are the hot path's.

use ssdx_core::{ClassHistograms, FtlMode, LatencyHistogram, Ssd, SsdConfig, SteadyStateCutoff};
use ssdx_hostif::{AccessPattern, HostOp, Workload};
use ssdx_sim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

// Const-initialized with no destructor, so reading it from inside the
// global allocator never recurses into the allocator or TLS teardown.
thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn workload(pattern: AccessPattern, commands: u64) -> Workload {
    Workload::builder(pattern)
        .command_count(commands)
        .footprint_bytes(4 << 20)
        .build()
}

fn config(name: &str) -> ssdx_core::SsdConfigBuilder {
    SsdConfig::builder(name)
        .topology(4, 2, 2)
        .dram_buffers(4)
        .dram_buffer_capacity(256 * 1024)
}

/// Runs `w` twice on `ssd` (the first run warms the lazily populated wear
/// maps) and returns the number of heap allocations performed by the second
/// run's `step` loop.
fn allocations_during_steps(ssd: &mut Ssd, w: &Workload) -> u64 {
    let warm = ssd.session(w).finish();
    assert!(warm.commands > 0);

    let mut session = ssd.session(w);
    let before = allocations();
    while session.step().is_some() {}
    let after = allocations();
    // `finish` after the measurement window (report construction owns
    // strings and is not part of the per-command hot path).
    let report = session.finish();
    assert_eq!(report.commands, w.command_count);
    after - before
}

#[test]
fn stepping_a_warm_session_never_allocates() {
    // WAF-abstracted mode, writes (DRAM back-pressure ledger + protocol
    // window active) and reads (ECC decode path active).
    for pattern in [
        AccessPattern::SequentialWrite,
        AccessPattern::RandomWrite,
        AccessPattern::SequentialRead,
    ] {
        let mut ssd = Ssd::new(config("waf-alloc").build().unwrap());
        let w = workload(pattern, 384);
        let allocs = allocations_during_steps(&mut ssd, &w);
        assert_eq!(
            allocs, 0,
            "{pattern:?}: step loop allocated {allocs} times on a warm platform"
        );
    }

    // Page-mapped FTL mode with enough random overwrites to trigger garbage
    // collection: relocations must run on the FTL's reusable buffer.
    let mut ssd = Ssd::new(
        config("pm-alloc")
            .ftl_mode(FtlMode::PageMapped)
            .over_provisioning(0.25)
            .build()
            .unwrap(),
    );
    let w = Workload::builder(AccessPattern::RandomWrite)
        .command_count(1_200)
        .footprint_bytes(2 << 20)
        .build();
    let allocs = allocations_during_steps(&mut ssd, &w);
    assert_eq!(
        allocs, 0,
        "page-mapped step loop allocated {allocs} times on a warm platform"
    );

    // The metrics histograms are inline arrays: constructing, recording,
    // merging and querying them never touches the heap — which is what
    // licenses the session to record per-class tail latencies on the hot
    // path.
    let before = allocations();
    {
        let mut h = LatencyHistogram::new();
        let mut other = LatencyHistogram::new();
        let mut classes = ClassHistograms::new();
        for i in 0..10_000u64 {
            h.record(SimTime::from_ns(i * 131 + 7));
            other.record(SimTime::from_us(i));
            classes.record(
                if i % 3 == 0 {
                    HostOp::Read
                } else {
                    HostOp::Write
                },
                SimTime::from_ns(i),
            );
        }
        h.merge(&other);
        assert!(h.quantile(0.999) >= h.quantile(0.5));
        assert!(classes.total().count() == 10_000);
        assert!(SteadyStateCutoff::Commands(5).admits(5, SimTime::ZERO));
    }
    assert_eq!(
        allocations() - before,
        0,
        "histogram construct/record/merge/quantile must never allocate"
    );

    // A step loop that keeps every record and samples a snapshot every 64
    // commands, into capacity-reserved buffers, never allocates.
    let mut ssd = Ssd::new(config("record-alloc").build().unwrap());
    let w = workload(AccessPattern::SequentialWrite, 256);
    let _ = ssd.session(&w).finish();
    let mut records = Vec::with_capacity(256);
    let mut snapshots = Vec::with_capacity(16);
    let mut session = ssd.session(&w);
    let before = allocations();
    while let Some(record) = session.step() {
        records.push(record);
        if session.completed() % 64 == 0 {
            snapshots.push(session.snapshot());
        }
    }
    let after = allocations();
    drop(session);
    assert_eq!(records.len(), 256);
    assert_eq!(snapshots.len(), 4);
    assert_eq!(
        after - before,
        0,
        "recording step loop allocated {} times",
        after - before
    );
}

/// A session that owns its platform and shares its stream
/// ([`Ssd::into_session`], the form the server hosts) steps exactly as
/// allocation-free as a borrowed one, garbage collection included.
#[test]
fn stepping_an_owned_session_never_allocates() {
    let mut ssd = Ssd::new(
        config("owned-alloc")
            .ftl_mode(FtlMode::PageMapped)
            .over_provisioning(0.25)
            .build()
            .unwrap(),
    );
    let w = Workload::builder(AccessPattern::RandomWrite)
        .command_count(1_200)
        .footprint_bytes(2 << 20)
        .build();
    // Warm the lazily populated wear maps, which the platform keeps.
    let _ = ssd.simulate(&w);
    let mut session = ssd.into_session(std::sync::Arc::new(w));
    let before = allocations();
    while session.step().is_some() {}
    let after = allocations();
    assert_eq!(session.finish().commands, 1_200);
    assert_eq!(
        after - before,
        0,
        "owned-session step loop allocated {} times",
        after - before
    );
}
