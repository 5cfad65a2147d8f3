//! Pins that a session's memory does not grow with its run length: opening
//! a session ([`Ssd::session`], [`Ssd::into_session`]), forking one from an
//! image ([`SimSession::fork`]) and copying an owned or a borrowing one
//! ([`SimSession::duplicate`]) allocate the same number of bytes for a
//! 400 000-command stream as for a 50 000-command one. A session reads its
//! commands from the source by index; none of these paths copies the
//! stream.
//!
//! Both counts sit above the command-count clamp of the session's
//! in-flight bound (the aggregate buffer capacity over the smallest write
//! plus two: 258 commands here), and both streams cover the same
//! footprint, so every per-run structure has the same size. The sources'
//! bounds are computed before measuring, once per source, the way a
//! shared source serves every session after its first.
//!
//! This file is its own test binary so it can install a counting global
//! allocator without affecting any other suite (same pattern as
//! `step_allocations.rs`; the counter is per-thread for the same reason).

use ssdx_core::{FtlMode, SimSession, Ssd, SsdConfig};
use ssdx_hostif::{AccessPattern, CommandSource, Workload, ZipfianWorkload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAllocator;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.with(|n| n.set(n.get() + new_size as u64));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Bytes `f` allocates on this thread, and its result.
fn bytes_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = BYTES.with(Cell::get);
    let value = f();
    (BYTES.with(Cell::get) - before, value)
}

const FOOTPRINT: u64 = 4 << 20;
const SHORT: u64 = 50_000;
const LONG: u64 = 400_000;
/// Commands run before the fork image is captured.
const SPLIT: u64 = 1_000;

fn config(ftl: FtlMode) -> SsdConfig {
    SsdConfig::builder("session-memory")
        .topology(4, 2, 2)
        .dram_buffers(4)
        .dram_buffer_capacity(256 * 1024)
        .ftl_mode(ftl)
        .build()
        .unwrap()
}

/// Bytes allocated by `session`, `fork`, `into_session`, an owned
/// `duplicate` and a borrowing `duplicate` over `source`.
fn footprints<S: CommandSource + Clone + 'static>(ftl: FtlMode, source: S) -> [u64; 5] {
    let _ = source.bounds();
    let mut ssd = Ssd::new(config(ftl));
    let (open, session) = bytes_during(|| ssd.session(&source));
    drop(session);

    let (image, borrowed) = {
        let mut session = ssd.session(&source);
        for _ in 0..SPLIT {
            session.step();
        }
        let (borrowed, copy) = bytes_during(|| session.duplicate());
        assert_eq!(copy.completed(), SPLIT);
        (session.capture(), borrowed)
    };
    let mut target = Ssd::new(config(ftl));
    let (fork, forked) = bytes_during(|| SimSession::fork(&mut target, &source, &image));
    assert_eq!(forked.expect("fork").completed(), SPLIT);

    let shared: Arc<dyn CommandSource> = Arc::new(source);
    let platform = Ssd::new(config(ftl));
    let (into, mut owned) = bytes_during(|| platform.into_session(Arc::clone(&shared)));
    for _ in 0..SPLIT {
        owned.step();
    }
    let (duplicate, copy) = bytes_during(|| owned.duplicate());
    assert_eq!(copy.completed(), SPLIT);
    [open, fork, into, duplicate, borrowed]
}

fn sequential(commands: u64) -> Workload {
    Workload::builder(AccessPattern::SequentialWrite)
        .command_count(commands)
        .footprint_bytes(FOOTPRINT)
        .build()
}

fn zipfian(commands: u64) -> ZipfianWorkload {
    ZipfianWorkload::new(0.9, 3)
        .command_count(commands)
        .footprint_bytes(FOOTPRINT)
        .read_fraction(0.3)
}

/// A page-mapped session sizes its FTL from the stream's largest offset,
/// so this arm uses a sequential stream, which covers the whole footprint
/// at both counts.
#[test]
fn page_mapped_sessions_allocate_the_same_bytes_for_any_run_length() {
    let short = footprints(FtlMode::PageMapped, sequential(SHORT));
    let long = footprints(FtlMode::PageMapped, sequential(LONG));
    assert_eq!(
        short, long,
        "[session, fork, into_session, duplicate, borrowed duplicate] bytes grew with the run length"
    );
}

#[test]
fn zipfian_sessions_allocate_the_same_bytes_for_any_run_length() {
    let short = footprints(FtlMode::WafAbstraction, zipfian(SHORT));
    let long = footprints(FtlMode::WafAbstraction, zipfian(LONG));
    assert_eq!(
        short, long,
        "[session, fork, into_session, duplicate, borrowed duplicate] bytes grew with the run length"
    );
    // A copied stream alone would be 32 B per command.
    for bytes in long {
        assert!(bytes < LONG * 32 / 4, "{bytes} B for one session path");
    }
}
