//! Parallel sweep execution with deterministic fan-out.
//!
//! [`ParallelExecutor`] is the engine the [`Explorer`] documentation has
//! always promised: it fans the [`SweepJob`] batch of a sweep out over a
//! scoped worker pool ([`std::thread::scope`]) with a configurable thread
//! count, in which the calling thread is one of the workers, a
//! self-scheduling job queue (workers atomically claim the next unclaimed
//! job, so long and short points balance automatically), and ordered
//! result collection. Because every job owns its fully mutated
//! [`SsdConfig`](crate::SsdConfig) — including the deterministic RNG seed —
//! and builds its own platform on the worker thread, a parallel sweep is
//! **byte-identical** to the sequential one at any thread count, which the
//! `parallel_sweep` integration suite asserts for 1, 2, 4 and 8 threads.
//!
//! # Determinism
//!
//! Three properties make order-independent execution safe:
//!
//! 1. **Expansion is pure.** [`Explorer::jobs`] produces the cartesian
//!    product deterministically; every job carries its coordinates and its
//!    own configuration, with no shared mutable state.
//! 2. **Seeding is per point.** Each platform derives all component RNG
//!    streams ([`SimRng::fork`](ssdx_sim::rng::SimRng::fork)) from its own
//!    `config.seed`, never from a global or thread-local source, so a job's
//!    result does not depend on which worker runs it or when.
//! 3. **Collection is ordered by job index, not completion time.** Workers
//!    write into a dedicated result slot per job; the final [`Sweep`] is
//!    assembled in expansion order.
//!
//! # Example
//!
//! ```
//! use ssdx_core::{Axis, Explorer, ParallelExecutor, SsdConfig};
//! use ssdx_hostif::{AccessPattern, Workload};
//!
//! let base = SsdConfig::builder("base").dram_buffer_capacity(128 * 1024).build()?;
//! let workload = Workload::builder(AccessPattern::SequentialWrite)
//!     .command_count(64)
//!     .build();
//! let explorer = Explorer::new(base).over(Axis::over(
//!     "channels",
//!     [2u32, 4],
//!     |cfg, &c| {
//!         cfg.channels = c;
//!         cfg.dram_buffers = c;
//!     },
//! ));
//! let sequential = explorer.run(&workload)?;
//! let parallel = ParallelExecutor::with_threads(2).run(&explorer, &workload)?;
//! assert_eq!(format!("{sequential:?}"), format!("{parallel:?}"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::explorer::{Explorer, Sweep, SweepError, SweepJob, SweepPoint};
use ssdx_hostif::CommandSource;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// A scoped worker pool that executes [`SweepJob`] batches in parallel.
///
/// The executor is a small value type — construct one per sweep or reuse it;
/// it holds no threads between runs. The calling thread works as one of the
/// workers, and the others live only inside
/// [`run`](Self::run)/[`execute_jobs`](Self::execute_jobs) (scoped threads),
/// so borrowed sources and jobs need no `'static` lifetimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelExecutor {
    threads: NonZeroUsize,
}

impl Default for ParallelExecutor {
    fn default() -> Self {
        ParallelExecutor::new()
    }
}

impl ParallelExecutor {
    /// Creates an executor sized to the machine: one worker per available
    /// hardware thread (falling back to 1 when the parallelism cannot be
    /// queried).
    pub fn new() -> Self {
        let threads = thread::available_parallelism().unwrap_or(NonZeroUsize::MIN);
        ParallelExecutor { threads }
    }

    /// Creates an executor with an explicit worker count. A count of zero is
    /// clamped to one; `with_threads(1)` degenerates to strictly sequential
    /// in-place execution (no worker threads are spawned), which makes the
    /// byte-identity property trivially checkable against any other count.
    pub fn with_threads(threads: usize) -> Self {
        ParallelExecutor {
            threads: NonZeroUsize::new(threads).unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// The worker count a batch of `jobs` jobs actually uses: the
    /// configured count clamped to the job count (spawning more workers
    /// than jobs would only create idle threads). This is the number the
    /// speedup meters record.
    pub fn workers_for(&self, jobs: usize) -> usize {
        self.threads.get().min(jobs).max(1)
    }

    /// Expands `explorer` and executes its jobs across the worker pool,
    /// returning the same [`Sweep`] — byte for byte — that
    /// [`Explorer::run`] produces sequentially.
    ///
    /// # Errors
    ///
    /// Propagates the expansion errors of [`Explorer::jobs`] and the
    /// [`SweepError::InvalidPoint`] of the earliest failing job (matching
    /// the error sequential execution reports). Warm-start images
    /// ([`Explorer::warm_start`]) are captured sequentially during
    /// expansion, before the fan-out, and only for groups of two or more
    /// identical points: a sweep of distinct points does all of its
    /// simulation on the workers.
    pub fn run<S>(&self, explorer: &Explorer, source: &S) -> Result<Sweep, SweepError>
    where
        S: CommandSource + ?Sized,
    {
        let jobs = explorer.warmed_jobs(source)?;
        let points = self.execute_jobs(&jobs, source)?;
        Ok(Sweep {
            axes: explorer.axis_names(),
            points,
        })
    }

    /// Executes an explicit job batch, returning one [`SweepPoint`] per job
    /// **in job order** regardless of completion order.
    ///
    /// Workers claim jobs through an atomic cursor (dynamic
    /// self-scheduling): a worker that lands on a cheap point immediately
    /// claims the next one, so heterogeneous sweeps — where a 32-channel
    /// point simulates far more events than a 2-channel one — stay balanced
    /// without a work-stealing deque. The calling thread is one of the
    /// [`workers_for`](Self::workers_for) workers: it spawns one thread
    /// fewer and runs the same claim loop itself.
    ///
    /// # Errors
    ///
    /// Returns the error of the earliest failing job. Once any job fails,
    /// workers stop claiming new jobs (already-claimed jobs run to
    /// completion), exactly as sequential execution would not have started
    /// anything past the first failure.
    pub fn execute_jobs<S>(
        &self,
        jobs: &[SweepJob],
        source: &S,
    ) -> Result<Vec<SweepPoint>, SweepError>
    where
        S: CommandSource + ?Sized,
    {
        let workers = self.workers_for(jobs.len());
        if workers <= 1 || jobs.is_empty() {
            // Sequential fast path: no threads, no slots, same results.
            let mut points = Vec::with_capacity(jobs.len());
            for job in jobs {
                points.push(job.execute(source)?);
            }
            return Ok(points);
        }

        // One write-once slot per job keeps collection lock-free and ordered.
        let slots: Vec<OnceLock<Result<SweepPoint, SweepError>>> =
            jobs.iter().map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);

        let claim_loop = || loop {
            if failed.load(Ordering::Relaxed) {
                break;
            }
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(job) = jobs.get(index) else { break };
            let result = job.execute(source);
            if result.is_err() {
                failed.store(true, Ordering::Relaxed);
            }
            slots[index]
                .set(result)
                .expect("each job index is claimed exactly once");
        };
        // The calling thread is one of the workers: it spawns the others,
        // then claims jobs alongside them.
        thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(claim_loop);
            }
            claim_loop();
        });

        // The cursor hands indices out in order and every claimed job runs
        // to completion, so unfilled slots form a suffix that begins only
        // after the earliest error — scanning in order therefore reports
        // exactly the error sequential execution would have hit first.
        let mut points = Vec::with_capacity(jobs.len());
        for slot in slots {
            match slot.into_inner() {
                Some(Ok(point)) => points.push(point),
                Some(Err(error)) => return Err(error),
                None => unreachable!("a slot before the earliest error is always filled"),
            }
        }
        Ok(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ConfigError, SsdConfig};
    use crate::explorer::Axis;
    use crate::session::SimSession;
    use crate::ssd::Ssd;
    use ssdx_hostif::{AccessPattern, Workload};

    fn workload(count: u64) -> Workload {
        Workload::builder(AccessPattern::SequentialWrite)
            .command_count(count)
            .build()
    }

    fn explorer() -> Explorer {
        let base = SsdConfig::builder("par")
            .topology(2, 2, 1)
            .dram_buffers(2)
            .dram_buffer_capacity(128 * 1024)
            .build()
            .unwrap();
        Explorer::new(base)
            .over(Axis::over("channels", [2u32, 4], |cfg, &c| {
                cfg.channels = c;
                cfg.dram_buffers = c;
            }))
            .over(Axis::over("seed", [1u64, 2, 3], |cfg, &s| cfg.seed = s))
    }

    #[test]
    fn everything_the_executor_touches_is_thread_safe() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<Ssd>();
        // Owned sessions move between threads: each server connection
        // thread checks them out of one shared session table.
        assert_send::<SimSession<'static>>();
        assert_send::<SweepJob>();
        assert_sync::<SweepJob>();
        assert_sync::<Workload>();
        assert_send::<SweepPoint>();
        assert_send::<SweepError>();
    }

    #[test]
    fn parallel_run_is_byte_identical_to_sequential() {
        let explorer = explorer();
        let w = workload(96);
        let sequential = explorer.run(&w).unwrap();
        for threads in [1, 2, 4, 8] {
            let parallel = ParallelExecutor::with_threads(threads)
                .run(&explorer, &w)
                .unwrap();
            assert_eq!(
                format!("{sequential:?}"),
                format!("{parallel:?}"),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn executor_reports_the_earliest_failing_job() {
        let base = SsdConfig::builder("bad-axis")
            .topology(2, 2, 1)
            .dram_buffers(2)
            .build()
            .unwrap();
        // `jobs()` validates upfront, so build the failing batch by hand:
        // corrupt the config of a mid-batch job after expansion.
        let explorer =
            Explorer::new(base).over(Axis::over("seed", 1u64..=6, |cfg, &s| cfg.seed = s));
        let mut jobs = explorer.jobs().unwrap();
        jobs[2].config.channels = 0;
        jobs[4].config.ways = 0;
        let err = ParallelExecutor::with_threads(4)
            .execute_jobs(&jobs, &workload(16))
            .unwrap_err();
        assert_eq!(
            err,
            SweepError::InvalidPoint {
                point: "seed=3".to_string(),
                error: ConfigError::ZeroDimension("channels"),
            }
        );
    }

    #[test]
    fn the_calling_thread_is_one_of_the_workers() {
        use std::sync::{Arc, Barrier, Mutex};
        let ran_on: Arc<Mutex<Vec<thread::ThreadId>>> = Arc::default();
        // The first two jobs meet at a barrier, so two threads must run jobs
        // at once; with two workers, one of them is the caller.
        let meet = Arc::new(Barrier::new(2));
        let mut axis = Axis::new("job");
        for i in 0..4 {
            let (ran_on, meet) = (Arc::clone(&ran_on), Arc::clone(&meet));
            axis = axis.point_with_setup(
                format!("j{i}"),
                |_| {},
                move |_| {
                    let mut ids = ran_on.lock().expect("no hook panics holding the lock");
                    ids.push(thread::current().id());
                    let first_two = ids.len() <= 2;
                    drop(ids);
                    if first_two {
                        meet.wait();
                    }
                },
            );
        }
        let base = SsdConfig::builder("caller")
            .topology(2, 2, 1)
            .dram_buffers(2)
            .build()
            .unwrap();
        let jobs = Explorer::new(base).over(axis).jobs().unwrap();
        let points = ParallelExecutor::with_threads(2)
            .execute_jobs(&jobs, &workload(16))
            .unwrap();
        assert_eq!(points.len(), 4);
        let ids = ran_on.lock().unwrap().clone();
        assert_eq!(ids.len(), 4, "every job ran its hook once");
        assert!(
            ids.contains(&thread::current().id()),
            "the calling thread ran no job"
        );
        let threads = (0..ids.len())
            .filter(|&i| !ids[..i].contains(&ids[i]))
            .count();
        assert!(threads <= 2, "{threads} threads ran jobs");
    }

    #[test]
    fn zero_threads_clamp_to_one_and_machine_default_is_positive() {
        assert_eq!(ParallelExecutor::with_threads(0).threads(), 1);
        assert!(ParallelExecutor::new().threads() >= 1);
        assert_eq!(ParallelExecutor::default(), ParallelExecutor::new());
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let base = SsdConfig::builder("tiny")
            .topology(2, 2, 1)
            .dram_buffers(2)
            .build()
            .unwrap();
        let explorer = Explorer::new(base);
        let w = workload(32);
        let sweep = ParallelExecutor::with_threads(16)
            .run(&explorer, &w)
            .unwrap();
        assert_eq!(sweep.len(), 1);
        assert_eq!(
            format!("{sweep:?}"),
            format!("{:?}", explorer.run(&w).unwrap())
        );
    }
}
