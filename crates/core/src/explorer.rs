//! Generic design-space exploration: parameter sweeps over arbitrary
//! configuration mutators.
//!
//! [`Explorer`] is the sweep engine: start from a base [`SsdConfig`], add
//! one [`Axis`] per swept dimension (each axis is a list of labelled
//! configuration mutations, built from value lists, whole configurations or
//! hand-written closures), and [`run`](Explorer::run) any
//! [`CommandSource`] across the cartesian product. Every evaluated point
//! yields a [`SweepPoint`] carrying the full [`PerfReport`], so analyses
//! are not limited to the throughput columns the original drivers exposed.
//! The expansion into [`SweepJob`]s is explicit and side-effect free, which
//! is what the [`ParallelExecutor`](crate::ParallelExecutor) fans out over
//! worker threads: [`Explorer::run_parallel`] produces a byte-identical
//! [`Sweep`] using every available core (see the determinism contract on
//! [`Explorer`]).
//!
//! The paper's two original studies are re-expressed on top of the engine:
//! [`host_interface_study`] regenerates the optimal-design-point sweeps of
//! Figs. 3 and 4 (per-configuration `DDR+FLASH`, `SSD cache` and `SSD no
//! cache` columns plus the interface-level reference lines), and
//! [`wearout_study`] the ECC/wear-out curves of Fig. 5.
//!
//! # Example
//!
//! ```
//! use ssdx_core::{Axis, Explorer, SsdConfig};
//! use ssdx_hostif::{AccessPattern, Workload};
//!
//! let base = SsdConfig::builder("base").dram_buffer_capacity(128 * 1024).build()?;
//! let workload = Workload::builder(AccessPattern::SequentialWrite)
//!     .command_count(128)
//!     .build();
//! let sweep = Explorer::new(base)
//!     .over(Axis::over("channels", [2u32, 4], |cfg, &c| {
//!         cfg.channels = c;
//!         cfg.dram_buffers = c;
//!     }))
//!     .run(&workload)
//!     .expect("all swept points are valid");
//! assert_eq!(sweep.len(), 2);
//! let best = sweep.best_by(|r| r.throughput_mbps).unwrap();
//! assert_eq!(best.value("channels"), Some("4"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::config::{CachePolicy, ConfigError, HostInterfaceConfig, SsdConfig};
use crate::metrics::SteadyStateCutoff;
use crate::report::PerfReport;
use crate::session::SimSession;
use crate::snapshot::Snapshot;
use crate::ssd::Ssd;
use ssdx_ecc::EccScheme;
use ssdx_hostif::{AccessPattern, CommandSource, Workload};
use ssdx_sim::codec::DecodeError;
use std::fmt;
use std::sync::Arc;

/// Errors produced while expanding or executing a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// An axis holds no points, so the cartesian product is empty.
    EmptyAxis(String),
    /// A swept point produced a configuration that does not validate.
    InvalidPoint {
        /// `axis=value` coordinates of the offending point.
        point: String,
        /// The underlying configuration error.
        error: ConfigError,
    },
    /// A warm-start image could not be forked onto a swept point's
    /// platform. This only arises when a [`SweepJob`] batch is mutated
    /// after [`Explorer::warmed_jobs`] attached the images — expansion
    /// itself only shares an image within a group of identical
    /// configurations.
    WarmStart {
        /// `axis=value` coordinates of the offending point.
        point: String,
        /// The underlying snapshot decode error.
        error: DecodeError,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::EmptyAxis(axis) => write!(f, "sweep axis `{axis}` has no points"),
            SweepError::InvalidPoint { point, error } => {
                write!(f, "sweep point ({point}) is invalid: {error}")
            }
            SweepError::WarmStart { point, error } => {
                write!(
                    f,
                    "sweep point ({point}) could not fork its warm-start image: {error}"
                )
            }
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::InvalidPoint { error, .. } => Some(error),
            SweepError::WarmStart { error, .. } => Some(error),
            SweepError::EmptyAxis(_) => None,
        }
    }
}

/// Shared platform-preparation hook applied after construction (e.g.
/// artificial aging), before the source runs. `Send + Sync` so a batch of
/// [`SweepJob`]s can be fanned out across threads by the
/// [`ParallelExecutor`](crate::ParallelExecutor).
type PrepareHook = Arc<dyn Fn(&mut Ssd) + Send + Sync>;

/// `true` when two hook chains are the very same `Arc`s in the same order.
/// Closures have no `Eq`, so warm-start grouping uses allocation identity —
/// which cartesian expansion guarantees for points sharing an axis entry.
/// Compared as thin data pointers: vtable addresses are not stable enough
/// for identity (the same closure can have several vtables across
/// codegen units).
fn same_hooks(a: &[PrepareHook], b: &[PrepareHook]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| std::ptr::eq(Arc::as_ptr(x).cast::<u8>(), Arc::as_ptr(y).cast::<u8>()))
}

/// One labelled point of an [`Axis`]: a configuration mutation plus an
/// optional platform-preparation hook applied after construction.
#[derive(Clone)]
struct AxisPoint {
    label: String,
    mutate: Arc<dyn Fn(&mut SsdConfig) + Send + Sync>,
    prepare: Option<PrepareHook>,
}

/// One swept dimension: a name and an ordered list of labelled
/// configuration mutations.
#[derive(Clone)]
pub struct Axis {
    name: String,
    points: Vec<AxisPoint>,
}

impl Axis {
    /// Creates an empty axis with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Axis {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// The axis name, as reported in [`SweepPoint::coordinates`].
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of points on the axis.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if the axis holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Adds one labelled point mutating the configuration.
    pub fn point(
        mut self,
        label: impl Into<String>,
        mutate: impl Fn(&mut SsdConfig) + Send + Sync + 'static,
    ) -> Self {
        self.points.push(AxisPoint {
            label: label.into(),
            mutate: Arc::new(mutate),
            prepare: None,
        });
        self
    }

    /// Adds one labelled point that both mutates the configuration and
    /// prepares the constructed platform (e.g. artificial NAND aging)
    /// before the source runs.
    pub fn point_with_setup(
        mut self,
        label: impl Into<String>,
        mutate: impl Fn(&mut SsdConfig) + Send + Sync + 'static,
        prepare: impl Fn(&mut Ssd) + Send + Sync + 'static,
    ) -> Self {
        self.points.push(AxisPoint {
            label: label.into(),
            mutate: Arc::new(mutate),
            prepare: Some(Arc::new(prepare)),
        });
        self
    }

    /// Builds an axis from a list of values and one shared mutator: each
    /// point is labelled with the value's `Display` form and applies
    /// `apply(config, &value)`.
    pub fn over<T, F>(
        name: impl Into<String>,
        values: impl IntoIterator<Item = T>,
        apply: F,
    ) -> Self
    where
        T: fmt::Display + Send + Sync + 'static,
        F: Fn(&mut SsdConfig, &T) + Send + Sync + 'static,
    {
        let apply = Arc::new(apply);
        let mut axis = Axis::new(name);
        for value in values {
            let label = value.to_string();
            let apply = Arc::clone(&apply);
            axis = axis.point(label, move |cfg| apply(cfg, &value));
        }
        axis
    }

    /// Builds an axis whose points are whole configurations (labelled by
    /// their names), each replacing the base configuration entirely — how
    /// the Table II sweeps enumerate candidate architectures.
    pub fn configs(name: impl Into<String>, configs: impl IntoIterator<Item = SsdConfig>) -> Self {
        let mut axis = Axis::new(name);
        for config in configs {
            let label = config.name.clone();
            axis = axis.point(label, move |cfg| *cfg = config.clone());
        }
        axis
    }
}

impl fmt::Debug for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Axis")
            .field("name", &self.name)
            .field(
                "points",
                &self.points.iter().map(|p| &p.label).collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// One `(axis, value)` coordinate of a swept point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxisValue {
    /// Axis name.
    pub axis: String,
    /// Point label on that axis.
    pub value: String,
}

/// One materialised run of a sweep: the concrete configuration, the
/// coordinates that produced it and the preparation hooks to apply. The
/// expansion is deterministic and side-effect free, so a batch of jobs can
/// be executed in any order — which is exactly what the
/// [`ParallelExecutor`](crate::ParallelExecutor) does, claiming jobs from
/// an atomic cursor across worker threads. `SweepJob` is `Send + Sync`
/// (asserted at compile time by the executor's tests): the configuration is
/// plain data and the hooks are `Arc<dyn Fn + Send + Sync>`.
#[derive(Clone)]
pub struct SweepJob {
    /// `(axis, value)` coordinates of this job, in axis order.
    pub coordinates: Vec<AxisValue>,
    /// The fully mutated configuration the platform is built from.
    pub config: SsdConfig,
    /// Warmup trimming applied to the run's per-class tail histograms
    /// (inherited from [`Explorer::steady_state`]; never affects the
    /// legacy report fields).
    pub steady_state: SteadyStateCutoff,
    prepare: Vec<PrepareHook>,
    warm_image: Option<Arc<Snapshot>>,
}

impl SweepJob {
    /// `axis=value` summary of the job, used in error messages.
    pub fn point_label(&self) -> String {
        if self.coordinates.is_empty() {
            self.config.name.clone()
        } else {
            self.coordinates
                .iter()
                .map(|c| format!("{}={}", c.axis, c.value))
                .collect::<Vec<_>>()
                .join(", ")
        }
    }

    /// The shared warm-start image attached by [`Explorer::warmed_jobs`],
    /// if any. Jobs of the same warm-start group hold clones of one `Arc`,
    /// which is how the warm-start suite proves warmup ran once per group;
    /// a job whose configuration no other job shares holds none.
    pub fn warm_image(&self) -> Option<&Arc<Snapshot>> {
        self.warm_image.as_ref()
    }

    /// Builds the platform, applies the preparation hooks and runs the
    /// source to completion. When a warm-start image is attached
    /// ([`Explorer::warmed_jobs`] attaches one only to groups of two or
    /// more jobs), the session is forked from it instead of replaying the
    /// warmup — byte-identical by the fork-equivalence contract on
    /// [`SimSession::fork`]; without one the whole stream runs cold.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::InvalidPoint`] if the configuration does not
    /// validate, and [`SweepError::WarmStart`] if an attached warm-start
    /// image does not decode onto this job's platform.
    pub fn execute<S: CommandSource + ?Sized>(&self, source: &S) -> Result<SweepPoint, SweepError> {
        let mut ssd =
            Ssd::try_new(self.config.clone()).map_err(|error| SweepError::InvalidPoint {
                point: self.point_label(),
                error,
            })?;
        for hook in &self.prepare {
            hook(&mut ssd);
        }
        let mut session = match &self.warm_image {
            Some(image) => SimSession::fork(&mut ssd, source, image).map_err(|error| {
                SweepError::WarmStart {
                    point: self.point_label(),
                    error,
                }
            })?,
            None => ssd.session(source),
        };
        session.steady_state(self.steady_state);
        let report = session.finish();
        Ok(SweepPoint {
            coordinates: self.coordinates.clone(),
            report,
        })
    }
}

impl fmt::Debug for SweepJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepJob")
            .field("point", &self.point_label())
            .field("config", &self.config.name)
            .field("prepare_hooks", &self.prepare.len())
            .field("warm", &self.warm_image.is_some())
            .finish()
    }
}

/// One evaluated point of a sweep: its coordinates and the full
/// performance report of the run.
///
/// Note for 0.1 users: this is a new type. The three-column point of the
/// legacy host-interface sweep now lives on as [`HostSweepPoint`].
#[must_use = "a sweep point carries the measured report"]
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// `(axis, value)` coordinates, in axis order.
    pub coordinates: Vec<AxisValue>,
    /// The complete performance report of this run.
    pub report: PerfReport,
}

impl SweepPoint {
    /// The point's value on the named axis, if that axis was swept.
    pub fn value(&self, axis: &str) -> Option<&str> {
        self.coordinates
            .iter()
            .find(|c| c.axis == axis)
            .map(|c| c.value.as_str())
    }

    /// Compact point label: the axis values joined with ` · `.
    pub fn label(&self) -> String {
        if self.coordinates.is_empty() {
            self.report.config_name.clone()
        } else {
            self.coordinates
                .iter()
                .map(|c| c.value.as_str())
                .collect::<Vec<_>>()
                .join(" · ")
        }
    }
}

/// The full result of one [`Explorer::run`]: every evaluated point with its
/// report, in cartesian-product order (last axis fastest).
#[must_use = "a sweep carries the measured reports"]
#[derive(Debug, Clone)]
pub struct Sweep {
    /// The swept axis names, in application order.
    pub axes: Vec<String>,
    /// One point per evaluated combination.
    pub points: Vec<SweepPoint>,
}

impl Sweep {
    /// Number of evaluated points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if the sweep holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The point maximising the given report metric, if any.
    ///
    /// NaN-safe: points whose metric evaluates to NaN are skipped entirely
    /// (under [`f64::total_cmp`] alone a NaN would outrank every finite
    /// value), so the result is `None` only for an empty sweep or when every
    /// metric is NaN. Ties resolve to the last tied point in sweep order
    /// (standard [`Iterator::max_by`] semantics).
    pub fn best_by<F: Fn(&PerfReport) -> f64>(&self, metric: F) -> Option<&SweepPoint> {
        self.points
            .iter()
            .map(|p| (p, metric(&p.report)))
            .filter(|(_, value)| !value.is_nan())
            .max_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(p, _)| p)
    }

    /// Formats the sweep as an aligned text table (one row per point).
    ///
    /// Every row is written straight into one shared buffer through
    /// `fmt::Write` — no intermediate `String` per cell or per row (the
    /// exact rendering is pinned by a unit test).
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(64 + self.points.len() * 80);
        let _ = writeln!(
            out,
            "{:<40} {:>12} {:>12} {:>12}",
            "point", "MB/s", "IOPS", "mean lat"
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "{:<40} {:>12.1} {:>12.0} {:>12}",
                p.label(),
                p.report.throughput_mbps,
                p.report.iops,
                p.report.mean_latency()
            );
        }
        out
    }
}

/// A parameter-sweep engine over arbitrary [`SsdConfig`] mutators.
///
/// Axes are applied in registration order to a clone of the base
/// configuration; the run evaluates the cartesian product of all axis
/// points against one [`CommandSource`]. Construction of each platform is
/// fallible ([`Ssd::try_new`]), so a bad mutation surfaces as a
/// [`SweepError`] instead of a panic.
///
/// # Determinism
///
/// This is the platform-wide determinism contract, stated once:
///
/// * **All randomness flows from `config.seed`.** Every stochastic
///   component stream (per-die program-time jitter, raw-bit-error draws)
///   is a [`SimRng`](ssdx_sim::rng::SimRng) forked from the configuration's
///   seed with a component-specific salt. There are no global, thread-local
///   or wall-clock entropy sources anywhere in the simulation.
/// * **Per-point derivation.** [`jobs`](Self::jobs) clones the base
///   configuration per point before mutating it, so each [`SweepJob`]
///   carries its own seed (axes may themselves sweep `cfg.seed`). A job's
///   platform is built, seeded and run entirely from that job's data.
/// * **Order independence.** Because jobs share nothing mutable, executing
///   them in any order — or concurrently via
///   [`run_parallel`](Self::run_parallel) /
///   [`ParallelExecutor`](crate::ParallelExecutor) — produces a [`Sweep`]
///   byte-identical to the sequential [`run`](Self::run). The
///   `parallel_sweep` integration suite asserts this at 1, 2, 4 and 8
///   threads, and the session suite asserts the analogous property one
///   level down: stepping a [`SimSession`] command by
///   command reproduces the one-shot [`Ssd::simulate`] byte for byte.
#[derive(Debug, Clone)]
pub struct Explorer {
    base: SsdConfig,
    axes: Vec<Axis>,
    steady_state: SteadyStateCutoff,
    warm_start: SteadyStateCutoff,
}

impl Explorer {
    /// Starts a sweep from the given base configuration. With no axes, the
    /// sweep evaluates exactly the base.
    pub fn new(base: SsdConfig) -> Self {
        Explorer {
            base,
            axes: Vec::new(),
            steady_state: SteadyStateCutoff::None,
            warm_start: SteadyStateCutoff::None,
        }
    }

    /// Adds a swept dimension.
    pub fn over(mut self, axis: Axis) -> Self {
        self.axes.push(axis);
        self
    }

    /// Applies warmup trimming to every evaluated point: completions the
    /// cutoff rejects are excluded from the per-class tail histograms
    /// ([`PerfReport::class_latency`](crate::PerfReport::class_latency)).
    /// The legacy report fields are untouched, so a sweep with a cutoff is
    /// still byte-identical to one without it everywhere the golden
    /// equivalence capture looks.
    pub fn steady_state(mut self, cutoff: SteadyStateCutoff) -> Self {
        self.steady_state = cutoff;
        self
    }

    /// Enables warm-start execution: before the sweep runs, the warmup
    /// prefix defined by `cutoff` is simulated **once per group of
    /// identical points** (same configuration, same preparation hooks) and
    /// captured as a [`Snapshot`]; every job in the group then
    /// [forks](SimSession::fork) from that image instead of replaying the
    /// warmup. By the fork-equivalence contract the sweep results stay
    /// byte-identical to a cold run — only the wall-clock cost of the
    /// warmup drops from per-point to per-group.
    ///
    /// Points with distinct configurations (the usual case for a swept
    /// axis) each form a group of one, which gets no image and runs cold,
    /// so warm-start never mixes state across configurations and costs a
    /// sweep of distinct points nothing; it pays off only when a sweep
    /// revisits one configuration many times (replica axes).
    /// [`SteadyStateCutoff::None`] (the default) disables warm-start
    /// entirely.
    pub fn warm_start(mut self, cutoff: SteadyStateCutoff) -> Self {
        self.warm_start = cutoff;
        self
    }

    /// Convenience for [`Axis::over`]: sweeps a value list through one
    /// mutator.
    pub fn over_values<T, F>(
        self,
        axis: impl Into<String>,
        values: impl IntoIterator<Item = T>,
        apply: F,
    ) -> Self
    where
        T: fmt::Display + Send + Sync + 'static,
        F: Fn(&mut SsdConfig, &T) + Send + Sync + 'static,
    {
        self.over(Axis::over(axis, values, apply))
    }

    /// Expands the cartesian product of all axes into concrete, validated
    /// [`SweepJob`]s — the batch the
    /// [`ParallelExecutor`](crate::ParallelExecutor) fans out, and what
    /// [`run`](Self::run) executes in place.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::EmptyAxis`] for an axis without points and
    /// [`SweepError::InvalidPoint`] for a combination whose configuration
    /// does not validate.
    pub fn jobs(&self) -> Result<Vec<SweepJob>, SweepError> {
        let mut jobs = vec![SweepJob {
            coordinates: Vec::new(),
            config: self.base.clone(),
            steady_state: self.steady_state,
            prepare: Vec::new(),
            warm_image: None,
        }];
        for axis in &self.axes {
            if axis.points.is_empty() {
                return Err(SweepError::EmptyAxis(axis.name.clone()));
            }
            let mut next = Vec::with_capacity(jobs.len() * axis.points.len());
            for job in &jobs {
                for point in &axis.points {
                    let mut config = job.config.clone();
                    (point.mutate)(&mut config);
                    let mut coordinates = job.coordinates.clone();
                    coordinates.push(AxisValue {
                        axis: axis.name.clone(),
                        value: point.label.clone(),
                    });
                    let mut prepare = job.prepare.clone();
                    if let Some(hook) = &point.prepare {
                        prepare.push(Arc::clone(hook));
                    }
                    next.push(SweepJob {
                        coordinates,
                        config,
                        steady_state: self.steady_state,
                        prepare,
                        warm_image: None,
                    });
                }
            }
            jobs = next;
        }
        for job in &jobs {
            job.config
                .validate()
                .map_err(|error| SweepError::InvalidPoint {
                    point: job.point_label(),
                    error,
                })?;
        }
        Ok(jobs)
    }

    /// The swept axis names, in application order — the `axes` field of the
    /// [`Sweep`] this explorer produces.
    pub fn axis_names(&self) -> Vec<String> {
        self.axes.iter().map(|a| a.name.clone()).collect()
    }

    /// Expands the sweep like [`jobs`](Self::jobs), then — if
    /// [`warm_start`](Self::warm_start) is set — simulates the warmup
    /// prefix once per group of two or more identical points (same
    /// configuration, same preparation hooks in the same order) against
    /// `source`, captures the steady-state image, and attaches it to every
    /// job in the group. [`SweepJob::execute`] then forks each run from the
    /// image instead of replaying the warmup.
    ///
    /// A group of one job gets no image: that job runs the whole stream
    /// cold on the executor, so a sweep of distinct points pays no serial
    /// warmup, capture or fork here. With warm-start disabled, or when
    /// every point is distinct, this is exactly [`jobs`](Self::jobs); both
    /// [`run`](Self::run) and the
    /// [`ParallelExecutor`](crate::ParallelExecutor) expand through here.
    ///
    /// # Errors
    ///
    /// Propagates the expansion errors of [`jobs`](Self::jobs); a group
    /// representative whose platform fails to build reports the same
    /// [`SweepError::InvalidPoint`] a cold run of that point would.
    pub fn warmed_jobs<S: CommandSource + ?Sized>(
        &self,
        source: &S,
    ) -> Result<Vec<SweepJob>, SweepError> {
        let mut jobs = self.jobs()?;
        if self.warm_start == SteadyStateCutoff::None {
            return Ok(jobs);
        }
        // Group jobs sharing a platform: equal configurations and the very
        // same hook chain (Arc identity — hook closures have no `Eq`).
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for index in 0..jobs.len() {
            let job = &jobs[index];
            match groups.iter_mut().find(|group| {
                let rep = &jobs[group[0]];
                rep.config == job.config && same_hooks(&rep.prepare, &job.prepare)
            }) {
                Some(group) => group.push(index),
                None => groups.push(vec![index]),
            }
        }
        // A group of one has nothing to share its warmup with: the job runs
        // the whole stream cold on the executor, which is byte-identical by
        // fork ≡ continuous and skips a serial warmup, a capture and a fork.
        for group in groups.into_iter().filter(|group| group.len() > 1) {
            let rep = &jobs[group[0]];
            let mut ssd =
                Ssd::try_new(rep.config.clone()).map_err(|error| SweepError::InvalidPoint {
                    point: rep.point_label(),
                    error,
                })?;
            for hook in &rep.prepare {
                hook(&mut ssd);
            }
            let mut session = ssd.session(source);
            session.steady_state(rep.steady_state);
            match self.warm_start {
                SteadyStateCutoff::None => unreachable!("checked above"),
                SteadyStateCutoff::Commands(count) => {
                    for _ in 0..count {
                        if session.step().is_none() {
                            break;
                        }
                    }
                }
                SteadyStateCutoff::SimulatedTime(deadline) => {
                    session.run_until(deadline);
                }
            }
            let image = Arc::new(session.capture());
            drop(session);
            for &index in &group {
                jobs[index].warm_image = Some(Arc::clone(&image));
            }
        }
        Ok(jobs)
    }

    /// Runs the source across every combination, returning one
    /// [`SweepPoint`] per evaluated configuration. With
    /// [`warm_start`](Self::warm_start) set, points are forked from
    /// per-group steady-state images ([`warmed_jobs`](Self::warmed_jobs))
    /// — the results are byte-identical either way.
    ///
    /// # Errors
    ///
    /// Propagates the expansion errors of [`jobs`](Self::jobs).
    pub fn run<S: CommandSource + ?Sized>(&self, source: &S) -> Result<Sweep, SweepError> {
        let jobs = self.warmed_jobs(source)?;
        let mut points = Vec::with_capacity(jobs.len());
        for job in &jobs {
            points.push(job.execute(source)?);
        }
        Ok(Sweep {
            axes: self.axis_names(),
            points,
        })
    }

    /// Runs the sweep across all available cores, producing a [`Sweep`]
    /// byte-identical to [`run`](Self::run) (see the determinism contract
    /// above). Equivalent to
    /// [`ParallelExecutor::new().run(self, source)`](crate::ParallelExecutor::run);
    /// build a [`ParallelExecutor`](crate::ParallelExecutor) explicitly to
    /// pin the thread count.
    ///
    /// # Errors
    ///
    /// Propagates the expansion errors of [`jobs`](Self::jobs) and the
    /// earliest failing job's [`SweepError::InvalidPoint`].
    pub fn run_parallel<S>(&self, source: &S) -> Result<Sweep, SweepError>
    where
        S: CommandSource + ?Sized,
    {
        crate::parallel::ParallelExecutor::new().run(self, source)
    }

    /// Runs the sweep once per source, prepending a `workload` axis to the
    /// result: every [`SweepPoint`] gains a leading
    /// `workload=<source label>` coordinate, and the sweep's `axes` lead
    /// with `"workload"`. This is how workload *parameters* (zipfian skew,
    /// burst shape, block-size mix, …) become sweep axes — encode each
    /// parameter choice as its own labelled source (the generative sources
    /// take `with_label` overrides for exactly this, so two burst shapes
    /// never collide on the default `bursty` label).
    ///
    /// The workload axis varies slowest (all points of the first source,
    /// then all points of the second, …); within one source the usual
    /// cartesian order applies. Each source's product is fanned out through
    /// [`run_parallel`](Self::run_parallel), which by the determinism
    /// contract changes nothing about the results.
    ///
    /// # Errors
    ///
    /// Propagates the expansion errors of [`jobs`](Self::jobs) and the
    /// earliest failing job's [`SweepError::InvalidPoint`].
    pub fn run_workloads(&self, sources: &[&dyn CommandSource]) -> Result<Sweep, SweepError> {
        let mut axes = vec!["workload".to_string()];
        axes.extend(self.axis_names());
        let mut points = Vec::new();
        for source in sources {
            let sweep = self.run_parallel(source)?;
            points.reserve(sweep.points.len());
            for mut point in sweep.points {
                point.coordinates.insert(
                    0,
                    AxisValue {
                        axis: "workload".to_string(),
                        value: source.label(),
                    },
                );
                points.push(point);
            }
        }
        Ok(Sweep { axes, points })
    }
}

/// An axis of artificial NAND aging: each point ages the constructed
/// platform to the given normalised rated endurance (0.0 fresh – 1.0 end
/// of life) before the source runs, leaving the configuration untouched.
pub fn endurance_axis(points: &[f64]) -> Axis {
    let mut axis = Axis::new("endurance");
    for &endurance in points {
        axis = axis.point_with_setup(
            format!("{endurance:.2}"),
            |_| {},
            move |ssd| ssd.age_to_normalized(endurance),
        );
    }
    axis
}

/// One bar group of Fig. 3 / Fig. 4: the three throughput columns of a
/// single SSD configuration.
///
/// Renamed from `SweepPoint` in 0.2 — that name now belongs to the generic
/// [`Explorer`] output (coordinates + full [`PerfReport`]). Code that
/// serialised the old three-column shape should migrate to this type.
#[must_use = "a host-sweep point carries the measured columns"]
#[derive(Debug, Clone, PartialEq)]
pub struct HostSweepPoint {
    /// Configuration name (e.g. "C6").
    pub config_name: String,
    /// Architecture summary.
    pub architecture: String,
    /// Number of NAND channels.
    pub channels: u32,
    /// Number of DRAM data buffers.
    pub dram_buffers: u32,
    /// Total dies.
    pub total_dies: u32,
    /// Throughput of the DRAM-to-flash back end alone, MB/s.
    pub ddr_flash_mbps: f64,
    /// Host-visible throughput with the write cache enabled, MB/s.
    pub ssd_cache_mbps: f64,
    /// Host-visible throughput with no write cache, MB/s.
    pub ssd_no_cache_mbps: f64,
}

impl HostSweepPoint {
    /// Controller-side resource cost used to rank design points, as the
    /// paper does: channels and DRAM buffers (controller pins, DRAM devices
    /// and channel controllers) dominate the cost, the die count breaks
    /// ties.
    pub fn resource_cost(&self) -> (u32, u32) {
        (self.channels + self.dram_buffers, self.total_dies)
    }
}

/// The full result of sweeping one host interface across a set of
/// configurations.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSweep {
    /// Host interface name.
    pub interface: String,
    /// Stand-alone ideal interface throughput, MB/s.
    pub interface_ideal_mbps: f64,
    /// Interface + DMA + DRAM best-case throughput, MB/s.
    pub interface_plus_dram_mbps: f64,
    /// Per-configuration columns.
    pub points: Vec<HostSweepPoint>,
}

impl HostSweep {
    /// The configurations that saturate the host interface: their cached
    /// throughput reaches at least `threshold` (e.g. 0.95) of the
    /// interface-plus-DRAM best case.
    pub fn saturating_points(&self, threshold: f64) -> Vec<&HostSweepPoint> {
        self.points
            .iter()
            .filter(|p| p.ssd_cache_mbps >= threshold * self.interface_plus_dram_mbps)
            .collect()
    }

    /// The optimal design point: among the saturating configurations, the
    /// one with the lowest resource cost (channels + DRAM buffers, dies as
    /// tie-break); if none saturates, the cheapest configuration overall
    /// (the paper's fallback when the no-cache SATA window flattens every
    /// configuration).
    pub fn optimal_design_point(&self, threshold: f64) -> Option<&HostSweepPoint> {
        let saturating = self.saturating_points(threshold);
        if saturating.is_empty() {
            self.points.iter().min_by_key(|p| p.resource_cost())
        } else {
            saturating.into_iter().min_by_key(|p| p.resource_cost())
        }
    }

    /// The Pareto-optimal design points of the cached throughput vs
    /// controller resource cost trade-off: a point is kept if no other point
    /// achieves at least its throughput at a lower or equal cost (used for
    /// the PCIe experiment, where the host interface no longer saturates and
    /// the search is driven by hardware cost).
    pub fn pareto_front(&self) -> Vec<&HostSweepPoint> {
        let mut front: Vec<&HostSweepPoint> = self
            .points
            .iter()
            .filter(|candidate| {
                !self.points.iter().any(|other| {
                    let strictly_better_perf = other.ssd_cache_mbps > candidate.ssd_cache_mbps;
                    let cheaper_or_equal = other.resource_cost() <= candidate.resource_cost();
                    strictly_better_perf && cheaper_or_equal
                })
            })
            .collect();
        front.sort_by_key(|p| p.resource_cost());
        front.dedup_by_key(|p| p.resource_cost());
        front
    }

    /// Formats the sweep as an aligned text table (one row per
    /// configuration), convenient for the experiment binaries.
    ///
    /// Rendered through one shared `fmt::Write` buffer (no per-row `String`
    /// allocations); the exact rendering is pinned by a unit test.
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(128 + self.points.len() * 96);
        let _ = writeln!(
            out,
            "host interface      : {} (ideal {:.0} MB/s, +DDR {:.0} MB/s)",
            self.interface, self.interface_ideal_mbps, self.interface_plus_dram_mbps
        );
        let _ = writeln!(
            out,
            "{:<6} {:<34} {:>12} {:>12} {:>14}",
            "config", "architecture", "DDR+FLASH", "SSD cache", "SSD no cache"
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "{:<6} {:<34} {:>10.1} MB/s {:>10.1} MB/s {:>12.1} MB/s",
                p.config_name,
                p.architecture,
                p.ddr_flash_mbps,
                p.ssd_cache_mbps,
                p.ssd_no_cache_mbps
            );
        }
        out
    }
}

/// Sweeps `configs` under the given host interface with an [`Explorer`]
/// over the configuration × cache-policy product, augmenting the
/// full-pipeline columns with the component-path reference series
/// (`ideal`, `+DDR`, `DDR+FLASH`) measured outside the session pipeline.
///
/// The full-pipeline product (the expensive part — two complete simulations
/// per configuration) is fanned out across all cores with
/// [`Explorer::run_parallel`]; by the determinism contract the result is
/// byte-identical to a sequential run, which `tests/parallel_sweep.rs` pins
/// for arbitrary sweeps.
///
/// # Errors
///
/// Returns [`SweepError::InvalidPoint`] if any supplied configuration does
/// not validate.
pub fn host_interface_study(
    host: HostInterfaceConfig,
    configs: &[SsdConfig],
    workload: &Workload,
) -> Result<HostSweep, SweepError> {
    if configs.is_empty() {
        return Ok(HostSweep {
            interface: host.name(),
            interface_ideal_mbps: 0.0,
            interface_plus_dram_mbps: 0.0,
            points: Vec::new(),
        });
    }

    let explorer = Explorer::new(configs[0].clone())
        .over(Axis::configs("config", configs.to_vec()))
        .over(Axis::new("host").point(host.name(), move |cfg| cfg.host_interface = host))
        .over(
            Axis::new("cache")
                .point(CachePolicy::WriteCache.label(), |cfg| {
                    cfg.cache_policy = CachePolicy::WriteCache;
                })
                .point(CachePolicy::NoCache.label(), |cfg| {
                    cfg.cache_policy = CachePolicy::NoCache;
                }),
        );
    let sweep = explorer.run_parallel(workload)?;

    let mut points = Vec::with_capacity(configs.len());
    let mut interface_ideal = 0.0;
    let mut interface_plus_dram: f64 = 0.0;
    for (index, base) in configs.iter().enumerate() {
        // Component-path reference series, measured on the cached variant
        // exactly as the paper's figures do.
        let mut component_cfg = base.clone();
        component_cfg.host_interface = host;
        component_cfg.cache_policy = CachePolicy::WriteCache;
        let mut ssd = Ssd::try_new(component_cfg).map_err(|error| SweepError::InvalidPoint {
            point: format!("config={}", base.name),
            error,
        })?;
        interface_ideal = ssd.interface_ideal_mbps();
        interface_plus_dram = interface_plus_dram.max(ssd.host_dram_only_mbps(workload));
        let ddr_flash = ssd.flash_path_mbps(workload);

        // The product expands config-major with the cache axis varying
        // fastest, so the two policy columns of configuration `index` sit at
        // fixed positions — a positional join that stays correct even when
        // two supplied configurations share a name.
        let cached = &sweep.points[index * 2];
        let no_cache = &sweep.points[index * 2 + 1];
        debug_assert_eq!(cached.value("cache"), Some(CachePolicy::WriteCache.label()));
        debug_assert_eq!(no_cache.value("cache"), Some(CachePolicy::NoCache.label()));

        points.push(HostSweepPoint {
            config_name: base.name.clone(),
            architecture: base.architecture_label(),
            channels: base.channels,
            dram_buffers: base.dram_buffers,
            total_dies: base.total_dies(),
            ddr_flash_mbps: ddr_flash,
            ssd_cache_mbps: cached.report.throughput_mbps,
            ssd_no_cache_mbps: no_cache.report.throughput_mbps,
        });
    }
    Ok(HostSweep {
        interface: host.name(),
        interface_ideal_mbps: interface_ideal,
        interface_plus_dram_mbps: interface_plus_dram,
        points,
    })
}

/// One sample of the wear-out experiment (Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearoutPoint {
    /// Normalised rated endurance (0.0 fresh – 1.0 end of life).
    pub normalized_endurance: f64,
    /// Sequential-read throughput at this wear level, MB/s.
    pub read_mbps: f64,
    /// Sequential-write throughput at this wear level, MB/s.
    pub write_mbps: f64,
}

/// Sweeps NAND wear from fresh to rated end of life for the given ECC
/// scheme on `config` with an [`Explorer`] over an [`endurance_axis`],
/// measuring sequential read and write throughput at each point (the paper
/// samples the normalised endurance axis 0.0–1.0). Both the read and the
/// write sweep run through [`Explorer::run_parallel`], one platform per
/// endurance point per worker thread.
///
/// # Errors
///
/// Returns [`SweepError::InvalidPoint`] if `config` does not validate.
pub fn wearout_study(
    config: &SsdConfig,
    ecc: EccScheme,
    endurance_points: &[f64],
    commands_per_point: u64,
) -> Result<Vec<WearoutPoint>, SweepError> {
    if endurance_points.is_empty() {
        return Ok(Vec::new());
    }
    let mut cfg = config.clone();
    cfg.ecc = ecc;
    let explorer = Explorer::new(cfg).over(endurance_axis(endurance_points));
    let read_wl = Workload::builder(AccessPattern::SequentialRead)
        .command_count(commands_per_point)
        .build();
    let write_wl = Workload::builder(AccessPattern::SequentialWrite)
        .command_count(commands_per_point)
        .build();
    let reads = explorer.run_parallel(&read_wl)?;
    let writes = explorer.run_parallel(&write_wl)?;
    Ok(endurance_points
        .iter()
        .zip(reads.points)
        .zip(writes.points)
        .map(|((&endurance, read), write)| WearoutPoint {
            normalized_endurance: endurance,
            read_mbps: read.report.throughput_mbps,
            write_mbps: write.report.throughput_mbps,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;

    fn quick_workload() -> Workload {
        Workload::builder(AccessPattern::SequentialWrite)
            .command_count(192)
            .build()
    }

    fn small_table() -> Vec<SsdConfig> {
        vec![
            SsdConfig::builder("small")
                .topology(2, 2, 1)
                .dram_buffers(2)
                .dram_buffer_capacity(128 * 1024)
                .build()
                .unwrap(),
            SsdConfig::builder("large")
                .topology(8, 4, 2)
                .dram_buffers(8)
                .dram_buffer_capacity(128 * 1024)
                .build()
                .unwrap(),
        ]
    }

    #[test]
    fn explorer_with_no_axes_runs_the_base_configuration() {
        let sweep = Explorer::new(small_table().remove(0))
            .run(&quick_workload())
            .unwrap();
        assert_eq!(sweep.len(), 1);
        assert!(sweep.axes.is_empty());
        assert_eq!(sweep.points[0].report.config_name, "small");
        assert_eq!(sweep.points[0].label(), "small");
        assert!(sweep.points[0].report.throughput_mbps > 0.0);
    }

    #[test]
    fn explorer_expands_the_cartesian_product_in_order() {
        let explorer = Explorer::new(small_table().remove(0))
            .over_values("channels", [2u32, 4], |cfg, &c| {
                cfg.channels = c;
                cfg.dram_buffers = c;
            })
            .over(
                Axis::new("cache")
                    .point("cache", |cfg| cfg.cache_policy = CachePolicy::WriteCache)
                    .point("no cache", |cfg| cfg.cache_policy = CachePolicy::NoCache),
            );
        let jobs = explorer.jobs().unwrap();
        assert_eq!(jobs.len(), 4);
        // Last axis varies fastest.
        assert_eq!(jobs[0].point_label(), "channels=2, cache=cache");
        assert_eq!(jobs[1].point_label(), "channels=2, cache=no cache");
        assert_eq!(jobs[3].point_label(), "channels=4, cache=no cache");
        assert_eq!(jobs[3].config.channels, 4);
        assert_eq!(jobs[3].config.cache_policy, CachePolicy::NoCache);

        let sweep = explorer.run(&quick_workload()).unwrap();
        assert_eq!(
            sweep.axes,
            vec!["channels".to_string(), "cache".to_string()]
        );
        assert_eq!(sweep.len(), 4);
        assert_eq!(sweep.points[2].value("channels"), Some("4"));
        // More channels must not hurt cached sequential writes.
        let best = sweep.best_by(|r| r.throughput_mbps).unwrap();
        assert_eq!(best.value("channels"), Some("4"));
        let table = sweep.to_table();
        assert!(table.contains("4 · no cache"), "{table}");
    }

    #[test]
    fn explorer_surfaces_invalid_points_instead_of_panicking() {
        let err = Explorer::new(small_table().remove(0))
            .over_values("channels", [0u32], |cfg, &c| cfg.channels = c)
            .run(&quick_workload())
            .unwrap_err();
        assert_eq!(
            err,
            SweepError::InvalidPoint {
                point: "channels=0".to_string(),
                error: ConfigError::ZeroDimension("channels"),
            }
        );
        assert!(err.to_string().contains("channels=0"));

        let empty = Explorer::new(small_table().remove(0))
            .over(Axis::new("void"))
            .run(&quick_workload())
            .unwrap_err();
        assert_eq!(empty, SweepError::EmptyAxis("void".to_string()));
    }

    #[test]
    fn axis_constructors_label_their_points() {
        let axis = Axis::over("qd", [1u32, 32], |cfg, &qd| {
            cfg.queue_depth_override = Some(qd);
        });
        assert_eq!(axis.name(), "qd");
        assert_eq!(axis.len(), 2);
        assert!(!axis.is_empty());

        let configs_axis = Axis::configs("config", small_table());
        assert_eq!(configs_axis.len(), 2);
        let jobs = Explorer::new(SsdConfig::default())
            .over(configs_axis)
            .jobs()
            .unwrap();
        assert_eq!(jobs[0].point_label(), "config=small");
        assert_eq!(jobs[1].config.channels, 8, "whole config replaced");
    }

    #[test]
    fn run_workloads_prepends_the_workload_axis() {
        let sw = quick_workload();
        let rr = Workload::builder(AccessPattern::RandomRead)
            .command_count(192)
            .build();
        let explorer =
            Explorer::new(small_table().remove(0)).over_values("channels", [2u32, 4], |cfg, &c| {
                cfg.channels = c;
                cfg.dram_buffers = c;
            });
        let sweep = explorer.run_workloads(&[&sw, &rr]).unwrap();
        assert_eq!(
            sweep.axes,
            vec!["workload".to_string(), "channels".to_string()]
        );
        assert_eq!(sweep.len(), 4, "2 workloads x 2 channel counts");
        assert_eq!(sweep.points[0].value("workload"), Some("SW"));
        assert_eq!(sweep.points[3].value("workload"), Some("RR"));
        assert_eq!(sweep.points[3].value("channels"), Some("4"));
        // Each workload's slice is byte-identical to running it directly.
        let direct = explorer.run(&rr).unwrap();
        assert_eq!(
            format!("{:?}", direct.points[1].report),
            format!("{:?}", sweep.points[3].report)
        );
    }

    #[test]
    fn steady_state_cutoff_flows_into_every_sweep_point() {
        let explorer =
            Explorer::new(small_table().remove(0)).steady_state(SteadyStateCutoff::Commands(64));
        let sweep = explorer.run(&quick_workload()).unwrap();
        assert_eq!(
            sweep.points[0].report.class_latency.count(),
            192 - 64,
            "the first 64 completions are warmup"
        );
        // The legacy fields are untouched by the cutoff.
        let untrimmed = Explorer::new(small_table().remove(0))
            .run(&quick_workload())
            .unwrap();
        assert_eq!(
            format!("{:?}", untrimmed.points[0].report),
            format!("{:?}", sweep.points[0].report)
        );
    }

    #[test]
    fn empty_sweep_accessors_degrade_gracefully() {
        let sweep = Sweep {
            axes: Vec::new(),
            points: Vec::new(),
        };
        assert!(sweep.is_empty());
        assert_eq!(sweep.len(), 0);
        assert!(sweep.best_by(|r| r.throughput_mbps).is_none());
        // The table still renders: the header row and nothing else.
        let table = sweep.to_table();
        assert_eq!(table.lines().count(), 1);
        assert!(table.contains("point"));
        assert!(table.contains("MB/s"));
    }

    #[test]
    fn best_by_skips_nan_metrics() {
        let sweep = Explorer::new(small_table().remove(0))
            .over_values("channels", [2u32, 4], |cfg, &c| {
                cfg.channels = c;
                cfg.dram_buffers = c;
            })
            .run(&quick_workload())
            .unwrap();
        // total_cmp alone would rank NaN above every number; best_by must
        // skip NaN metrics instead of electing them.
        assert!(sweep.best_by(|_| f64::NAN).is_none(), "all NaN -> None");
        // Mixed case: the faster (4-channel) point's metric is NaN, so the
        // slower point must win despite its lower throughput.
        let fast = sweep
            .best_by(|r| r.throughput_mbps)
            .unwrap()
            .report
            .throughput_mbps;
        let best = sweep
            .best_by(|r| {
                if r.throughput_mbps == fast {
                    f64::NAN
                } else {
                    r.throughput_mbps
                }
            })
            .expect("finite points remain eligible");
        assert_eq!(best.value("channels"), Some("2"));
    }

    #[test]
    fn value_handles_missing_axis_names() {
        let sweep = Explorer::new(small_table().remove(0))
            .over_values("channels", [2u32, 4], |cfg, &c| {
                cfg.channels = c;
                cfg.dram_buffers = c;
            })
            .run(&quick_workload())
            .unwrap();
        assert_eq!(sweep.points[0].value("no-such-axis"), None);
        assert_eq!(sweep.points[0].value("channels"), Some("2"));
    }

    #[test]
    fn sweep_table_rendering_is_pinned() {
        use crate::metrics::LatencyHistogram;
        use crate::report::{PerfReport, UtilizationBreakdown};
        use ssdx_sim::SimTime;
        let mut latency = LatencyHistogram::new();
        latency.record(SimTime::from_us(100));
        let report = |name: &str, mbps: f64, iops: f64| PerfReport {
            config_name: name.to_string(),
            architecture: "arch".to_string(),
            workload: "SW".to_string(),
            policy: "cache".to_string(),
            commands: 10,
            bytes: 40_960,
            elapsed: SimTime::from_ms(1),
            throughput_mbps: mbps,
            iops,
            waf: 1.0,
            nand_page_programs: 20,
            nand_page_reads: 0,
            latency: Box::new(latency),
            utilization: UtilizationBreakdown::default(),
            class_latency: Box::new(crate::metrics::ClassHistograms::new()),
        };
        let sweep = Sweep {
            axes: vec!["channels".to_string()],
            points: vec![
                SweepPoint {
                    coordinates: vec![AxisValue {
                        axis: "channels".to_string(),
                        value: "2".to_string(),
                    }],
                    report: report("a", 123.45, 30_000.0),
                },
                SweepPoint {
                    coordinates: vec![AxisValue {
                        axis: "channels".to_string(),
                        value: "4".to_string(),
                    }],
                    report: report("b", 240.0, 58_593.75),
                },
            ],
        };
        // The exact rendering is part of the experiment drivers' recorded
        // output; pin it so the shared-buffer rewrite (and any future
        // change) cannot silently reformat the tables.
        // (`mean lat` renders through SimTime's Display, which does not
        // consume the width flag — the column is ragged, as it always was.)
        let expected = "\
point                                            MB/s         IOPS     mean lat\n\
2                                               123.5        30000 100 us\n\
4                                               240.0        58594 100 us\n";
        assert_eq!(sweep.to_table(), expected);
    }

    #[test]
    fn host_sweep_table_rendering_is_pinned() {
        let sweep = HostSweep {
            interface: "SATA II".to_string(),
            interface_ideal_mbps: 279.0,
            interface_plus_dram_mbps: 250.5,
            points: vec![HostSweepPoint {
                config_name: "C1".to_string(),
                architecture: "1-DDR-buf;1-CHN;1-WAY;1-DIE".to_string(),
                channels: 1,
                dram_buffers: 1,
                total_dies: 1,
                ddr_flash_mbps: 10.04,
                ssd_cache_mbps: 9.96,
                ssd_no_cache_mbps: 8.0,
            }],
        };
        let expected = "\
host interface      : SATA II (ideal 279 MB/s, +DDR 250 MB/s)\n\
config architecture                          DDR+FLASH    SSD cache   SSD no cache\n\
C1     1-DDR-buf;1-CHN;1-WAY;1-DIE              10.0 MB/s       10.0 MB/s          8.0 MB/s\n";
        assert_eq!(sweep.to_table(), expected);
    }

    #[test]
    fn host_interface_study_produces_one_point_per_config() {
        let sweep = host_interface_study(
            HostInterfaceConfig::Sata2,
            &small_table(),
            &quick_workload(),
        )
        .unwrap();
        assert_eq!(sweep.points.len(), 2);
        assert!(sweep.interface_ideal_mbps > 200.0);
        assert!(sweep.interface_plus_dram_mbps > 0.0);
        assert!(sweep.points[1].ddr_flash_mbps > sweep.points[0].ddr_flash_mbps);
        let table = sweep.to_table();
        assert!(table.contains("DDR+FLASH"));
        assert!(table.contains("small"));
    }

    #[test]
    fn optimal_design_point_prefers_cheapest_controller_among_saturating() {
        let sweep = HostSweep {
            interface: "test".to_string(),
            interface_ideal_mbps: 280.0,
            interface_plus_dram_mbps: 250.0,
            points: vec![
                HostSweepPoint {
                    config_name: "tiny".into(),
                    architecture: String::new(),
                    channels: 2,
                    dram_buffers: 2,
                    total_dies: 8,
                    ddr_flash_mbps: 50.0,
                    ssd_cache_mbps: 50.0,
                    ssd_no_cache_mbps: 40.0,
                },
                HostSweepPoint {
                    config_name: "right".into(),
                    architecture: String::new(),
                    channels: 16,
                    dram_buffers: 16,
                    total_dies: 512,
                    ddr_flash_mbps: 300.0,
                    ssd_cache_mbps: 248.0,
                    ssd_no_cache_mbps: 60.0,
                },
                HostSweepPoint {
                    config_name: "huge".into(),
                    architecture: String::new(),
                    channels: 32,
                    dram_buffers: 32,
                    total_dies: 256,
                    ddr_flash_mbps: 900.0,
                    ssd_cache_mbps: 250.0,
                    ssd_no_cache_mbps: 60.0,
                },
            ],
        };
        assert_eq!(sweep.saturating_points(0.95).len(), 2);
        assert_eq!(
            sweep.optimal_design_point(0.95).unwrap().config_name,
            "right"
        );
    }

    #[test]
    fn optimal_design_point_falls_back_to_smallest_config() {
        let sweep = HostSweep {
            interface: "test".to_string(),
            interface_ideal_mbps: 280.0,
            interface_plus_dram_mbps: 250.0,
            points: vec![
                HostSweepPoint {
                    config_name: "a".into(),
                    architecture: String::new(),
                    channels: 4,
                    dram_buffers: 4,
                    total_dies: 32,
                    ddr_flash_mbps: 40.0,
                    ssd_cache_mbps: 40.0,
                    ssd_no_cache_mbps: 40.0,
                },
                HostSweepPoint {
                    config_name: "b".into(),
                    architecture: String::new(),
                    channels: 8,
                    dram_buffers: 8,
                    total_dies: 64,
                    ddr_flash_mbps: 60.0,
                    ssd_cache_mbps: 60.0,
                    ssd_no_cache_mbps: 42.0,
                },
            ],
        };
        assert!(sweep.saturating_points(0.95).is_empty());
        assert_eq!(sweep.optimal_design_point(0.95).unwrap().config_name, "a");
    }

    #[test]
    fn pareto_front_keeps_only_undominated_points() {
        let mk = |name: &str, channels: u32, dies: u32, cache: f64| HostSweepPoint {
            config_name: name.into(),
            architecture: String::new(),
            channels,
            dram_buffers: channels,
            total_dies: dies,
            ddr_flash_mbps: cache,
            ssd_cache_mbps: cache,
            ssd_no_cache_mbps: cache,
        };
        let sweep = HostSweep {
            interface: "test".to_string(),
            interface_ideal_mbps: 3400.0,
            interface_plus_dram_mbps: 1700.0,
            points: vec![
                mk("C1", 4, 32, 36.0),
                mk("C5", 8, 512, 156.0),
                // C3 has fewer dies than C5 (cheaper tie-break), so it stays
                // on the front even though C5 is faster.
                mk("C3", 8, 128, 147.0),
                mk("C6", 16, 512, 314.0),
                // C8 is dominated by C6: faster and cheaper on the
                // controller side (fewer channels and buffers).
                mk("C8", 32, 256, 304.0),
                mk("C10", 32, 1024, 630.0),
            ],
        };
        let front: Vec<&str> = sweep
            .pareto_front()
            .iter()
            .map(|p| p.config_name.as_str())
            .collect();
        assert_eq!(front, vec!["C1", "C3", "C5", "C6", "C10"]);
    }

    #[test]
    fn wearout_study_shows_adaptive_advantage_early_in_life() {
        let cfg = configs::fig5_config(EccScheme::fixed_bch(40));
        let points = [0.0, 1.0];
        let fixed = wearout_study(&cfg, EccScheme::fixed_bch(40), &points, 96).unwrap();
        let adaptive = wearout_study(&cfg, EccScheme::adaptive_bch(40), &points, 96).unwrap();
        assert_eq!(fixed.len(), 2);
        // Fresh device: adaptive reads faster.
        assert!(adaptive[0].read_mbps > fixed[0].read_mbps);
        // End of life: both run the worst-case code.
        let ratio = adaptive[1].read_mbps / fixed[1].read_mbps;
        assert!((0.85..1.15).contains(&ratio), "ratio = {ratio}");
        // Writes are much less sensitive to the ECC choice than reads.
        let write_gap =
            (adaptive[0].write_mbps - fixed[0].write_mbps).abs() / fixed[0].write_mbps.max(1e-9);
        assert!(write_gap < 0.15, "write gap = {write_gap}");
    }
}
