//! Fault injection and device aging as first-class [`Explorer`] axes.
//!
//! The reliability campaign answers the question the healthy-device studies
//! cannot: *what do the tail latencies look like once the device degrades?*
//! Each degradation mechanism is packaged as one [`Axis`] constructor, so a
//! fault source composes with any other sweep dimension exactly like
//! channels or cache policy:
//!
//! * [`read_disturb_axis`] — per-read raw-bit-error growth
//!   ([`FaultConfig::read_disturb_per_read`]): repeated reads of a hot block
//!   accumulate errors and escalate the adaptive ECC;
//! * [`retention_axis`] — retention-driven multiplication of the wear-based
//!   raw error rate ([`FaultConfig::retention_scale`]), swept on an aged
//!   platform (a fresh device has nothing to multiply);
//! * [`retirement_axis`] — block retirement on an erase-count budget
//!   ([`FaultConfig::retire_pe_limit`]): retired blocks leave the free pool
//!   for good, shrinking the over-provisioning until garbage collection
//!   runs hot and, at the limit, the device reports out of space;
//! * [`power_loss_axis`] — power loss mid-garbage-collection after a fixed
//!   number of commands ([`FaultConfig::power_loss_at`]), followed by the
//!   recovery replay that rebuilds the mapping table from the out-of-band
//!   journal (built on the PR-8 snapshot/fork machinery — the trigger is
//!   the snapshot-encoded command cursor);
//! * the existing [`endurance_axis`] —
//!   artificial aging to a normalised rated endurance — covers end-of-life
//!   wear itself.
//!
//! [`fault_campaign`] runs the canonical study: one sub-sweep per fault
//! source on a page-mapped platform (so retirement, GC pressure and the
//! recovery replay are real, not analytic), reporting steady-state
//! per-class tail latencies for every degradation point.
//!
//! # Determinism
//!
//! Fault injection adds **no** entropy source: read-disturb and retention
//! scaling are deterministic functions of the per-block read/erase
//! counters, retirement is a threshold on the erase counter, and the
//! power-loss trigger is an exact command index. Everything flows from
//! `config.seed` exactly as the determinism contract on [`Explorer`]
//! requires, so two runs of the campaign — sequential or parallel — print
//! identical bytes. Fault sweeps may also be warm-started
//! ([`Explorer::warm_start`]): the power-loss trigger keys on the command
//! cursor, which is snapshot state, so a trigger inside the warmup fires
//! while the image is built and one after it fires in the forked run.

use crate::config::{FaultConfig, FtlMode, SsdConfig};
use crate::explorer::{endurance_axis, Axis, Explorer, Sweep, SweepError, SweepPoint};
use crate::metrics::{push_json_escaped, tail_table, write_tail_classes, SteadyStateCutoff};
use ssdx_hostif::{generative, CommandSource, ZipfianWorkload};

/// An axis sweeping the per-read disturb coefficient: each point sets
/// [`FaultConfig::read_disturb_per_read`], leaving everything else at the
/// base configuration. `0.0` is the healthy reference point.
pub fn read_disturb_axis(points: &[f64]) -> Axis {
    Axis::over("read_disturb", points.to_vec(), |cfg, &v| {
        cfg.faults.read_disturb_per_read = v;
    })
}

/// An axis sweeping the retention multiplier on the wear-driven raw error
/// rate: each point sets [`FaultConfig::retention_scale`]. `1.0` is the
/// healthy reference point. Sweep this on an aged platform (e.g. behind an
/// [`endurance_axis`] point, as
/// [`fault_campaign`] does) — a fresh device has almost no wear-driven
/// errors to multiply.
pub fn retention_axis(points: &[f64]) -> Axis {
    Axis::over("retention", points.to_vec(), |cfg, &v| {
        cfg.faults.retention_scale = v;
    })
}

/// An axis sweeping the block-retirement budget: each point sets
/// [`FaultConfig::retire_pe_limit`], the erase count at which a block is
/// retired instead of returning to the free pool. `u64::MAX` (labelled
/// `off`) disables retirement and is the healthy reference point. Only
/// meaningful in [`FtlMode::PageMapped`] — the analytic WAF model has no
/// blocks to retire.
pub fn retirement_axis(limits: &[u64]) -> Axis {
    let mut axis = Axis::new("retire_limit");
    for &limit in limits {
        let label = if limit == u64::MAX {
            "off".to_string()
        } else {
            limit.to_string()
        };
        axis = axis.point(label, move |cfg| cfg.faults.retire_pe_limit = limit);
    }
    axis
}

/// An axis sweeping the power-loss point: each point sets
/// [`FaultConfig::power_loss_at`], the command count after which power is
/// cut mid-garbage-collection and the recovery replay rebuilds the mapping
/// table. `u64::MAX` (labelled `off`) disables the fault and is the healthy
/// reference point. Only meaningful in [`FtlMode::PageMapped`] — there is
/// no mapping table to lose otherwise.
pub fn power_loss_axis(points: &[u64]) -> Axis {
    let mut axis = Axis::new("power_loss");
    for &at in points {
        let label = if at == u64::MAX {
            "off".to_string()
        } else {
            at.to_string()
        };
        axis = axis.point(label, move |cfg| cfg.faults.power_loss_at = at);
    }
    axis
}

/// The result of a [`fault_campaign`]: one sweep point per degradation
/// scenario, each carrying a full [`PerfReport`](crate::PerfReport) with
/// per-class tail histograms. The `axes` field lists every swept fault
/// dimension; each point's coordinates name the sub-sweep it came from
/// (e.g. `retire_limit=2`).
#[must_use = "a fault study carries the measured percentiles"]
#[derive(Debug, Clone)]
pub struct FaultStudy {
    /// The underlying sweep: the concatenated per-fault-source sub-sweeps.
    pub sweep: Sweep,
}

/// `axis=value` scenario label of one campaign point (points carry one
/// coordinate per swept dimension of their sub-sweep).
fn scenario(point: &SweepPoint) -> String {
    point
        .coordinates
        .iter()
        .map(|c| format!("{}={}", c.axis, c.value))
        .collect::<Vec<_>>()
        .join(" ")
}

impl FaultStudy {
    /// Formats the campaign as an aligned percentile table (all times in
    /// microseconds): one row per scenario × command class (classes with no
    /// samples are skipped). Rendered through one shared `fmt::Write`
    /// buffer; the exact rendering is pinned by a unit test.
    pub fn to_table(&self) -> String {
        tail_table(
            "scenario",
            30,
            self.sweep
                .points
                .iter()
                .map(|point| (scenario(point), &point.report)),
        )
    }

    /// Machine-readable JSON emission (hand rolled — the workspace has no
    /// serialization framework), mirroring `experiments -- faults --json`.
    /// Scenario and workload labels are JSON-escaped.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.sweep.points.len() * 512);
        out.push_str("{\n  \"schema\": \"ssdx-fault-tails/v1\",\n  \"scenarios\": [\n");
        for (si, point) in self.sweep.points.iter().enumerate() {
            out.push_str("    {\n      \"scenario\": \"");
            push_json_escaped(&mut out, &scenario(point));
            out.push_str("\",\n      \"workload\": \"");
            push_json_escaped(&mut out, &point.report.workload);
            out.push_str("\",\n");
            write_tail_classes(&mut out, &point.report);
            out.push_str(if si + 1 < self.sweep.points.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Runs the canonical degraded-device campaign on `base`: five fault/aging
/// axes — artificial endurance aging, read-disturb growth, retention error
/// scaling (on an aged platform), block retirement and mid-GC power loss
/// with recovery replay — each swept as its own sub-sweep and concatenated
/// into one [`FaultStudy`].
///
/// The platform is forced to [`FtlMode::PageMapped`] so retirement, GC
/// pressure and the recovery replay are mechanically real. The wear-facing
/// axes run the read-heavy [`generative::degraded_probe`]; the FTL-facing
/// axes run a write-heavy small-footprint churn workload that keeps the
/// garbage collector busy. Both are seeded from `base.seed`, so the study
/// is fully deterministic: same configuration, same table, byte for byte.
///
/// # Errors
///
/// Returns [`SweepError::InvalidPoint`] if `base` does not validate.
pub fn fault_campaign(
    base: &SsdConfig,
    commands_per_point: u64,
    warmup: SteadyStateCutoff,
) -> Result<FaultStudy, SweepError> {
    let mut cfg = base.clone();
    cfg.ftl_mode = FtlMode::PageMapped;
    cfg.faults = FaultConfig::healthy();

    let probe = generative::degraded_probe(cfg.seed).command_count(commands_per_point);
    let churn = gc_churn(cfg.seed, commands_per_point);

    let sub = |axes: Vec<Axis>, source: &dyn CommandSource| -> Result<Sweep, SweepError> {
        let mut explorer = Explorer::new(cfg.clone()).steady_state(warmup);
        for axis in axes {
            explorer = explorer.over(axis);
        }
        // Fanned out across all cores; byte-identical to a sequential run
        // by the determinism contract on `Explorer`.
        explorer.run_parallel(source)
    };

    // One sub-sweep per fault source. Each is one-dimensional (the
    // retention sweep pins a single aged endurance point first), so every
    // resulting point is a self-describing `axis=value` scenario.
    let sweeps = [
        sub(vec![endurance_axis(&[0.0, 0.6, 1.0])], &probe)?,
        sub(vec![read_disturb_axis(&[0.0, 0.02, 0.1])], &probe)?,
        sub(
            vec![endurance_axis(&[0.8]), retention_axis(&[1.0, 2.0, 4.0])],
            &probe,
        )?,
        sub(vec![retirement_axis(&[u64::MAX, 2, 1])], &churn)?,
        sub(vec![power_loss_axis(&[u64::MAX, 256, 1024])], &churn)?,
    ];

    let mut axes: Vec<String> = Vec::new();
    let mut points = Vec::new();
    for sweep in sweeps {
        for axis in sweep.axes {
            if !axes.contains(&axis) {
                axes.push(axis);
            }
        }
        points.extend(sweep.points);
    }
    Ok(FaultStudy {
        sweep: Sweep { axes, points },
    })
}

/// The churn workload of the FTL-facing axes: write-heavy zipfian traffic
/// over a footprint small enough that the run overwrites it several times,
/// so garbage collection (and therefore retirement and mid-GC power loss)
/// actually happens within the swept command budget.
fn gc_churn(seed: u64, commands: u64) -> ZipfianWorkload {
    ZipfianWorkload::new(0.9, seed)
        .read_fraction(0.05)
        .footprint_bytes(2 << 20)
        .command_count(commands)
        .with_label("gc-churn")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::tests::one_point_tail_sweep;

    #[test]
    fn fault_table_rendering_is_pinned() {
        let study = FaultStudy {
            sweep: one_point_tail_sweep("retire_limit", "2"),
        };
        // The same quantiles as the pinned tail table, under a 30-wide
        // scenario column; the JSON also names the workload.
        let expected = "\
scenario                       class     count   mean(us)    p50(us)    p95(us)    p99(us)  p99.9(us)\n\
retire_limit=2                 read          4      250.0      200.7      400.0      400.0      400.0\n\
retire_limit=2                 write         1     1000.0     1000.0     1000.0     1000.0     1000.0\n";
        assert_eq!(study.to_table(), expected);
        let expected = r#"{
  "schema": "ssdx-fault-tails/v1",
  "scenarios": [
    {
      "scenario": "retire_limit=2",
      "workload": "zipf-0.99",
      "classes": [
        {"class": "read", "count": 4, "mean_ns": 250000, "p50_ns": 200703, "p95_ns": 400000, "p99_ns": 400000, "p999_ns": 400000, "max_ns": 400000},
        {"class": "write", "count": 1, "mean_ns": 1000000, "p50_ns": 1000000, "p95_ns": 1000000, "p99_ns": 1000000, "p999_ns": 1000000, "max_ns": 1000000}
      ]
    }
  ]
}
"#;
        assert_eq!(study.to_json(), expected);
    }

    #[test]
    fn fault_axes_label_their_points() {
        let rd = read_disturb_axis(&[0.0, 0.05]);
        assert_eq!(rd.name(), "read_disturb");
        assert_eq!(rd.len(), 2);
        let retention = retention_axis(&[1.0, 4.0]);
        assert_eq!(retention.name(), "retention");
        let retire = retirement_axis(&[u64::MAX, 3]);
        assert_eq!(retire.name(), "retire_limit");
        let power = power_loss_axis(&[u64::MAX, 64]);
        assert_eq!(power.name(), "power_loss");

        // The sentinel points are labelled `off`, not a 20-digit number.
        let jobs = Explorer::new(campaign_base())
            .over(retirement_axis(&[u64::MAX, 3]))
            .over(power_loss_axis(&[u64::MAX, 64]))
            .jobs()
            .unwrap();
        assert_eq!(jobs[0].point_label(), "retire_limit=off, power_loss=off");
        assert_eq!(jobs[3].point_label(), "retire_limit=3, power_loss=64");
        assert_eq!(jobs[3].config.faults.retire_pe_limit, 3);
        assert_eq!(jobs[3].config.faults.power_loss_at, 64);
    }

    fn campaign_base() -> SsdConfig {
        let mut cfg = SsdConfig::builder("fault-test")
            .topology(2, 2, 1)
            .dram_buffers(2)
            .dram_buffer_capacity(128 * 1024)
            .build()
            .unwrap();
        cfg.seed = 11;
        cfg
    }

    #[test]
    fn fault_campaign_covers_every_axis_and_is_deterministic() {
        let base = campaign_base();
        let warmup = SteadyStateCutoff::Commands(32);
        let study = fault_campaign(&base, 256, warmup).unwrap();
        assert_eq!(
            study.sweep.axes,
            vec![
                "endurance".to_string(),
                "read_disturb".to_string(),
                "retention".to_string(),
                "retire_limit".to_string(),
                "power_loss".to_string(),
            ]
        );
        // 3 aging + 3 read-disturb + 3 retention + 3 retirement + 3 power
        // loss scenarios.
        assert_eq!(study.sweep.len(), 15);

        // Byte-identical across repeated runs — the determinism contract.
        let again = fault_campaign(&base, 256, warmup).unwrap();
        assert_eq!(study.to_table(), again.to_table());
        assert_eq!(study.to_json(), again.to_json());

        let table = study.to_table();
        assert!(table.contains("retire_limit=off"), "{table}");
        assert!(table.contains("power_loss=256"), "{table}");
        assert!(table.contains("endurance=0.80 retention=4"), "{table}");
        let json = study.to_json();
        assert!(json.contains("\"schema\": \"ssdx-fault-tails/v1\""));
        assert!(json.contains("\"scenario\": \"read_disturb=0.1\""));
        assert!(json.contains("\"workload\": \"gc-churn\""));
    }

    #[test]
    fn warm_started_campaign_is_byte_identical_to_cold() {
        // Warm start under the campaign's stateful faults: the endurance
        // axis ages each platform in a prepare hook, and the power-loss
        // triggers fall inside the 32-command warmup (16) and after the
        // capture (96), where only the forked run can fire them.
        let mut cfg = campaign_base();
        cfg.ftl_mode = FtlMode::PageMapped;
        let warmup = SteadyStateCutoff::Commands(32);
        let churn = gc_churn(cfg.seed, 192);
        let explorer = Explorer::new(cfg)
            .steady_state(warmup)
            .over(endurance_axis(&[0.0, 0.8]))
            .over(power_loss_axis(&[u64::MAX, 16, 96]));
        let cold = explorer.run(&churn).unwrap();
        let warm = explorer.warm_start(warmup).run_parallel(&churn).unwrap();
        assert_eq!(format!("{cold:?}"), format!("{warm:?}"));

        let report = |i: usize| format!("{:?}", warm.points[i].report);
        assert_eq!(warm.points[2].value("power_loss"), Some("96"));
        assert_ne!(report(0), report(2), "the post-capture trigger must fire");
    }

    #[test]
    fn degraded_scenarios_move_the_tail() {
        // The campaign exists to show degradation in the latency tail: at
        // full endurance with a 4x retention multiplier, the adaptive ECC
        // decodes against far more raw errors than on the healthy point, so
        // the read mean must not be faster. (Exact magnitudes are pinned by
        // the determinism tests, not here — this guards the mechanism.)
        let base = campaign_base();
        let study = fault_campaign(&base, 256, SteadyStateCutoff::None).unwrap();
        let healthy = &study.sweep.points[6]; // endurance=0.80 retention=1
        let degraded = &study.sweep.points[8]; // endurance=0.80 retention=4
        assert_eq!(healthy.value("retention"), Some("1"));
        assert_eq!(degraded.value("retention"), Some("4"));
        assert!(
            degraded.report.mean_latency() >= healthy.report.mean_latency(),
            "degraded {:?} vs healthy {:?}",
            degraded.report.mean_latency(),
            healthy.report.mean_latency()
        );
    }
}
