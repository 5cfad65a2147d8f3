//! Performance reports: the per-component breakdown the paper's figures are
//! built from, extended with per-command-class tail-latency histograms.

use crate::metrics::{ClassHistograms, CommandClass, LatencyHistogram, TailSummary};
use ssdx_sim::SimTime;
use std::fmt;

/// Per-component utilization summary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UtilizationBreakdown {
    /// Host-interface link utilization (0–1).
    pub host_link: f64,
    /// Average DRAM data-bus utilization across buffers (0–1).
    pub dram: f64,
    /// Controller CPU utilization (0–1).
    pub cpu: f64,
    /// AHB system-interconnect utilization (0–1).
    pub ahb: f64,
    /// Average ONFI channel-bus utilization (0–1).
    pub channel_bus: f64,
    /// Average NAND die (array) utilization (0–1).
    pub die: f64,
}

/// The result of simulating one workload on one SSD configuration.
#[must_use = "a performance report carries the measured results"]
#[derive(Clone)]
pub struct PerfReport {
    /// Configuration name (e.g. "C6").
    pub config_name: String,
    /// Architecture summary (e.g. `16-DDR-buf;16-CHN;8-WAY;4-DIE`).
    pub architecture: String,
    /// Workload label (e.g. "SW" for sequential write).
    pub workload: String,
    /// DRAM-buffer policy label ("cache" / "no cache").
    pub policy: String,
    /// Host commands completed.
    pub commands: u64,
    /// Host payload bytes moved.
    pub bytes: u64,
    /// Simulated time from the first admission to the last completion.
    pub elapsed: SimTime,
    /// Host-visible throughput in MB/s (the paper's `SSD` column).
    pub throughput_mbps: f64,
    /// Host-visible I/O operations per second.
    pub iops: f64,
    /// Write amplification factor applied by the FTL abstraction.
    pub waf: f64,
    /// Physical NAND page programs issued (host + amplified traffic).
    pub nand_page_programs: u64,
    /// Physical NAND page reads issued.
    pub nand_page_reads: u64,
    /// End-to-end command latency distribution over the whole run, warmup
    /// included: the [`class_latency`](Self::class_latency) classes merged
    /// with the completions the session's
    /// [`SteadyStateCutoff`](crate::SteadyStateCutoff) left out of them.
    /// Boxed like `class_latency`.
    pub latency: Box<LatencyHistogram>,
    /// Per-component utilization.
    pub utilization: UtilizationBreakdown,
    /// Steady-state latency histograms per command class (read / write /
    /// trim), recorded past the session's
    /// [`SteadyStateCutoff`](crate::SteadyStateCutoff). Digest them with
    /// [`tails`](Self::tails) / [`tail`](Self::tail). Boxed: the inline
    /// bucket arrays are ~46 KB, and sweeps hold one report per point —
    /// boxing keeps report moves pointer-sized (one allocation at
    /// `finish`, far from the per-step hot path).
    pub class_latency: Box<ClassHistograms>,
}

impl fmt::Debug for PerfReport {
    /// The `Debug` rendering is the golden-equivalence capture format: it
    /// pins exactly the pre-metrics field set, character for character
    /// (`tests/golden/perf_reports.txt` compares it byte-for-byte across
    /// every subsystem corner), with `latency` in its power-of-two view. The
    /// tail-latency extension renders through [`tails`](Self::tails) and
    /// `Display` instead, so growing the report never invalidates the
    /// capture.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PerfReport")
            .field("config_name", &self.config_name)
            .field("architecture", &self.architecture)
            .field("workload", &self.workload)
            .field("policy", &self.policy)
            .field("commands", &self.commands)
            .field("bytes", &self.bytes)
            .field("elapsed", &self.elapsed)
            .field("throughput_mbps", &self.throughput_mbps)
            .field("iops", &self.iops)
            .field("waf", &self.waf)
            .field("nand_page_programs", &self.nand_page_programs)
            .field("nand_page_reads", &self.nand_page_reads)
            .field("latency", &self.latency.pow2())
            .field("utilization", &self.utilization)
            .finish()
    }
}

impl PerfReport {
    /// Mean command latency.
    pub fn mean_latency(&self) -> SimTime {
        self.latency.mean()
    }

    /// Approximate 99th-percentile command latency, resolved to the upper
    /// bound of its power-of-two bucket.
    pub fn p99_latency(&self) -> SimTime {
        self.latency.pow2().percentile(99.0)
    }

    /// Steady-state percentile digest of one command class.
    pub fn tail(&self, class: CommandClass) -> TailSummary {
        TailSummary::from_histogram(class, self.class_latency.class(class))
    }

    /// Steady-state percentile digests of all three classes, in
    /// [`CommandClass::ALL`] order.
    pub fn tails(&self) -> [TailSummary; 3] {
        self.class_latency.summaries()
    }

    /// Steady-state latency at quantile `q` (`0.0..=1.0`) for one command
    /// class.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `0.0..=1.0`.
    pub fn tail_quantile(&self, class: CommandClass, q: f64) -> SimTime {
        self.class_latency.class(class).quantile(q)
    }

    /// A compact single-line summary, handy for sweep printouts.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<18} {:<10} {:<9} {:>9.1} MB/s {:>11.0} IOPS  mean {:>10}  p99 {:>10}",
            self.config_name,
            self.workload,
            self.policy,
            self.throughput_mbps,
            self.iops,
            self.mean_latency(),
            self.p99_latency(),
        )
    }
}

impl fmt::Display for PerfReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "configuration : {} ({})",
            self.config_name, self.architecture
        )?;
        writeln!(f, "workload      : {} ({})", self.workload, self.policy)?;
        writeln!(f, "commands      : {}", self.commands)?;
        writeln!(f, "payload       : {:.1} MB", self.bytes as f64 / 1e6)?;
        writeln!(f, "elapsed       : {}", self.elapsed)?;
        writeln!(
            f,
            "throughput    : {:.1} MB/s ({:.0} IOPS)",
            self.throughput_mbps, self.iops
        )?;
        writeln!(f, "write ampl.   : {:.2}", self.waf)?;
        writeln!(
            f,
            "nand traffic  : {} programs, {} reads",
            self.nand_page_programs, self.nand_page_reads
        )?;
        writeln!(
            f,
            "latency       : mean {}, p99 {}",
            self.mean_latency(),
            self.p99_latency()
        )?;
        for tail in self.tails() {
            if tail.count == 0 {
                continue;
            }
            writeln!(
                f,
                "tail ({:<5})  : p50 {}, p95 {}, p99 {}, p99.9 {} over {} steady-state samples",
                tail.class.label(),
                tail.p50,
                tail.p95,
                tail.p99,
                tail.p999,
                tail.count,
            )?;
        }
        writeln!(
            f,
            "utilization   : host {:.0}%  dram {:.0}%  cpu {:.0}%  ahb {:.0}%  channel {:.0}%  die {:.0}%",
            self.utilization.host_link * 100.0,
            self.utilization.dram * 100.0,
            self.utilization.cpu * 100.0,
            self.utilization.ahb * 100.0,
            self.utilization.channel_bus * 100.0,
            self.utilization.die * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> PerfReport {
        let mut class_latency = ClassHistograms::new();
        class_latency.record(ssdx_hostif::HostOp::Write, SimTime::from_us(100));
        class_latency.record(ssdx_hostif::HostOp::Write, SimTime::from_us(300));
        PerfReport {
            config_name: "C1".to_string(),
            architecture: "4-DDR-buf;4-CHN;4-WAY;2-DIE".to_string(),
            workload: "SW".to_string(),
            policy: "cache".to_string(),
            commands: 2,
            bytes: 8192,
            elapsed: SimTime::from_us(400),
            throughput_mbps: 20.48,
            iops: 5000.0,
            waf: 1.0,
            nand_page_programs: 4,
            nand_page_reads: 0,
            latency: Box::new(class_latency.total()),
            utilization: UtilizationBreakdown {
                host_link: 0.5,
                dram: 0.1,
                cpu: 0.2,
                ahb: 0.05,
                channel_bus: 0.3,
                die: 0.6,
            },
            class_latency: Box::new(class_latency),
        }
    }

    #[test]
    fn latency_accessors() {
        let r = report();
        assert_eq!(r.mean_latency().as_us(), 200);
        assert!(r.p99_latency() >= r.mean_latency());
    }

    #[test]
    fn display_contains_key_fields() {
        let text = report().to_string();
        assert!(text.contains("C1"));
        assert!(text.contains("SW"));
        assert!(text.contains("MB/s"));
        assert!(text.contains("utilization"));
        // Only classes with steady-state samples print a tail line.
        assert!(text.contains("tail (write)"), "{text}");
        assert!(!text.contains("tail (read"), "{text}");
    }

    #[test]
    fn tail_accessors_digest_the_class_histograms() {
        let r = report();
        let write = r.tail(CommandClass::Write);
        assert_eq!(write.count, 2);
        assert!(write.p50 >= SimTime::from_us(100));
        assert!(write.p999 <= write.max);
        assert_eq!(r.tail(CommandClass::Read).count, 0);
        assert_eq!(r.tails()[1].class, CommandClass::Write);
        assert_eq!(r.tail_quantile(CommandClass::Write, 1.0), write.max);
    }

    #[test]
    fn debug_rendering_excludes_the_metrics_extension() {
        // The Debug format is the golden-capture format: extending the
        // report must never change it (tests/golden/perf_reports.txt is
        // compared byte-for-byte).
        let text = format!("{:?}", report());
        assert!(text.starts_with("PerfReport { config_name:"), "{text}");
        assert!(text.contains("utilization:"), "{text}");
        assert!(!text.contains("class_latency"), "{text}");
    }

    #[test]
    fn summary_line_is_single_line() {
        let line = report().summary_line();
        assert!(!line.contains('\n'));
        assert!(line.contains("C1"));
    }
}
