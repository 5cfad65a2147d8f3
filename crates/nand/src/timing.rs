//! NAND operation timing: the MLC latency-variability model.
//!
//! MLC NAND programs page pairs onto the same physical word line: the page
//! holding the least-significant bits ("fast" or LSB page) programs much
//! faster than the page holding the most-significant bits ("slow" or MSB
//! page). The paper models a part whose `tPROG` spans 900 µs – 3 ms,
//! `tREAD` is 60 µs and `tBERS` spans 1 – 10 ms; erase time and, to a lesser
//! extent, program time stretch as the block wears out.

use ssdx_sim::SimTime;

/// The NAND operations the array accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NandOp {
    /// Page read (`tREAD` array access, data then travels over the ONFI bus).
    Read,
    /// Page program (data travels over the ONFI bus, then `tPROG`).
    Program,
    /// Block erase (`tBERS`).
    Erase,
}

impl NandOp {
    /// `true` for operations that work on a page (read/program) rather than a
    /// whole block (erase).
    pub fn is_page_op(self) -> bool {
        !matches!(self, NandOp::Erase)
    }
}

/// Classification of a page inside an MLC block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageKind {
    /// Least-significant-bit (fast) page.
    Lsb,
    /// Most-significant-bit (slow) page.
    Msb,
}

/// Timing profile of an MLC NAND die.
///
/// All times are expressed in microseconds to mirror datasheet notation and
/// converted to [`SimTime`] on demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlcTimingProfile {
    /// Array read time, µs (`tR`).
    pub t_read_us: u64,
    /// Fastest page program time, µs (LSB pages on a fresh block).
    pub t_prog_min_us: u64,
    /// Slowest page program time, µs (MSB pages on a worn block).
    pub t_prog_max_us: u64,
    /// Fastest block erase time, µs.
    pub t_bers_min_us: u64,
    /// Slowest block erase time, µs.
    pub t_bers_max_us: u64,
    /// Fractional slowdown of program/erase at rated end of life
    /// (e.g. 0.15 = 15 % slower at 100 % wear).
    pub wear_slowdown: f64,
}

impl MlcTimingProfile {
    /// The MLC profile used throughout the paper's experiments
    /// (`tPROG` 900 µs – 3 ms, `tREAD` 60 µs, `tBERS` 1 – 10 ms).
    pub fn paper_mlc() -> Self {
        MlcTimingProfile {
            t_read_us: 60,
            t_prog_min_us: 900,
            t_prog_max_us: 3_000,
            t_bers_min_us: 1_000,
            t_bers_max_us: 10_000,
            wear_slowdown: 0.15,
        }
    }

    /// A fast SLC-like profile, useful for ablation studies.
    pub fn slc_like() -> Self {
        MlcTimingProfile {
            t_read_us: 25,
            t_prog_min_us: 200,
            t_prog_max_us: 300,
            t_bers_min_us: 700,
            t_bers_max_us: 1_500,
            wear_slowdown: 0.05,
        }
    }

    /// Classifies a page index as LSB (fast) or MSB (slow). Even word-line
    /// ordering maps even page indices to LSB pages.
    pub fn page_kind(&self, page_index: u32) -> PageKind {
        if page_index % 2 == 0 {
            PageKind::Lsb
        } else {
            PageKind::Msb
        }
    }

    /// Array read time.
    pub fn t_read(&self) -> SimTime {
        SimTime::from_us(self.t_read_us)
    }

    /// Program time for a page of the given kind at the given wear level
    /// (`wear` is normalised 0.0 – 1.0; values beyond 1.0 keep degrading).
    ///
    /// LSB pages program near the minimum, MSB pages near the maximum; wear
    /// adds a proportional slowdown on top.
    pub fn t_prog(&self, kind: PageKind, wear: f64) -> SimTime {
        let base_us = match kind {
            PageKind::Lsb => self.t_prog_min_us as f64,
            PageKind::Msb => {
                // MSB pages sit at ~85 % of the worst-case datasheet figure.
                self.t_prog_min_us as f64 + 0.85 * (self.t_prog_max_us - self.t_prog_min_us) as f64
            }
        };
        let slow = 1.0 + self.wear_slowdown * wear.max(0.0);
        SimTime::from_ns_f64(base_us * slow * 1_000.0)
    }

    /// Erase time at the given wear level: erase stretches from the datasheet
    /// minimum toward the maximum as the block wears out.
    pub fn t_bers(&self, wear: f64) -> SimTime {
        let w = wear.clamp(0.0, 1.0);
        let us = self.t_bers_min_us as f64 + w * (self.t_bers_max_us - self.t_bers_min_us) as f64;
        SimTime::from_ns_f64(us * 1_000.0)
    }

    /// Checks that the ranges are ordered and non-degenerate.
    pub fn validate(&self) -> Result<(), TimingError> {
        if self.t_prog_min_us == 0 || self.t_read_us == 0 || self.t_bers_min_us == 0 {
            return Err(TimingError::ZeroTime);
        }
        if self.t_prog_max_us < self.t_prog_min_us || self.t_bers_max_us < self.t_bers_min_us {
            return Err(TimingError::InvertedRange);
        }
        if !(0.0..=10.0).contains(&self.wear_slowdown) {
            return Err(TimingError::BadSlowdown);
        }
        Ok(())
    }
}

impl Default for MlcTimingProfile {
    fn default() -> Self {
        Self::paper_mlc()
    }
}

/// Error returned by [`MlcTimingProfile::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingError {
    /// A base latency is zero.
    ZeroTime,
    /// A min/max range is inverted.
    InvertedRange,
    /// The wear slowdown factor is out of range.
    BadSlowdown,
}

impl std::fmt::Display for TimingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimingError::ZeroTime => write!(f, "timing value is zero"),
            TimingError::InvertedRange => write!(f, "timing range is inverted"),
            TimingError::BadSlowdown => write!(f, "wear slowdown factor out of range"),
        }
    }
}

impl std::error::Error for TimingError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profile_matches_datasheet_ranges() {
        let p = MlcTimingProfile::paper_mlc();
        assert!(p.validate().is_ok());
        assert_eq!(p.t_read().as_us(), 60);
        let fresh_lsb = p.t_prog(PageKind::Lsb, 0.0);
        let fresh_msb = p.t_prog(PageKind::Msb, 0.0);
        assert_eq!(fresh_lsb.as_us(), 900);
        assert!(fresh_msb >= SimTime::from_us(2_000) && fresh_msb <= SimTime::from_us(3_000));
        assert_eq!(p.t_bers(0.0).as_us(), 1_000);
        assert_eq!(p.t_bers(1.0).as_us(), 10_000);
    }

    #[test]
    fn lsb_pages_are_faster_than_msb() {
        let p = MlcTimingProfile::default();
        assert!(p.t_prog(PageKind::Lsb, 0.0) < p.t_prog(PageKind::Msb, 0.0));
    }

    #[test]
    fn wear_slows_program_and_erase() {
        let p = MlcTimingProfile::default();
        assert!(p.t_prog(PageKind::Msb, 1.0) > p.t_prog(PageKind::Msb, 0.0));
        assert!(p.t_bers(0.7) > p.t_bers(0.1));
        assert!(p.t_prog(PageKind::Lsb, 0.5) > p.t_prog(PageKind::Lsb, 0.0));
    }

    #[test]
    fn page_kind_alternates() {
        let p = MlcTimingProfile::default();
        assert_eq!(p.page_kind(0), PageKind::Lsb);
        assert_eq!(p.page_kind(1), PageKind::Msb);
        assert_eq!(p.page_kind(126), PageKind::Lsb);
    }

    #[test]
    fn erase_time_clamps_beyond_rated_life() {
        let p = MlcTimingProfile::default();
        assert_eq!(p.t_bers(1.5), p.t_bers(1.0));
    }

    #[test]
    fn validation_rejects_bad_profiles() {
        let p = MlcTimingProfile {
            t_prog_max_us: 10,
            ..MlcTimingProfile::default()
        };
        assert_eq!(p.validate(), Err(TimingError::InvertedRange));
        let p = MlcTimingProfile {
            t_read_us: 0,
            ..MlcTimingProfile::default()
        };
        assert_eq!(p.validate(), Err(TimingError::ZeroTime));
        let p = MlcTimingProfile {
            wear_slowdown: -1.0,
            ..MlcTimingProfile::default()
        };
        assert_eq!(p.validate(), Err(TimingError::BadSlowdown));
    }

    #[test]
    fn op_classification() {
        assert!(NandOp::Read.is_page_op());
        assert!(NandOp::Program.is_page_op());
        assert!(!NandOp::Erase.is_page_op());
    }
}
