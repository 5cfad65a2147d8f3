//! Wear-out tracking and raw-bit-error-rate modelling.
//!
//! Every program/erase (P/E) cycle degrades the tunnel oxide of the flash
//! cells: the raw bit error rate (RBER) grows with accumulated cycles, which
//! in turn forces the ECC to correct more bits per codeword — the effect the
//! paper's Fig. 5 quantifies at SSD level.

use ssdx_sim::codec::{DecodeError, Decoder, Encoder};

/// Parameters of the wear/RBER model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearModel {
    /// Rated endurance in P/E cycles (the "normalized rated endurance" axis
    /// of Fig. 5 is P/E cycles divided by this number).
    pub rated_pe_cycles: u64,
    /// RBER of a fresh block.
    pub rber_fresh: f64,
    /// RBER at rated end of life.
    pub rber_end_of_life: f64,
    /// Exponent of the RBER growth curve (RBER grows super-linearly in P/E).
    pub growth_exponent: f64,
}

/// Normalised-wear ceiling past which the RBER curve saturates.
///
/// The growth curve is a fit against rated-life characterisation data;
/// extrapolating it without bound produces astronomically large error counts
/// (and, at `u64::MAX` P/E cycles, non-finite arithmetic) for regimes no
/// characterisation covers. Beyond four times rated life the oxide is
/// modelled as fully degraded and the RBER stays at its ceiling.
pub const MAX_NORMALIZED_WEAR: f64 = 4.0;

impl WearModel {
    /// The MLC wear model used for the paper's experiments: 3 000 rated P/E
    /// cycles, RBER growing from 1e-6 to 2e-3 with a cubic-ish curve.
    pub fn paper_mlc() -> Self {
        WearModel {
            rated_pe_cycles: 3_000,
            rber_fresh: 1e-6,
            rber_end_of_life: 2e-3,
            growth_exponent: 2.5,
        }
    }

    /// Normalised wear (0.0 fresh, 1.0 at rated endurance) for a P/E count.
    /// Values beyond rated endurance exceed 1.0.
    pub fn normalized_wear(&self, pe_cycles: u64) -> f64 {
        pe_cycles as f64 / self.rated_pe_cycles.max(1) as f64
    }

    /// Raw bit error rate after `pe_cycles` program/erase cycles. Saturates
    /// at [`MAX_NORMALIZED_WEAR`] so pathological erase counts (fault
    /// campaigns age blocks far past rated life) stay finite.
    pub fn rber(&self, pe_cycles: u64) -> f64 {
        let w = self.normalized_wear(pe_cycles).min(MAX_NORMALIZED_WEAR);
        self.rber_fresh + (self.rber_end_of_life - self.rber_fresh) * w.powf(self.growth_exponent)
    }

    /// Expected number of raw bit errors in a codeword of `codeword_bits`
    /// bits after `pe_cycles` cycles.
    pub fn expected_errors(&self, pe_cycles: u64, codeword_bits: u64) -> f64 {
        self.rber(pe_cycles) * codeword_bits as f64
    }

    /// P/E cycle count corresponding to a normalised endurance point
    /// (e.g. `0.4` → 40 % of rated life consumed).
    pub fn pe_at(&self, normalized: f64) -> u64 {
        (normalized.max(0.0) * self.rated_pe_cycles as f64).round() as u64
    }
}

impl Default for WearModel {
    fn default() -> Self {
        Self::paper_mlc()
    }
}

/// Per-block wear bookkeeping.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockWear {
    pe_cycles: u64,
    programs: u64,
    reads: u64,
}

impl BlockWear {
    /// Creates a fresh block with zero cycles.
    pub fn new() -> Self {
        BlockWear::default()
    }

    /// Accumulated program/erase cycles.
    pub fn pe_cycles(&self) -> u64 {
        self.pe_cycles
    }

    /// Number of page programs recorded.
    pub fn programs(&self) -> u64 {
        self.programs
    }

    /// Number of page reads recorded.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Records one erase (this is what increments the P/E count). Saturates
    /// at `u64::MAX` rather than wrapping for blocks aged to the limit.
    pub fn record_erase(&mut self) {
        self.pe_cycles = self.pe_cycles.saturating_add(1);
    }

    /// Records one page program. Saturates at `u64::MAX`.
    pub fn record_program(&mut self) {
        self.programs = self.programs.saturating_add(1);
    }

    /// Records one page read. Saturates at `u64::MAX`.
    pub fn record_read(&mut self) {
        self.reads = self.reads.saturating_add(1);
    }

    /// Forces the P/E count (used to age a device artificially, as the
    /// wear-out experiment does).
    pub fn set_pe_cycles(&mut self, pe: u64) {
        self.pe_cycles = pe;
    }

    /// Encodes the wear record, in stable field order: `pe_cycles`,
    /// `programs`, `reads`.
    pub fn encode_state(&self, enc: &mut Encoder) {
        enc.put_u64(self.pe_cycles);
        enc.put_u64(self.programs);
        enc.put_u64(self.reads);
    }

    /// Decodes a wear record captured by [`encode_state`](Self::encode_state).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated or malformed input.
    pub fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(BlockWear {
            pe_cycles: dec.get_u64()?,
            programs: dec.get_u64()?,
            reads: dec.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rber_grows_monotonically_with_wear() {
        let m = WearModel::default();
        let mut prev = 0.0;
        for pe in (0..=6000).step_by(100) {
            let r = m.rber(pe);
            assert!(r >= prev, "rber must not decrease (pe={pe})");
            prev = r;
        }
    }

    #[test]
    fn rber_endpoints_match_parameters() {
        let m = WearModel::default();
        assert!((m.rber(0) - m.rber_fresh).abs() < 1e-12);
        assert!((m.rber(m.rated_pe_cycles) - m.rber_end_of_life).abs() < 1e-9);
    }

    #[test]
    fn normalized_wear_and_pe_round_trip() {
        let m = WearModel::default();
        assert_eq!(m.pe_at(0.5), 1_500);
        assert!((m.normalized_wear(1_500) - 0.5).abs() < 1e-12);
        assert_eq!(m.pe_at(-1.0), 0);
    }

    #[test]
    fn expected_errors_scale_with_codeword_size() {
        let m = WearModel::default();
        let e1 = m.expected_errors(3_000, 1_000);
        let e2 = m.expected_errors(3_000, 2_000);
        assert!((e2 - 2.0 * e1).abs() < 1e-9);
    }

    #[test]
    fn rber_saturates_past_four_times_rated_life() {
        let m = WearModel::default();
        let ceiling = m.rber(m.rated_pe_cycles * 4);
        assert!(ceiling.is_finite());
        assert_eq!(m.rber(m.rated_pe_cycles * 8), ceiling);
        assert_eq!(m.rber(u64::MAX), ceiling);
        assert!(m.expected_errors(u64::MAX, u64::MAX).is_finite());
    }

    #[test]
    fn erase_count_saturates_instead_of_wrapping() {
        let mut b = BlockWear::new();
        b.set_pe_cycles(u64::MAX);
        b.record_erase();
        assert_eq!(b.pe_cycles(), u64::MAX);
        let mut c = BlockWear::new();
        c.set_pe_cycles(u64::MAX - 1);
        c.record_erase();
        c.record_erase();
        assert_eq!(c.pe_cycles(), u64::MAX);
    }

    #[test]
    fn block_wear_bookkeeping() {
        let mut b = BlockWear::new();
        b.record_program();
        b.record_program();
        b.record_read();
        b.record_erase();
        assert_eq!(b.programs(), 2);
        assert_eq!(b.reads(), 1);
        assert_eq!(b.pe_cycles(), 1);
        b.set_pe_cycles(500);
        assert_eq!(b.pe_cycles(), 500);
    }
}
