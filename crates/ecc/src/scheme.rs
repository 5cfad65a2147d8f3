//! The two ECC schemes exposed to the platform: fixed BCH and adaptive BCH.

use crate::adaptive::AdaptiveTable;
use crate::bch::BchCodec;
use ssdx_sim::SimTime;

/// An ECC scheme as instantiated inside an SSD configuration.
///
/// * [`EccScheme::FixedBch`] always operates at the worst-case correction
///   capability, paying its full decode cost from day one.
/// * [`EccScheme::AdaptiveBch`] looks up the correction capability in a
///   static table indexed by the block's program/erase count.
/// * [`EccScheme::None`] disables ECC entirely (useful for ablations and to
///   measure how much performance the corrector costs).
#[derive(Debug, Clone, PartialEq)]
pub enum EccScheme {
    /// No error correction (ablation only — a real MLC SSD cannot ship this).
    None,
    /// BCH with a fixed worst-case correction capability.
    FixedBch(BchCodec),
    /// BCH whose capability adapts to wear through a static table.
    AdaptiveBch {
        /// Codec template whose `t` field is replaced per access.
        codec: BchCodec,
        /// Correction table indexed by P/E cycles.
        table: AdaptiveTable,
    },
}

impl EccScheme {
    /// A fixed BCH scheme able to correct `t` bits per codeword.
    pub fn fixed_bch(t: u32) -> Self {
        EccScheme::FixedBch(BchCodec::with_t(t))
    }

    /// An adaptive BCH scheme with worst-case capability `max_t` and the
    /// default wear table for a 3 000-cycle MLC part.
    ///
    /// # Panics
    ///
    /// Panics if `max_t < 4`: the default table never corrects fewer than
    /// 4 bits, and a table step may not exceed the worst case.
    pub fn adaptive_bch(max_t: u32) -> Self {
        EccScheme::AdaptiveBch {
            codec: BchCodec::with_t(max_t),
            table: AdaptiveTable::paper_default(max_t, 3_000),
        }
    }

    /// Correction capability used for a page whose block has `pe_cycles`
    /// program/erase cycles.
    pub fn t_for(&self, pe_cycles: u64) -> u32 {
        match self {
            EccScheme::None => 0,
            EccScheme::FixedBch(c) => c.t,
            EccScheme::AdaptiveBch { table, .. } => table.t_for(pe_cycles),
        }
    }

    /// Encode latency for one full page write at the given wear level,
    /// assuming the paper's 4 KB host page.
    pub fn encode_latency(&self, pe_cycles: u64) -> SimTime {
        self.encode_latency_for(4096, pe_cycles)
    }

    /// Encode latency for one page of `page_bytes` bytes at the given wear
    /// level.
    pub fn encode_latency_for(&self, page_bytes: u32, pe_cycles: u64) -> SimTime {
        self.page_latency(page_bytes, pe_cycles, |codec, _| codec.encode_latency())
    }

    /// Decode latency for one 4 KB page read at the given wear level, given
    /// the expected raw errors across the whole page.
    pub fn decode_latency_with_errors(&self, pe_cycles: u64, page_raw_errors: f64) -> SimTime {
        self.decode_latency_for(4096, pe_cycles, page_raw_errors)
    }

    /// Decode latency for one page of `page_bytes` bytes at the given wear
    /// level, given the expected raw errors across the whole page.
    pub fn decode_latency_for(
        &self,
        page_bytes: u32,
        pe_cycles: u64,
        page_raw_errors: f64,
    ) -> SimTime {
        self.page_latency(page_bytes, pe_cycles, |codec, codewords| {
            codec.decode_latency(page_raw_errors / codewords as f64)
        })
    }

    /// Decode latency for one full 4 KB page read at the given wear level,
    /// assuming the expected error count for that wear (convenience wrapper
    /// used when the caller does not track raw errors itself).
    pub fn decode_latency(&self, pe_cycles: u64) -> SimTime {
        // A coarse RBER ramp consistent with the NAND wear model defaults.
        let raw = 0.02 * pe_cycles as f64 / 100.0;
        self.decode_latency_with_errors(pe_cycles, raw)
    }

    fn page_latency<F>(&self, page_bytes: u32, pe_cycles: u64, f: F) -> SimTime
    where
        F: Fn(&BchCodec, u32) -> SimTime,
    {
        match self {
            EccScheme::None => SimTime::ZERO,
            EccScheme::FixedBch(codec) => {
                let n = codec.codewords_per_page(page_bytes);
                // Codewords of one page are processed back-to-back by the
                // same engine.
                f(codec, n) * n as u64
            }
            EccScheme::AdaptiveBch { codec, table } => {
                let mut c = *codec;
                c.t = table.t_for(pe_cycles);
                let n = c.codewords_per_page(page_bytes);
                f(&c, n) * n as u64
            }
        }
    }

    /// Human-readable scheme name (used in reports).
    pub fn name(&self) -> &'static str {
        match self {
            EccScheme::None => "no-ecc",
            EccScheme::FixedBch(_) => "fixed-bch",
            EccScheme::AdaptiveBch { .. } => "adaptive-bch",
        }
    }
}

impl Default for EccScheme {
    fn default() -> Self {
        EccScheme::fixed_bch(40)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_decodes_faster_than_fixed_early_in_life() {
        let fixed = EccScheme::fixed_bch(40);
        let adaptive = EccScheme::adaptive_bch(40);
        assert!(adaptive.decode_latency(0) < fixed.decode_latency(0));
        assert!(adaptive.decode_latency(1_000) < fixed.decode_latency(1_000));
    }

    #[test]
    fn adaptive_escalation_tracks_wear_to_contain_failures() {
        // The adaptive table escalates `t` with wear, so a worn page is
        // decoded by a stronger code than a fresh one.
        let adaptive = EccScheme::adaptive_bch(40);
        assert!(adaptive.t_for(0) < adaptive.t_for(3_000), "t must escalate");
    }

    #[test]
    fn adaptive_converges_to_fixed_at_end_of_life() {
        let fixed = EccScheme::fixed_bch(40);
        let adaptive = EccScheme::adaptive_bch(40);
        // Past rated endurance both run the 40-bit code.
        assert_eq!(adaptive.t_for(5_000), 40);
        let f = fixed.decode_latency(5_000);
        let a = adaptive.decode_latency(5_000);
        assert_eq!(a, f);
    }

    #[test]
    fn encode_latency_is_insensitive_to_scheme() {
        let fixed = EccScheme::fixed_bch(40);
        let adaptive = EccScheme::adaptive_bch(40);
        let diff = fixed.encode_latency(0).as_ns_f64() - adaptive.encode_latency(0).as_ns_f64();
        // Under 2 µs difference for a full page: writes are barely affected.
        assert!(diff.abs() < 2_000.0);
    }

    #[test]
    fn none_scheme_is_free() {
        let none = EccScheme::None;
        assert_eq!(none.encode_latency(0), SimTime::ZERO);
        assert_eq!(none.decode_latency(9_999), SimTime::ZERO);
        assert_eq!(none.t_for(1_000), 0);
        assert_eq!(none.name(), "no-ecc");
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(EccScheme::fixed_bch(40).name(), "fixed-bch");
        assert_eq!(EccScheme::adaptive_bch(40).name(), "adaptive-bch");
        assert_eq!(EccScheme::default().name(), "fixed-bch");
    }

    #[test]
    fn decode_latency_with_errors_grows_with_error_count() {
        let fixed = EccScheme::fixed_bch(40);
        let low = fixed.decode_latency_with_errors(0, 1.0);
        let high = fixed.decode_latency_with_errors(0, 60.0);
        assert!(high > low);
    }
}
