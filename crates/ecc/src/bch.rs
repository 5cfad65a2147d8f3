//! BCH codec latency model.

use ssdx_sim::SimTime;

/// Latency model of a hardware BCH codec protecting one NAND page codeword.
///
/// The model is parametric (the paper's "Parametric Time Delay" abstraction
/// domain): the codec is characterised only by its correction capability and
/// the resulting encode/decode latencies, not by a functional data path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BchCodec {
    /// Correction capability `t` in bits per codeword.
    pub t: u32,
    /// Codeword payload covered by one codec pass, in bytes.
    pub codeword_bytes: u32,
    /// Base encode latency (syndrome-free parity generation), µs per codeword.
    pub encode_base_us: f64,
    /// Additional encode latency per bit of correction capability, µs.
    pub encode_per_t_us: f64,
    /// Base decode latency (syndrome computation), µs per codeword.
    pub decode_base_us: f64,
    /// Decode latency coefficient: the key-equation solver and Chien search
    /// grow super-linearly with `t`; latency adds `decode_per_t_us * t^1.3`.
    pub decode_per_t_us: f64,
}

impl BchCodec {
    /// A codec with the default latency coefficients and correction
    /// capability `t`, protecting 2 KB codewords (two codewords per 4 KB
    /// page).
    pub fn with_t(t: u32) -> Self {
        BchCodec {
            t,
            codeword_bytes: 2048,
            encode_base_us: 4.0,
            encode_per_t_us: 0.02,
            decode_base_us: 6.0,
            decode_per_t_us: 2.2,
        }
    }

    /// Parity bytes appended per codeword (≈ `t * m / 8` with m = 15 for
    /// 2 KB codewords).
    pub fn parity_bytes(&self) -> u32 {
        (self.t * 15).div_ceil(8)
    }

    /// Encode latency for one codeword. Encoding is a systematic LFSR pass,
    /// so it barely depends on `t`.
    pub fn encode_latency(&self) -> SimTime {
        SimTime::from_ns_f64((self.encode_base_us + self.encode_per_t_us * self.t as f64) * 1_000.0)
    }

    /// Decode latency for one codeword carrying `raw_errors` raw bit errors.
    ///
    /// The dominant term grows with `t^1.3` (key-equation solver + Chien
    /// search sized for the full correction capability); a small additional
    /// term scales with the number of errors actually corrected.
    pub fn decode_latency(&self, raw_errors: f64) -> SimTime {
        let t = self.t as f64;
        let solver = self.decode_per_t_us * t.powf(1.3);
        let correction = 0.08 * raw_errors.clamp(0.0, t);
        SimTime::from_ns_f64((self.decode_base_us + solver + correction) * 1_000.0)
    }

    /// Number of codewords needed to protect a page of `page_bytes` bytes.
    pub fn codewords_per_page(&self, page_bytes: u32) -> u32 {
        page_bytes.div_ceil(self.codeword_bytes).max(1)
    }

    /// Probability that a codeword with expected `raw_errors` raw errors is
    /// uncorrectable (more than `t` errors), using a Poisson tail
    /// approximation of the binomial error count.
    pub fn uncorrectable_probability(&self, raw_errors: f64) -> f64 {
        if raw_errors <= 0.0 {
            return 0.0;
        }
        // P[X > t] with X ~ Poisson(raw_errors).
        let lambda = raw_errors;
        let mut term = (-lambda).exp();
        let mut cdf = term;
        for k in 1..=self.t {
            term *= lambda / k as f64;
            cdf += term;
        }
        (1.0 - cdf).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_latency_is_nearly_flat_in_t() {
        let weak = BchCodec::with_t(8);
        let strong = BchCodec::with_t(40);
        let delta = strong.encode_latency().as_ns_f64() - weak.encode_latency().as_ns_f64();
        // Less than 1 µs difference across the full capability range.
        assert!(delta.abs() < 1_000.0);
    }

    #[test]
    fn decode_latency_grows_superlinearly_with_t() {
        let t8 = BchCodec::with_t(8).decode_latency(0.0);
        let t16 = BchCodec::with_t(16).decode_latency(0.0);
        let t40 = BchCodec::with_t(40).decode_latency(0.0);
        assert!(t16 > t8);
        assert!(t40 > t16);
        // Super-linear: doubling t from 8 to 16 more than doubles the solver term.
        let solver8 = t8.as_ns_f64() - 6_000.0;
        let solver16 = t16.as_ns_f64() - 6_000.0;
        assert!(solver16 > 2.0 * solver8);
    }

    #[test]
    fn decode_latency_increases_with_actual_errors() {
        let c = BchCodec::with_t(40);
        assert!(c.decode_latency(30.0) > c.decode_latency(1.0));
        // But errors beyond t do not keep growing the latency (decode fails).
        assert_eq!(c.decode_latency(40.0), c.decode_latency(400.0));
    }

    #[test]
    fn parity_overhead_scales_with_t() {
        assert!(BchCodec::with_t(40).parity_bytes() > BchCodec::with_t(8).parity_bytes());
        assert_eq!(BchCodec::with_t(40).parity_bytes(), 75);
    }

    #[test]
    fn codewords_per_page() {
        let c = BchCodec::with_t(40);
        assert_eq!(c.codewords_per_page(4096), 2);
        assert_eq!(c.codewords_per_page(2048), 1);
        assert_eq!(c.codewords_per_page(100), 1);
    }

    #[test]
    fn uncorrectable_probability_behaviour() {
        let c = BchCodec::with_t(40);
        assert_eq!(c.uncorrectable_probability(0.0), 0.0);
        let low = c.uncorrectable_probability(5.0);
        let high = c.uncorrectable_probability(60.0);
        assert!(low < 1e-6);
        assert!(high > 0.9);
        assert!(low <= high);
    }
}
