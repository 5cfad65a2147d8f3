//! Deterministic pseudo-random number generation for reproducible simulations.
//!
//! The virtual platform must produce identical results for identical seeds so
//! that design-space sweeps are comparable; this module provides a small,
//! dependency-free SplitMix64 generator with convenience helpers for the
//! distributions the component models need (uniform ranges and Bernoulli
//! draws).

/// SplitMix64's state increment (the golden-ratio constant γ).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A deterministic SplitMix64 pseudo-random number generator.
///
/// The generator is a single `u64` of state — `Send + Sync` by
/// construction — and every component stream is [`fork`](Self::fork)ed from
/// a configuration seed rather than drawn from a global or thread-local
/// source. That is what makes simulations reproducible across thread
/// placements: a platform built on a parallel-sweep worker draws exactly
/// the sequences it would draw on the main thread.
///
/// SplitMix64 is counter-based: the k-th draw is a pure function of the
/// starting state plus k·γ. [`skip`](Self::skip) uses this to jump over
/// any number of draws in O(1), which is how the workload generators
/// produce command `i` without generating commands `0..i`.
///
/// # Example
///
/// ```
/// use ssdx_sim::rng::SimRng;
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates a generator from a seed. Equal seeds yield equal sequences.
    pub fn new(seed: u64) -> Self {
        SimRng {
            state: seed.wrapping_add(GAMMA),
        }
    }

    /// Derives an independent child generator, useful for giving each
    /// component (die, channel, …) its own stream.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The raw SplitMix64 state word, for snapshotting.
    ///
    /// Note this is the internal state, **not** the seed passed to
    /// [`new`](Self::new): restore it with [`from_state`](Self::from_state),
    /// after which the generator continues the exact sequence it was
    /// producing when captured.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Reconstructs a generator from a raw state word captured with
    /// [`state`](Self::state).
    pub fn from_state(state: u64) -> SimRng {
        SimRng { state }
    }

    /// Advances the generator past `draws` values in O(1): afterwards it
    /// yields exactly what it would have yielded after `draws` calls to
    /// [`next_u64`](Self::next_u64).
    #[inline]
    pub fn skip(&mut self, draws: u64) {
        self.state = self.state.wrapping_add(draws.wrapping_mul(GAMMA));
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[low, high]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    pub fn uniform_u64(&mut self, low: u64, high: u64) -> u64 {
        assert!(low <= high, "uniform range is empty: {low} > {high}");
        if low == high {
            return low;
        }
        let span = high - low + 1;
        low + self.next_u64() % span
    }

    /// Uniform float in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    pub fn uniform_f64(&mut self, low: f64, high: f64) -> f64 {
        assert!(low <= high, "uniform range is empty: {low} > {high}");
        low + self.next_f64() * (high - low)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn uniform_u64_respects_bounds() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            let v = r.uniform_u64(10, 20);
            assert!((10..=20).contains(&v));
        }
        assert_eq!(r.uniform_u64(5, 5), 5);
    }

    #[test]
    fn uniform_f64_respects_bounds() {
        let mut r = SimRng::new(4);
        for _ in 0..1000 {
            let v = r.uniform_f64(-1.5, 2.5);
            assert!((-1.5..2.5).contains(&v));
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SimRng::new(5);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(6);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        // Out-of-range probabilities are clamped rather than panicking.
        assert!(r.chance(5.0));
        assert!(!r.chance(-3.0));
    }

    #[test]
    fn chance_roughly_matches_probability() {
        let mut r = SimRng::new(8);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = SimRng::new(9);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn raw_state_round_trip_continues_the_sequence() {
        let mut original = SimRng::new(42);
        let _ = original.next_u64();
        let _ = original.next_f64();
        let mut restored = SimRng::from_state(original.state());
        assert_eq!(restored, original);
        for _ in 0..16 {
            assert_eq!(restored.next_u64(), original.next_u64());
        }
    }

    #[test]
    fn skip_equals_drawing_and_discarding() {
        for (seed, draws) in [(0u64, 0u64), (1, 1), (42, 7), (u64::MAX, 1000)] {
            let mut drawn = SimRng::new(seed);
            for _ in 0..draws {
                drawn.next_u64();
            }
            let mut skipped = SimRng::new(seed);
            skipped.skip(draws);
            assert_eq!(skipped, drawn);
            assert_eq!(skipped.next_u64(), drawn.next_u64());
        }
    }

    #[test]
    #[should_panic(expected = "range is empty")]
    fn empty_uniform_range_panics() {
        let mut r = SimRng::new(10);
        let _ = r.uniform_u64(6, 5);
    }
}
