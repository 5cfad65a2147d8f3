//! The Write Amplification Factor abstraction (greedy garbage collection).

/// How random the write stream is, which drives write amplification.
///
/// Purely sequential traffic fills whole blocks before they are invalidated,
/// so greedy garbage collection reclaims blocks that are entirely invalid and
/// the write amplification stays at 1. Purely random traffic scatters
/// invalidations uniformly and forces the collector to relocate live pages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadMix {
    /// Fraction of the write footprint updated at random, `0.0` (sequential)
    /// to `1.0` (uniform random).
    pub random_fraction: f64,
}

impl WorkloadMix {
    /// A purely sequential write stream.
    pub fn sequential() -> Self {
        WorkloadMix {
            random_fraction: 0.0,
        }
    }

    /// A uniformly random write stream.
    pub fn random() -> Self {
        WorkloadMix {
            random_fraction: 1.0,
        }
    }

    /// A mixed stream with the given random fraction (clamped to `[0, 1]`).
    pub fn mixed(random_fraction: f64) -> Self {
        WorkloadMix {
            random_fraction: random_fraction.clamp(0.0, 1.0),
        }
    }
}

/// Greedy-policy analytic write-amplification model (Hu et al., SYSTOR 2009).
///
/// The model needs only the over-provisioning of the device — the fraction of
/// physical capacity hidden from the host — and the randomness of the write
/// stream. It returns the WAF used to inflate the NAND write traffic and the
/// equivalent garbage-collection blocking overhead, which is how SSDExplorer
/// accounts for the FTL without implementing one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WafModel {
    /// Spare factor: `(physical - logical) / logical` capacity.
    pub over_provisioning: f64,
}

impl WafModel {
    /// A model with the given over-provisioning.
    ///
    /// # Panics
    ///
    /// Panics if `over_provisioning` is not positive and finite.
    pub fn new(over_provisioning: f64) -> Self {
        assert!(
            over_provisioning.is_finite() && over_provisioning > 0.0,
            "over-provisioning must be positive"
        );
        WafModel { over_provisioning }
    }

    /// The ~7 % over-provisioning of consumer drives such as the OCZ Vertex
    /// (120 GB usable out of 128 GiB raw).
    pub fn consumer_7pct() -> Self {
        WafModel::new(0.07)
    }

    /// Write amplification of a *uniformly random* write stream under greedy
    /// garbage collection.
    ///
    /// Uses the closed-form approximation of the greedy/LRU collector on
    /// uniform traffic: with spare factor `ρ = over_provisioning`, the
    /// victim block still holds about `1 / (1 + 2ρ)` valid data when
    /// reclaimed, giving `WAF ≈ (1 + 2ρ) / (2ρ)`· ... simplified here to the
    /// standard `(1 + ρ) / (2 ρ)` worst-case greedy bound, floored at 1.
    pub fn random_waf(&self) -> f64 {
        let rho = self.over_provisioning;
        ((1.0 + rho) / (2.0 * rho)).max(1.0)
    }

    /// Write amplification for an arbitrary workload mix: sequential traffic
    /// does not amplify, random traffic amplifies per
    /// [`random_waf`](Self::random_waf), blends linearly in between.
    pub fn waf(&self, mix: WorkloadMix) -> f64 {
        let r = mix.random_fraction.clamp(0.0, 1.0);
        1.0 + r * (self.random_waf() - 1.0)
    }
}

impl Default for WafModel {
    fn default() -> Self {
        Self::consumer_7pct()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_traffic_does_not_amplify() {
        let m = WafModel::consumer_7pct();
        assert!((m.waf(WorkloadMix::sequential()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_traffic_amplifies_substantially_at_low_op() {
        let m = WafModel::consumer_7pct();
        let waf = m.waf(WorkloadMix::random());
        assert!(waf > 4.0, "waf = {waf}");
        assert!(waf < 12.0, "waf = {waf}");
    }

    #[test]
    fn more_over_provisioning_means_less_amplification() {
        let consumer = WafModel::consumer_7pct().random_waf();
        let enterprise = WafModel::new(0.28).random_waf();
        assert!(enterprise < consumer);
        assert!(enterprise >= 1.0);
    }

    #[test]
    fn waf_is_monotone_in_random_fraction() {
        let m = WafModel::consumer_7pct();
        let mut prev = 0.0;
        for i in 0..=10 {
            let w = m.waf(WorkloadMix::mixed(i as f64 / 10.0));
            assert!(w >= prev);
            prev = w;
        }
    }

    #[test]
    #[should_panic(expected = "over-provisioning must be positive")]
    fn zero_op_rejected() {
        let _ = WafModel::new(0.0);
    }

    #[test]
    fn mix_constructor_clamps() {
        assert_eq!(WorkloadMix::mixed(7.0).random_fraction, 1.0);
        assert_eq!(WorkloadMix::mixed(-2.0).random_fraction, 0.0);
    }
}
