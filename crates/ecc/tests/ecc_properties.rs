//! Property-based tests of the ECC latency models: the relationships between
//! correction capability, wear and latency that the paper's Fig. 5
//! exploits.

use proptest::prelude::*;
use ssdx_ecc::{AdaptiveTable, BchCodec, EccScheme};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn decode_is_always_slower_than_encode(t in 1u32..72) {
        let codec = BchCodec::with_t(t);
        prop_assert!(codec.decode_latency(0.0) > codec.encode_latency());
    }

    #[test]
    fn adaptive_scheme_latency_is_sandwiched_between_none_and_fixed(pe in 0u64..6_000) {
        let none = EccScheme::None;
        let fixed = EccScheme::fixed_bch(40);
        let adaptive = EccScheme::adaptive_bch(40);
        let d_none = none.decode_latency(pe);
        let d_adaptive = adaptive.decode_latency(pe);
        let d_fixed = fixed.decode_latency(pe);
        prop_assert!(d_none <= d_adaptive);
        prop_assert!(d_adaptive <= d_fixed);
    }

    #[test]
    fn page_latency_scales_with_page_size(pe in 0u64..6_000, half in prop::bool::ANY) {
        let scheme = EccScheme::fixed_bch(40);
        let small = if half { 2_048 } else { 4_096 };
        let large = small * 2;
        prop_assert!(scheme.decode_latency_for(large, pe, 1.0) >= scheme.decode_latency_for(small, pe, 1.0));
        prop_assert!(scheme.encode_latency_for(large, pe) >= scheme.encode_latency_for(small, pe));
    }

    #[test]
    fn custom_adaptive_tables_respect_their_thresholds(
        steps in prop::collection::vec(1u64..500, 1..6),
        base_t in 4u32..16
    ) {
        // Build strictly increasing thresholds with non-decreasing capability.
        let mut threshold = 0u64;
        let mut entries = Vec::new();
        for (i, step) in steps.iter().enumerate() {
            threshold += step;
            entries.push((threshold, base_t + 4 * i as u32));
        }
        let max_t = base_t + 4 * steps.len() as u32 + 8;
        let table = AdaptiveTable::new(entries.clone(), max_t);
        for (threshold, t) in &entries {
            prop_assert_eq!(table.t_for(*threshold), *t);
        }
        prop_assert_eq!(table.t_for(threshold + 1), max_t);
    }
}

#[test]
fn fig5_mechanism_worst_case_code_pays_its_latency_from_day_one() {
    // The crux of the paper's Fig. 5: a fixed 40-bit code decodes as slowly
    // on a fresh page as on a worn one, while the adaptive code starts cheap
    // and only converges to the fixed cost at end of life.
    let fixed = EccScheme::fixed_bch(40);
    let adaptive = EccScheme::adaptive_bch(40);
    let fresh = 0;
    let end_of_life = 3_000;

    // The fixed code's decode latency is dominated by its 40-bit solver at
    // every age; only the tiny per-corrected-bit term moves with wear.
    let fixed_fresh = fixed.decode_latency(fresh).as_ns_f64();
    let fixed_eol = fixed.decode_latency(end_of_life).as_ns_f64();
    assert!((fixed_eol - fixed_fresh) / fixed_fresh < 0.01);
    assert!(adaptive.decode_latency(fresh) < fixed.decode_latency(fresh) / 3);
    assert_eq!(
        adaptive.decode_latency(end_of_life),
        fixed.decode_latency(end_of_life)
    );

    // Encoding, by contrast, is essentially free of the capability choice.
    let encode_gap =
        fixed.encode_latency(fresh).as_ns_f64() - adaptive.encode_latency(fresh).as_ns_f64();
    assert!(encode_gap.abs() < 2_000.0);
}
