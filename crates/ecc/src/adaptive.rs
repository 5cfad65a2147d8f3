//! The static correction table driving the adaptive BCH scheme.

/// A static table correlating the target correction capability with memory
/// page wear-out, measured in program/erase cycles.
///
/// Every time a new page is written, the proper correction capability is
/// selected from the table based on the current P/E count of its block —
/// exactly the mechanism the paper describes for the adaptive BCH scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveTable {
    /// `(pe_threshold, t)` entries sorted by threshold: the capability of the
    /// first entry whose threshold is `>=` the page's P/E count is used.
    entries: Vec<(u64, u32)>,
    /// Capability used beyond the last threshold (worst case).
    max_t: u32,
}

impl AdaptiveTable {
    /// Builds a table from `(pe_threshold, t)` pairs plus the worst-case
    /// capability used beyond the last threshold.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty, thresholds are not strictly increasing,
    /// or capabilities are not non-decreasing.
    pub fn new(entries: Vec<(u64, u32)>, max_t: u32) -> Self {
        assert!(
            !entries.is_empty(),
            "adaptive table needs at least one entry"
        );
        for w in entries.windows(2) {
            assert!(w[0].0 < w[1].0, "thresholds must be strictly increasing");
            assert!(w[0].1 <= w[1].1, "capabilities must be non-decreasing");
        }
        assert!(
            entries.last().map(|e| e.1 <= max_t).unwrap_or(true),
            "max_t must be at least the last table capability"
        );
        AdaptiveTable { entries, max_t }
    }

    /// The default table for a 3 000-cycle MLC part with a 40-bit worst-case
    /// code: capability steps up roughly every fifth of the rated life.
    pub fn paper_default(max_t: u32, rated_pe: u64) -> Self {
        let steps = [
            (0.20, 0.20),
            (0.40, 0.35),
            (0.60, 0.55),
            (0.80, 0.75),
            (1.00, 1.00),
        ];
        let entries = steps
            .iter()
            .map(|(life, frac)| {
                let pe = (rated_pe as f64 * life).round() as u64;
                let t = ((max_t as f64 * frac).ceil() as u32).max(4);
                (pe, t)
            })
            .collect();
        AdaptiveTable::new(entries, max_t)
    }

    /// Correction capability to use for a page whose block has seen
    /// `pe_cycles` program/erase cycles.
    pub fn t_for(&self, pe_cycles: u64) -> u32 {
        for &(threshold, t) in &self.entries {
            if pe_cycles <= threshold {
                return t;
            }
        }
        self.max_t
    }

    /// Worst-case capability of the table.
    pub fn max_t(&self) -> u32 {
        self.max_t
    }

    /// Number of entries in the table.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the table has no entries (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_table_is_monotone_in_pe() {
        let table = AdaptiveTable::paper_default(40, 3_000);
        let mut prev = 0;
        for pe in (0..=6_000).step_by(50) {
            let t = table.t_for(pe);
            assert!(t >= prev, "capability must not decrease with wear");
            assert!(t <= 40);
            prev = t;
        }
    }

    #[test]
    fn fresh_pages_use_much_weaker_code_than_worst_case() {
        let table = AdaptiveTable::paper_default(40, 3_000);
        assert!(table.t_for(0) <= 10);
        assert_eq!(table.t_for(10_000), 40);
        assert_eq!(table.max_t(), 40);
    }

    #[test]
    fn thresholds_select_correct_bin() {
        let table = AdaptiveTable::new(vec![(100, 8), (200, 16)], 40);
        assert_eq!(table.t_for(0), 8);
        assert_eq!(table.t_for(100), 8);
        assert_eq!(table.t_for(101), 16);
        assert_eq!(table.t_for(200), 16);
        assert_eq!(table.t_for(201), 40);
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_thresholds_rejected() {
        let _ = AdaptiveTable::new(vec![(200, 8), (100, 16)], 40);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_capability_rejected() {
        let _ = AdaptiveTable::new(vec![(100, 16), (200, 8)], 40);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn empty_table_rejected() {
        let _ = AdaptiveTable::new(vec![], 40);
    }
}
