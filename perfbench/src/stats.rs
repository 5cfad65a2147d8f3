//! Order statistics over host-time samples.

/// Nearest-rank quantile of `values` (`q` in `0..=1`); `0.0` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Largest value; `0.0` when empty.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Exact nanosecond histogram for per-call timings too numerous to keep
/// one by one (a traced run times every `SimSession::step`). Values above
/// the exact range land in one overflow bucket at the range's end.
pub struct NsHistogram {
    counts: Vec<u64>,
    total: u64,
}

const EXACT_NS: usize = 200_000;

impl NsHistogram {
    pub fn new() -> Self {
        NsHistogram {
            counts: vec![0; EXACT_NS + 1],
            total: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[(ns as usize).min(EXACT_NS)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank quantile in nanoseconds.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (ns, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return ns as f64;
            }
        }
        EXACT_NS as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        let mut h = NsHistogram::new();
        for ns in 1..=100 {
            h.record(ns);
        }
        assert_eq!(h.quantile(0.99), 99.0);
        assert_eq!(h.count(), 100);
    }
}
