//! Sample statistics, the percentile-reporting rule, metric naming and the
//! result line.
//!
//! Reporting rule (choosing-metrics guide §1): a timing is reported as its
//! median plus the highest percentile that still has at least
//! [`MIN_BEYOND`] samples beyond it, together with the sample count.

use std::fmt::Write as _;

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles considered, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Nearest-rank index of percentile `p` in `n` sorted samples. Integer
/// arithmetic in hundredths of a percent, so `p99.99` of 100 000 samples
/// is exactly rank 99 990.
fn rank(n: usize, p: f64) -> usize {
    let hundredths = (p * 100.0).round() as u128;
    let r = (hundredths * n as u128).div_ceil(10_000) as usize;
    r.clamp(1, n) - 1
}

/// Value at percentile `p` (nearest rank) of ascending `sorted` samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p)]
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] of `n`
/// samples strictly above its rank, or `None` when even the median has
/// fewer (fewer than 20 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n > 0 && n - (rank(n, p) + 1) >= MIN_BEYOND)
}

/// Median and reportable tail of one timing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: u64,
    /// `(percentile, value)` by the [`MIN_BEYOND`] rule.
    pub tail: Option<(f64, u64)>,
}

impl Summary {
    /// Summarise `samples` (sorted in place). `None` for no samples.
    pub fn of(samples: &mut [u64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        Some(Summary {
            n: samples.len(),
            median: percentile(samples, 50.0),
            tail: tail_percentile(samples.len()).map(|p| (p, percentile(samples, p))),
        })
    }

    /// `median 41 ns, p99.9 230 ns (n=812345)`, values scaled by `div`.
    pub fn describe(&self, unit: &str, div: f64) -> String {
        let mut s = format!("median {:.3} {unit}", self.median as f64 / div);
        if let Some((p, v)) = self.tail {
            let _ = write!(s, ", p{p} {:.3} {unit}", v as f64 / div);
        }
        let _ = write!(s, " (n={})", self.n);
        s
    }
}

/// Median of unsorted floats (sorts in place); `None` when empty.
pub fn median_f64(v: &mut [f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Share of samples dropped from each end by [`trimmed_mean`]: with a
/// quarter, the mean of the middle half (the interquartile mean).
pub const TRIM: f64 = 0.25;

/// Mean of unsorted floats (sorts in place) after dropping the lowest and
/// the highest `trim` share of them; `None` when empty. Steadier than the
/// median across runs, and a minority of wild samples cannot move it.
pub fn trimmed_mean(v: &mut [f64], trim: f64) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let cut = (v.len() as f64 * trim).floor() as usize;
    let kept = &v[cut..v.len() - cut];
    Some(kept.iter().sum::<f64>() / kept.len() as f64)
}

/// `num / den`, or 0 when nothing was counted in the base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Metric and workload names: a letter or digit first, then at most 63
/// more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric. `base` says what a ratio was computed from, for
/// the human-readable report.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub base: String,
}

/// The metrics of one run, in report order.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str, base: String) {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(value.is_finite(), "{name} is not finite: {value}");
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name,
            value,
            unit,
            base,
        });
    }

    /// Human-readable lines, one per metric, with each ratio's base.
    pub fn print_table(&self) {
        for m in &self.metrics {
            if m.base.is_empty() {
                println!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
            } else {
                println!(
                    "  {:<40} {:>16.4} {:<14} [{}]",
                    m.name, m.value, m.unit, m.base
                );
            }
        }
    }

    /// The result object: the last line the benchmark prints.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            // `{:?}` prints the shortest decimal that round-trips, so every
            // measured digit survives.
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(10_000_000), Some(99.99));
        for n in 1..5_000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - (rank(n, p) + 1) >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.9), 7);
        let mut s: Vec<u64> = (0..1_000).rev().collect();
        let sum = Summary::of(&mut s).unwrap();
        assert_eq!(sum.n, 1_000);
        assert_eq!(sum.median, 499);
        assert_eq!(sum.tail, Some((99.0, 989)));
        assert_eq!(Summary::of(&mut []), None);
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_f64(&mut [4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn trimmed_mean_drops_each_tail() {
        assert_eq!(trimmed_mean(&mut [], 0.1), None);
        assert_eq!(trimmed_mean(&mut [5.0], 0.1), Some(5.0));
        // Ten samples: one dropped from each end.
        let mut v = [1e9, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, -1e9];
        assert_eq!(trimmed_mean(&mut v, 0.1), Some(5.5));
        assert_eq!(trimmed_mean(&mut [3.0, 1.0, 2.0], 0.1), Some(2.0));
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "ops_per_s",
            "cowbird-engine.probe_hit_frac",
            "0x",
            "a.b-c_d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "uni/t",
            "é",
            "a:b",
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_shape() {
        let mut r = Report::default();
        r.add("ops_per_s", 1234.5678, "ops/s", String::new());
        r.add("setup_s", 0.1, "s", String::new());
        assert_eq!(
            r.result_line(true, 10, 0),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"ops_per_s\": {\"value\": 1234.5678, \"unit\": \"ops/s\"}, \
             \"setup_s\": {\"value\": 0.1, \"unit\": \"s\"}}}"
        );
    }
}
