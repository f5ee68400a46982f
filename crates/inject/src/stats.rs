//! Statistical sizing of fault-injection campaigns (Leveugle et al., DATE'09).

use serde::{Deserialize, Serialize};

/// Confidence level of the campaign estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Confidence {
    /// 90 % confidence (t = 1.645).
    C90,
    /// 95 % confidence (t = 1.960) — used for the paper's evaluation.
    C95,
    /// 99 % confidence (t = 2.576) — used for the paper's case studies.
    C99,
}

impl Confidence {
    /// The normal-distribution quantile associated with the level.
    pub fn t_value(self) -> f64 {
        match self {
            Confidence::C90 => 1.645,
            Confidence::C95 => 1.960,
            Confidence::C99 => 2.576,
        }
    }
}

/// Number of fault-injection tests needed to estimate a proportion over a
/// population of `population` possible faults with the given confidence and
/// margin of error `e` (e.g. 0.03 for ±3 %), assuming the worst-case
/// proportion p = 0.5:
///
/// ```text
/// n = N / (1 + e² · (N − 1) / (t² · p · (1 − p)))
/// ```
pub fn sample_size(population: u64, confidence: Confidence, margin: f64) -> u64 {
    assert!(margin > 0.0, "margin of error must be positive");
    if population == 0 {
        return 0;
    }
    let n = population as f64;
    let t = confidence.t_value();
    let p = 0.5_f64;
    let sample = n / (1.0 + margin * margin * (n - 1.0) / (t * t * p * (1.0 - p)));
    (sample.ceil() as u64).min(population)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_population_95_3_is_about_1067() {
        // The classic figure quoted in statistical fault-injection papers.
        let n = sample_size(10_000_000, Confidence::C95, 0.03);
        assert!((1050..=1080).contains(&n), "got {n}");
    }

    #[test]
    fn large_population_99_1_is_about_16k() {
        let n = sample_size(100_000_000, Confidence::C99, 0.01);
        assert!((16_000..=17_000).contains(&n), "got {n}");
    }

    #[test]
    fn small_populations_are_fully_enumerated() {
        assert_eq!(sample_size(10, Confidence::C95, 0.03), 10);
        assert_eq!(sample_size(0, Confidence::C95, 0.03), 0);
        assert_eq!(sample_size(1, Confidence::C99, 0.01), 1);
    }

    #[test]
    fn finite_population_correction_rounds_up() {
        // Two sites × 64 bits at 95 %/3 %:
        // n = 128 / (1 + 0.03² · 127 / (1.96² · 0.25)) = 114.4… → 115.
        assert_eq!(sample_size(128, Confidence::C95, 0.03), 115);
    }

    #[test]
    fn sample_size_is_monotone_in_margin_and_confidence() {
        let loose = sample_size(1_000_000, Confidence::C95, 0.05);
        let tight = sample_size(1_000_000, Confidence::C95, 0.01);
        assert!(tight > loose);
        let c90 = sample_size(1_000_000, Confidence::C90, 0.03);
        let c99 = sample_size(1_000_000, Confidence::C99, 0.03);
        assert!(c99 > c90);
    }

    #[test]
    #[should_panic(expected = "margin of error")]
    fn zero_margin_panics() {
        sample_size(100, Confidence::C95, 0.0);
    }
}
