//! Automatic adjustment of the similarity threshold `t` (paper §4.6).
//!
//! Each iteration builds a histogram of the similarities of all
//! sequence–cluster combinations. The *valley* is the histogram point where
//! the curve turns most sharply — formalized as the bucket `i` maximizing
//! the absolute difference between the slopes of the least-squares
//! regression lines fitted to the left part (buckets `1..=i`) and the right
//! part (buckets `i..=n`). The threshold then moves half-way toward the
//! valley: `t ← (t + t̂) / 2`, and stops moving once within 1%.
//!
//! Similarities here are log-space ([`crate::LogSim`]); the valley analysis
//! is performed on the log axis, which preserves the turn structure (a
//! monotone reparameterization of the x-axis) and keeps the huge dynamic
//! range of raw similarities tractable.

use cluseq_eval::Histogram;

/// Least-squares slope of the regression line through `points`
/// (the paper's `bᵢ` formula; returns 0 for degenerate inputs such as a
/// single point or zero x-variance).
pub fn regression_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let sum_x: f64 = points.iter().map(|p| p.0).sum();
    let sum_y: f64 = points.iter().map(|p| p.1).sum();
    let sum_xy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let sum_x2: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let denom = sum_x2 - sum_x * sum_x / n;
    if denom.abs() < 1e-12 {
        return 0.0;
    }
    (sum_xy - sum_x * sum_y / n) / denom
}

/// Finds the valley `t̂`: the bucket center maximizing
/// `|bᵢˡ − bᵢʳ|` over interior buckets `i = 2 … n−1` (1-indexed as in the
/// paper). Returns `None` when the histogram is too small or empty.
pub fn find_valley(hist: &Histogram) -> Option<f64> {
    let points = hist.points();
    let n = points.len();
    if n < 3 || hist.total() == 0 {
        return None;
    }
    let mut best_diff = f64::NEG_INFINITY;
    let mut best_x = None;
    // Interior buckets only: both sides need >= 2 points for a slope.
    for i in 1..n - 1 {
        let left = regression_slope(&points[..=i]);
        let right = regression_slope(&points[i..]);
        let diff = (left - right).abs();
        if diff > best_diff {
            best_diff = diff;
            best_x = Some(points[i].0);
        }
    }
    best_x
}

/// The outcome of one threshold-adjustment step, with the intermediate
/// valley exposed for telemetry ([`crate::telemetry::IterationRecord`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdDecision {
    /// The valley `t̂` the regression analysis found, if any (log-space).
    pub valley: Option<f64>,
    /// The threshold after the step (log-space; unchanged when `moved` is
    /// false).
    pub log_t: f64,
    /// Whether the threshold actually moved.
    pub moved: bool,
}

/// One threshold-adjustment step: moves `t` (log-space) half-way toward the
/// valley of `hist`, unless already within `tolerance` (relative, on the
/// log scale — the paper uses 1%). Exposes the valley it found.
pub fn decide_threshold(log_t: f64, hist: &Histogram, tolerance: f64) -> ThresholdDecision {
    let Some(valley) = find_valley(hist) else {
        return ThresholdDecision {
            valley: None,
            log_t,
            moved: false,
        };
    };
    // "Virtually the same": relative distance under the tolerance.
    let scale = log_t.abs().max(valley.abs()).max(1e-9);
    let moved = (valley - log_t).abs() / scale >= tolerance;
    ThresholdDecision {
        valley: Some(valley),
        log_t: if moved { (log_t + valley) / 2.0 } else { log_t },
        moved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_a_line_is_exact() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 1.0)).collect();
        assert!((regression_slope(&pts) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn slope_of_degenerate_inputs_is_zero() {
        assert_eq!(regression_slope(&[]), 0.0);
        assert_eq!(regression_slope(&[(1.0, 5.0)]), 0.0);
        assert_eq!(regression_slope(&[(2.0, 1.0), (2.0, 9.0)]), 0.0);
    }

    /// A histogram shaped like the paper's Figure 3: steep decline on the
    /// left, flat tail on the right, with the valley at the elbow.
    fn figure3_histogram() -> Histogram {
        let mut h = Histogram::new(0.0, 10.0, 20);
        for bucket in 0..20 {
            let x = h.bucket_center(bucket);
            // Steep line until x = 4, flat low tail after.
            let count = if x < 4.0 {
                (1000.0 - 240.0 * x) as u64
            } else {
                30
            };
            for _ in 0..count {
                h.add(x);
            }
        }
        h
    }

    #[test]
    fn valley_lands_at_the_elbow() {
        let h = figure3_histogram();
        let valley = find_valley(&h).unwrap();
        assert!(
            (3.0..=5.0).contains(&valley),
            "valley {valley} should be near the elbow at 4"
        );
    }

    #[test]
    fn valley_of_empty_histogram_is_none() {
        let h = Histogram::new(0.0, 1.0, 10);
        assert_eq!(find_valley(&h), None);
    }

    #[test]
    fn adjustment_moves_halfway() {
        let h = figure3_histogram();
        let valley = find_valley(&h).unwrap();
        let d = decide_threshold(0.0, &h, 0.01);
        assert!(d.moved);
        assert!((d.log_t - valley / 2.0).abs() < 1e-9);
    }

    #[test]
    fn adjustment_converges_geometrically() {
        let h = figure3_histogram();
        let valley = find_valley(&h).unwrap();
        let mut t = 0.0;
        for _ in 0..40 {
            let d = decide_threshold(t, &h, 0.01);
            t = d.log_t;
            if !d.moved {
                break;
            }
        }
        assert!(
            (t - valley).abs() / valley < 0.02,
            "t = {t} should settle within ~1% of the valley {valley}"
        );
    }

    #[test]
    fn adjustment_stops_within_tolerance() {
        let h = figure3_histogram();
        let valley = find_valley(&h).unwrap();
        let d = decide_threshold(valley * 0.999, &h, 0.01);
        assert!(!d.moved);
        assert_eq!(d.log_t, valley * 0.999);
    }

    #[test]
    fn decide_threshold_reports_the_valley() {
        let h = figure3_histogram();
        let valley = find_valley(&h).unwrap();
        let d = decide_threshold(0.0, &h, 0.01);
        assert_eq!(d.valley, Some(valley));
        assert!(d.moved);
        assert!((d.log_t - valley / 2.0).abs() < 1e-9);
        // Frozen case: valley still reported, threshold untouched.
        let d2 = decide_threshold(valley, &h, 0.01);
        assert_eq!(d2.valley, Some(valley));
        assert!(!d2.moved);
        assert_eq!(d2.log_t, valley);
    }

    #[test]
    fn decide_threshold_without_a_valley_is_a_noop() {
        let h = Histogram::new(0.0, 1.0, 10);
        let d = decide_threshold(0.5, &h, 0.01);
        assert_eq!(d.valley, None);
        assert!(!d.moved);
        assert_eq!(d.log_t, 0.5);
    }
}
