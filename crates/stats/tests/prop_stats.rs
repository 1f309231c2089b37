//! Property-based tests for the statistics substrate.
//!
//! Each invariant lives in a plain helper function called two ways: the
//! properties run it on seeded inputs from `caf_exec::prop`, and the
//! `smoke_*` tests pin a handful of hand-picked fixed points.

use caf_exec::prop::{self, VecOf};
use caf_stats::weighted::{weighted_median, WeightedSample};
use caf_stats::{mean, median, pearson, quantile, weighted_mean, Ecdf};
use std::ops::Range;

/// The mean lies between the minimum and maximum of the sample.
fn check_mean_bounded_by_extremes(xs: &[f64]) {
    let m = mean(xs).unwrap();
    let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
}

/// Quantiles are monotone in `p` and bounded by the sample range.
fn check_quantile_monotone_and_bounded(xs: &[f64], raw_ps: Vec<f64>) {
    let mut ps = raw_ps;
    ps.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut last = f64::NEG_INFINITY;
    for &p in &ps {
        let q = quantile(xs, p).unwrap();
        assert!(q >= last);
        last = q;
    }
    let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    assert!(quantile(xs, 0.0).unwrap() == lo);
    assert!(quantile(xs, 1.0).unwrap() == hi);
}

/// Weighted mean with uniform weights equals the plain mean.
fn check_weighted_mean_reduces_to_mean(xs: &[f64]) {
    let samples: Vec<WeightedSample> = xs.iter().map(|&x| WeightedSample::new(x, 1.0)).collect();
    let wm = weighted_mean(&samples).unwrap();
    let m = mean(xs).unwrap();
    assert!((wm - m).abs() < 1e-6 * (1.0 + m.abs()));
}

/// Weighted median with uniform weights satisfies the defining property
/// of a median: at least half the mass lies on each side.
fn check_weighted_median_splits_the_mass(xs: &[f64]) {
    let samples: Vec<WeightedSample> = xs.iter().map(|&x| WeightedSample::new(x, 1.0)).collect();
    let wm = weighted_median(&samples).unwrap();
    let n = xs.len() as f64;
    let at_most = xs.iter().filter(|&&x| x <= wm).count() as f64;
    let strictly_below = xs.iter().filter(|&&x| x < wm).count() as f64;
    // The median is an observed value with >= half the mass at or below
    // it, and < half the mass strictly below it.
    assert!(xs.contains(&wm));
    assert!(at_most >= n / 2.0);
    assert!(strictly_below < n / 2.0);
    let _ = median(xs).unwrap(); // still computable on the same input
}

/// ECDF is a valid CDF: monotone, 0 below min, 1 at and above max.
fn check_ecdf_is_a_cdf(xs: &[f64], probes: Vec<f64>) {
    let e = Ecdf::new(xs).unwrap();
    assert_eq!(e.eval(e.min() - 1.0), 0.0);
    assert_eq!(e.eval(e.max()), 1.0);
    let mut sorted = probes;
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut last = 0.0;
    for &x in &sorted {
        let f = e.eval(x);
        assert!((0.0..=1.0).contains(&f));
        assert!(f >= last);
        last = f;
    }
}

/// Pearson correlation is symmetric and invariant under positive affine
/// transformations of either argument.
fn check_pearson_affine_invariance(pairs: &[(f64, f64)], a: f64, b: f64) {
    let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    if let Ok(r) = pearson(&xs, &ys) {
        assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        let r_sym = pearson(&ys, &xs).unwrap();
        assert!((r - r_sym).abs() < 1e-9);
        let xs_t: Vec<f64> = xs.iter().map(|x| a * x + b).collect();
        let r_t = pearson(&xs_t, &ys).unwrap();
        assert!((r - r_t).abs() < 1e-6);
    }
}

/// Cases per property.
const CASES: u32 = 256;

fn samples() -> VecOf<Range<f64>> {
    prop::vec(-1.0e6f64..1.0e6, 1..200)
}

#[test]
fn mean_is_bounded_by_extremes() {
    prop::check(CASES, samples(), |xs| check_mean_bounded_by_extremes(&xs));
}

#[test]
fn quantile_monotone_and_bounded() {
    prop::check(
        CASES,
        (samples(), prop::vec(0.0f64..=1.0, 2..10)),
        |(xs, raw_ps)| check_quantile_monotone_and_bounded(&xs, raw_ps),
    );
}

#[test]
fn weighted_mean_reduces_to_mean() {
    prop::check(CASES, samples(), |xs| {
        check_weighted_mean_reduces_to_mean(&xs)
    });
}

#[test]
fn weighted_median_splits_the_mass() {
    prop::check(CASES, samples(), |xs| {
        check_weighted_median_splits_the_mass(&xs)
    });
}

#[test]
fn ecdf_is_a_cdf() {
    prop::check(
        CASES,
        (samples(), prop::vec(-1.0e6f64..1.0e6, 1..50)),
        |(xs, probes)| check_ecdf_is_a_cdf(&xs, probes),
    );
}

#[test]
fn pearson_affine_invariance() {
    prop::check(
        CASES,
        (
            prop::vec((-1.0e3f64..1.0e3, -1.0e3f64..1.0e3), 3..100),
            0.1f64..10.0,
            -100.0f64..100.0,
        ),
        |(pairs, a, b)| check_pearson_affine_invariance(&pairs, a, b),
    );
}

/// Deterministic fixed samples (odd/even lengths, duplicates, negatives,
/// a singleton) that exercise every branch the properties cover, plus a
/// sample a past property run once failed on.
fn smoke_samples() -> Vec<Vec<f64>> {
    vec![
        vec![0.0],
        vec![0.0, -447_990.825_216_967_2, 0.0, -141_244.251_361_863_22],
        vec![-3.5, 2.0, 2.0, 99.25],
        vec![5.0, -1.0, 4.25, 0.0, -273.15],
        (0..150).map(|i| ((i * 37) % 101) as f64 - 50.0).collect(),
    ]
}

#[test]
fn smoke_univariate_invariants_hold_on_fixed_samples() {
    for xs in smoke_samples() {
        check_mean_bounded_by_extremes(&xs);
        check_quantile_monotone_and_bounded(&xs, vec![0.9, 0.1, 0.5, 0.25, 1.0, 0.0]);
        check_weighted_mean_reduces_to_mean(&xs);
        check_weighted_median_splits_the_mass(&xs);
        check_ecdf_is_a_cdf(&xs, vec![-2.0e6, -1.0, 0.0, 2.0, 2.0e6]);
    }
}

#[test]
fn smoke_pearson_invariance_holds_on_fixed_pairs() {
    let pairs: Vec<(f64, f64)> = (0..40)
        .map(|i| {
            let x = ((i * 13) % 29) as f64 - 14.0;
            (x, 0.75 * x + ((i * 7) % 11) as f64)
        })
        .collect();
    check_pearson_affine_invariance(&pairs, 2.5, -40.0);
    check_pearson_affine_invariance(&pairs, 0.1, 100.0);
}
