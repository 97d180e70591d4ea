//! Small numerical helpers: error function, Gaussian tail probabilities,
//! Box–Muller normal sampling and the FNV-1a hash.
//!
//! Implemented in-crate (rather than pulling `libm`/`rand_distr`) to keep the
//! dependency set to the approved list; accuracy of the Abramowitz–Stegun
//! `erf` approximation (~1.5e-7 absolute) is far below the tolerances of any
//! calibration in this repository.

use rand::Rng;

/// Error function approximation (Abramowitz & Stegun 7.1.26).
///
/// Maximum absolute error ≈ 1.5e-7.
///
/// ```rust
/// let e = evanesco_nand::math::erf(1.0);
/// assert!((e - 0.8427007).abs() < 1e-6);
/// ```
pub fn erf(x: f64) -> f64 {
    const A1: f64 = 0.254_829_592;
    const A2: f64 = -0.284_496_736;
    const A3: f64 = 1.421_413_741;
    const A4: f64 = -1.453_152_027;
    const A5: f64 = 1.061_405_429;
    const P: f64 = 0.327_591_1;

    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// Complementary error function.
pub fn erfc(x: f64) -> f64 {
    1.0 - erf(x)
}

/// Standard normal cumulative distribution function Φ(x).
pub fn phi(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Gaussian upper-tail probability Q(x) = 1 − Φ(x).
pub fn q(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Probability that a `N(mean, sigma)` sample exceeds `threshold`.
pub fn prob_above(mean: f64, sigma: f64, threshold: f64) -> f64 {
    if sigma <= 0.0 {
        return if mean > threshold { 1.0 } else { 0.0 };
    }
    q((threshold - mean) / sigma)
}

/// Probability that a `N(mean, sigma)` sample is below `threshold`.
pub fn prob_below(mean: f64, sigma: f64, threshold: f64) -> f64 {
    1.0 - prob_above(mean, sigma, threshold)
}

/// Draws one standard-normal sample using the Box–Muller transform.
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling the half-open interval (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws a `N(mean, sigma)` sample.
pub fn sample_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    mean + sigma * sample_standard_normal(rng)
}

/// Simple percentile over a copied, sorted slice. `p` in `[0, 100]`.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty slice");
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let idx = ((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize;
    v[idx.min(v.len() - 1)]
}

/// Arithmetic mean. Returns 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Maximum over a slice of floats. Returns 0.0 for an empty slice.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::MIN, f64::max).max(0.0)
}

/// FNV-1a 64-bit offset basis: the hash of no bytes.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continues the FNV-1a 64-bit hash `h` over `bytes`; start from
/// [`FNV1A_OFFSET`]. The one hash behind page content tags, the FTL's
/// table seals and the fleet and golden-test digests. Not cryptographic.
///
/// ```rust
/// use evanesco_nand::math::{fnv1a, FNV1A_OFFSET};
/// assert_eq!(fnv1a(FNV1A_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
/// assert_eq!(fnv1a(fnv1a(FNV1A_OFFSET, b"a"), b"b"), fnv1a(FNV1A_OFFSET, b"ab"));
/// ```
#[inline]
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV1A_PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-9);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(2.0) - 0.995_322_27).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
    }

    #[test]
    fn phi_symmetry_and_bounds() {
        for x in [-3.0, -1.0, 0.0, 0.5, 2.5] {
            let p = phi(x);
            assert!((0.0..=1.0).contains(&p));
            // Tolerance bounded by the erf approximation error (~1.5e-7).
            assert!((phi(x) + phi(-x) - 1.0).abs() < 1e-6);
        }
        assert!((phi(0.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn q_matches_one_minus_phi() {
        for x in [-2.0, 0.0, 1.3, 4.0] {
            assert!((q(x) - (1.0 - phi(x))).abs() < 1e-9);
        }
    }

    #[test]
    fn prob_above_degenerate_sigma() {
        assert_eq!(prob_above(2.0, 0.0, 1.0), 1.0);
        assert_eq!(prob_above(0.5, 0.0, 1.0), 0.0);
    }

    #[test]
    fn normal_sampling_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_normal(&mut rng, 3.0, 0.5)).collect();
        let m = mean(&samples);
        let var = samples.iter().map(|s| (s - m) * (s - m)).sum::<f64>() / n as f64;
        assert!((m - 3.0).abs() < 0.01, "mean {m}");
        assert!((var.sqrt() - 0.5).abs() < 0.01, "sigma {}", var.sqrt());
    }

    #[test]
    fn percentile_and_max() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(max(&v), 5.0);
        assert_eq!(max(&[]), 0.0);
    }

    #[test]
    fn prob_above_below_sum_to_one() {
        let p = prob_above(1.0, 0.3, 1.4) + prob_below(1.0, 0.3, 1.4);
        assert!((p - 1.0).abs() < 1e-12);
    }
}
