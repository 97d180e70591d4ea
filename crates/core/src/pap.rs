//! Page access-permission (pAP) flag device model (paper §5.3).
//!
//! Each page's pAP flag is stored in `k` spare SLC flash cells on the same
//! wordline, programmed with a low-voltage one-shot pulse under SBPI
//! inhibition (so neither the data cells nor the sibling pages' flag cells
//! are touched), and decoded by a k-bit majority circuit.
//!
//! The device model answers the questions the paper's design-space
//! exploration asks: does a one-shot pulse at `(V, t)` reliably program the
//! flag cells, and do the programmed cells keep their value across years of
//! retention?

use crate::calibration::{
    plock_flag_decay, plock_flag_margin, plock_flag_success, DesignPoint, PLOCK_FLAG_SIGMA,
};
use crate::chip::unit_draw;
use evanesco_nand::math::prob_above;

/// Configuration of the pAP flag mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PapConfig {
    /// Redundant flag cells per pAP flag (paper final value: 9).
    pub k: usize,
    /// Selected programming design point (paper final value: `(Vp4, 100 µs)`,
    /// i.e. combination (ii)).
    pub point: DesignPoint,
}

impl PapConfig {
    /// The paper's selected configuration: `k = 9`, `(Vp4, 100 µs)`.
    pub fn paper() -> Self {
        PapConfig { k: 9, point: DesignPoint::new(4, 100) }
    }
}

impl Default for PapConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Vth of an erased (never-programmed) flag cell, relative to the SLC flag
/// read reference.
pub const ERASED_CELL_VTH: f64 = -2.0;

/// Relative sigma of a cell's detrapping rate around the mean decay.
const DETRAP_SIGMA: f64 = 0.15;

/// [`cell_vth`] with the three calibrated constants a flag's cells share
/// already looked up. The `b` coordinate of [`unit_draw`] picks the draw:
/// 0 = programmed?, 1 and 2 = the Box–Muller radius and angle.
fn keyed_vth(seed: u64, nonce: u64, cell: usize, success: f64, margin: f64, decay: f64) -> f64 {
    let cell = cell as u64;
    if unit_draw(seed, nonce, 0, cell) >= success {
        return ERASED_CELL_VTH;
    }
    // Sampling (0, 1] avoids ln(0).
    let r = (-2.0 * (1.0 - unit_draw(seed, nonce, 1, cell)).ln()).sqrt();
    let (sin, cos) = (2.0 * std::f64::consts::PI * unit_draw(seed, nonce, 2, cell)).sin_cos();
    margin + PLOCK_FLAG_SIGMA * r * cos - (decay * (1.0 + DETRAP_SIGMA * r * sin)).max(0.0)
}

/// Vth (relative to the SLC flag read reference, so `> 0` reads as
/// programmed) of cell `cell` of the flag a chip keyed by `seed` programmed
/// as its `nonce`-th `pLock` at `point`, `age_days` after that program.
///
/// A pure function: a cell either failed to program (stays at
/// [`ERASED_CELL_VTH`], per-cell probability `1 - plock_flag_success`) or
/// landed at `margin + sigma * z0` and has since lost
/// `max(0, plock_flag_decay(age) * (1 + 0.15 * z1))`, with `(z0, z1)` a
/// standard-normal pair fixed by `(seed, nonce, cell)`. Nothing is stored
/// per cell and no draw depends on any other flag, so the value is the same
/// whenever and however often it is computed, and the voltage at age
/// `a + b` does not depend on how the rest was sliced.
pub fn cell_vth(seed: u64, point: DesignPoint, nonce: u64, cell: usize, age_days: f64) -> f64 {
    let (success, margin) = (plock_flag_success(point), plock_flag_margin(point));
    keyed_vth(seed, nonce, cell, success, margin, plock_flag_decay(age_days))
}

/// Decodes the `config.k` cells of flag `nonce` at `age_days` through the
/// majority circuit: `true` = disabled (page locked). See [`cell_vth`].
pub fn cells_read_disabled(seed: u64, config: PapConfig, nonce: u64, age_days: f64) -> bool {
    let (success, margin) = (plock_flag_success(config.point), plock_flag_margin(config.point));
    let decay = plock_flag_decay(age_days);
    // The vote is decided at the `k/2 + 1`-th programmed cell; stop there.
    let programmed = (0..config.k)
        .filter(|&c| keyed_vth(seed, nonce, c, success, margin, decay) > 0.0)
        .take(config.k / 2 + 1)
        .count();
    crate::majority::majority_count(programmed, config.k)
}

/// Probability that a single programmed flag cell has flipped back to the
/// erased side after `days` of retention (analytic).
pub fn cell_flip_prob(point: DesignPoint, days: f64) -> f64 {
    let margin = plock_flag_margin(point);
    let decay = plock_flag_decay(days);
    // Cell reads erased when margin - decay + noise < 0.
    1.0 - prob_above(margin - decay, PLOCK_FLAG_SIGMA, 0.0)
}

/// Expected number of erroneous (flipped) cells out of `k` after `days`,
/// including the cells that failed to program in the first place
/// (Figure 9d reports `k - errors` as "# of flag cells w/o errors").
pub fn expected_flag_errors(point: DesignPoint, days: f64, k: usize) -> f64 {
    let p_unprogrammed = 1.0 - plock_flag_success(point);
    let p_flip = cell_flip_prob(point, days);
    k as f64 * (p_unprogrammed + (1.0 - p_unprogrammed) * p_flip)
}

/// Probability that the majority circuit mis-reads a programmed flag as
/// *enabled* after `days` (i.e. at least `ceil(k/2)` cells are wrong).
/// This is the security-failure probability of a locked page re-appearing.
pub fn majority_failure_prob(point: DesignPoint, days: f64, k: usize) -> f64 {
    let p_unprogrammed = 1.0 - plock_flag_success(point);
    let p_flip = cell_flip_prob(point, days);
    let p_err = p_unprogrammed + (1.0 - p_unprogrammed) * p_flip;
    let need = k / 2 + 1;
    // Binomial tail: P(errors >= need).
    let mut prob = 0.0;
    for e in need..=k {
        prob += binomial_pmf(k, e, p_err);
    }
    prob
}

fn binomial_pmf(n: usize, x: usize, p: f64) -> f64 {
    let mut coeff = 1.0;
    for i in 0..x {
        coeff *= (n - i) as f64 / (i + 1) as f64;
    }
    coeff * p.powi(x as i32) * (1.0 - p).powi((n - x) as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIVE_YEARS: f64 = 5.0 * 365.0;

    #[test]
    fn paper_point_programs_reliably_and_survives_five_years() {
        let cfg = PapConfig::paper();
        for nonce in 0..500 {
            assert!(cells_read_disabled(21, cfg, nonce, 0.0), "flag {nonce} failed to lock");
            assert!(cells_read_disabled(21, cfg, nonce, FIVE_YEARS), "flag {nonce} lost the lock");
        }
    }

    #[test]
    fn weak_point_often_fails_to_program() {
        // (Vp1, 100µs): only 47.3% of cells program; the majority of 9 often
        // does not reach 5 programmed cells.
        let cfg = PapConfig { k: 9, point: DesignPoint::new(1, 100) };
        let trials = 500;
        let failures = (0..trials).filter(|&n| !cells_read_disabled(22, cfg, n, 0.0)).count();
        let frac = failures as f64 / trials as f64;
        assert!(frac > 0.3, "weak corner failure fraction {frac} too low");
    }

    #[test]
    fn a_cell_is_a_pure_function_that_only_loses_charge() {
        let point = DesignPoint::new(2, 200);
        for nonce in 0..200 {
            for cell in 0..9 {
                let fresh = cell_vth(5, point, nonce, cell, 0.0);
                assert_eq!(fresh.to_bits(), cell_vth(5, point, nonce, cell, 0.0).to_bits());
                let mut prev = fresh;
                for days in [1.0, 30.0, 365.0, FIVE_YEARS] {
                    let v = cell_vth(5, point, nonce, cell, days);
                    assert!(v <= prev, "cell ({nonce}, {cell}) gained charge at {days} days");
                    prev = v;
                }
            }
        }
        // Different keys are different cells.
        assert_ne!(cell_vth(5, point, 0, 0, 0.0), cell_vth(6, point, 0, 0, 0.0));
        assert_ne!(cell_vth(5, point, 0, 0, 0.0), cell_vth(5, point, 1, 0, 0.0));
    }

    #[test]
    fn weakest_candidate_loses_majority_at_five_years() {
        // Paper Fig. 9d: combination (vi) = (Vp2, 200µs) shows ~5 erroneous
        // cells of 9 at the 5-year point -> majority can break.
        let point = DesignPoint::new(2, 200);
        let e = expected_flag_errors(point, 5.0 * 365.0, 9);
        assert!(e >= 4.0, "expected errors {e} too low for the weak candidate");
        let fail = majority_failure_prob(point, 5.0 * 365.0, 9);
        assert!(fail > 0.05, "majority failure prob {fail} should be material");
    }

    #[test]
    fn selected_point_has_negligible_majority_failure() {
        let fail = majority_failure_prob(DesignPoint::new(4, 100), 5.0 * 365.0, 9);
        assert!(fail < 1e-6, "selected point failure prob {fail}");
    }

    #[test]
    fn strongest_candidate_has_at_most_two_expected_errors() {
        // Paper Fig. 9d: combination (i) = (Vp4, 150µs) leads to at most ~2
        // errors in 9 flag cells at 5 years.
        let e = expected_flag_errors(DesignPoint::new(4, 150), 5.0 * 365.0, 9);
        assert!(e <= 2.0, "expected errors {e}");
    }

    #[test]
    fn expected_errors_monotonic_in_time() {
        let point = DesignPoint::new(3, 100);
        let mut prev = -1.0;
        for days in [10.0, 100.0, 1000.0, 10000.0] {
            let e = expected_flag_errors(point, days, 9);
            assert!(e > prev);
            prev = e;
        }
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        let total: f64 = (0..=9).map(|x| binomial_pmf(9, x, 0.3)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
