//! Machine-speed calibration for the host clock.
//!
//! The sandbox's speed is not constant: besides one-sided spikes it has
//! patches of tens of seconds at −20 to −30 % (a neighbour on the same
//! core). Over four minutes of alternating this kernel with repetitions of
//! the churn workload, the two correlated at 0.80; the median repetition
//! wall over windows of 25 spread 11 % (range 36 %) raw and 2.7 % (range
//! 9 %) once each repetition was divided by the kernel time taken around
//! it. So every timed repetition is bracketed by the kernel, and host
//! end-to-end times are reported at [`REFERENCE_S`] speed.
//!
//! The kernel is the benchmark's own code and calls nothing of the
//! product, so no product change can move it. Its shape is frozen: a
//! change to it rescales every host metric.

use std::time::Instant;

/// What [`kernel`] takes on the 2-core sandbox when it is quiet. It only
/// fixes the scale: on a machine of that speed calibrated and raw times
/// coincide.
pub const REFERENCE_S: f64 = 0.030;

const ITERATIONS: u64 = 1_500_000;
const TABLE_WORDS: usize = 1 << 17; // 1 MiB: dependent loads that miss L1

/// Fixed work shaped like the emulator's hot loop: Box–Muller-style
/// floating point (`ln`, `sqrt`, `cos`) interleaved with dependent table
/// walks. Returns the seconds it took and a checksum of its integer state.
pub fn kernel() -> (f64, u64) {
    let mut table = vec![1u64; TABLE_WORDS];
    let mask = TABLE_WORDS - 1;
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    for i in 0..ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let u = ((x >> 11) as f64 + 1.0) / 9_007_199_254_740_993.0;
        acc += (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * (i as f64 * 1e-6)).cos();
        let j = (x as usize) & mask;
        table[j] = table[j].wrapping_add(x);
        x ^= table[(j * 31) & mask];
    }
    std::hint::black_box(acc);
    (t.elapsed().as_secs_f64(), x)
}

/// How much slower than the reference the machine ran, given the kernel
/// times taken just before and just after a measurement.
pub fn slowdown(before_s: f64, after_s: f64) -> f64 {
    (before_s + after_s) / 2.0 / REFERENCE_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_time() {
        let (secs, checksum) = kernel();
        assert!(secs > 0.0 && secs.is_finite());
        assert_eq!(checksum, kernel().1);
        // Frozen shape: a different checksum means different work, which
        // silently rescales every host metric against earlier baselines.
        assert_eq!(checksum, 0x469f_d73c_8ff2_ca35, "{checksum:#018x}");
    }

    #[test]
    fn slowdown_is_relative_to_the_reference() {
        assert_eq!(slowdown(REFERENCE_S, REFERENCE_S), 1.0);
        assert_eq!(slowdown(2.0 * REFERENCE_S, 4.0 * REFERENCE_S), 3.0);
    }
}
