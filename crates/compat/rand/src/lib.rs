//! A dependency-free, API-compatible subset of the `rand` 0.8 crate.
//!
//! The workspace builds in environments without network access, so instead
//! of pulling `rand` from a registry it vendors the exact surface the
//! simulator uses:
//!
//! * [`Rng::gen`], [`Rng::gen_range`], [`Rng::gen_bool`];
//! * [`SeedableRng::seed_from_u64`];
//! * [`rngs::StdRng`].
//!
//! Everything is **deterministic by construction**: `StdRng` is a
//! SplitMix64 generator, there is no `thread_rng`, and no entropy source —
//! every random stream in the repository must be derived from an explicit
//! seed, which is exactly the property the crash-replay and reproducibility
//! tests rely on.

use std::ops::{Range, RangeInclusive};

/// Low-level generator interface: a source of uniform `u64`s.
pub trait RngCore {
    /// Next uniform 64-bit value.
    fn next_u64(&mut self) -> u64;

    /// Next uniform 32-bit value.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with uniform bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types samplable from the "standard" distribution (uniform over the
/// value domain; floats uniform in `[0, 1)`).
pub trait StandardSample: Sized {
    /// Draws one value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl StandardSample for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl StandardSample for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges samplable uniformly (the argument type of [`Rng::gen_range`]).
pub trait SampleRange<T> {
    /// Draws one value from the range.
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

// An integer range is drawn as `lo + next_u64() % span`. Every type here
// is at most 64 bits wide, so the span, the offset and the sum are all
// exact modulo 2^64 (signed bounds sign-extend): plain `u64` arithmetic
// yields the value 128-bit arithmetic would, without a software 128-bit
// division. The one span that does not fit, 2^64 (a whole 64-bit domain,
// inclusive), takes the draw as it is — what `% 2^64` leaves of it.
macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                (self.start as u64).wrapping_add(rng.next_u64() % span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let v = match (hi as u64).wrapping_sub(lo as u64).checked_add(1) {
                    Some(span) => rng.next_u64() % span,
                    None => rng.next_u64(),
                };
                (lo as u64).wrapping_add(v) as $t
            }
        }
    )*};
}
impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let u = <$t as StandardSample>::sample_standard(rng);
                self.start + u * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let u = <$t as StandardSample>::sample_standard(rng);
                lo + u * (hi - lo)
            }
        }
    )*};
}
impl_sample_range_float!(f32, f64);

/// High-level convenience methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value from the standard distribution of `T`.
    fn gen<T: StandardSample>(&mut self) -> T {
        let mut this = self;
        T::sample_standard(&mut this)
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        let mut this = self;
        range.sample_from(&mut this)
    }

    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Deterministic construction of a generator from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose entire stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator (SplitMix64).
    ///
    /// Not the upstream `StdRng` algorithm (ChaCha12), but statistically
    /// adequate for the Monte-Carlo models here and — critically — stable
    /// across platforms and releases, so recorded crash-replay seeds never
    /// rot.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl StdRng {
        /// The raw generator state, for checkpointing a live stream.
        pub fn state(&self) -> u64 {
            self.state
        }

        /// Rebuilds a generator mid-stream from a state captured by
        /// [`StdRng::state`]. Unlike [`super::SeedableRng::seed_from_u64`]
        /// this performs no scrambling: the restored generator continues
        /// the original stream exactly where it left off.
        pub fn from_state(state: u64) -> Self {
            StdRng { state }
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // One scramble round so nearby seeds diverge immediately.
            let mut rng = StdRng { state: seed ^ 0x5DEE_CE66_D1CE_4E5B };
            let _ = rng.next_u64();
            rng
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn floats_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn unit_float_mean_is_centered() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.gen::<f64>()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn ranges_hit_bounds_and_stay_inside() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..1000 {
            let v = rng.gen_range(3u32..=5);
            assert!((3..=5).contains(&v));
            seen_lo |= v == 3;
            seen_hi |= v == 5;
            let w = rng.gen_range(-2i64..3);
            assert!((-2..3).contains(&w));
            let f = rng.gen_range(1.5f64..2.5);
            assert!((1.5..2.5).contains(&f));
        }
        assert!(seen_lo && seen_hi);
    }

    /// A generator that always yields one value.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// The 128-bit formula integer draws used before they moved to `u64`
    /// arithmetic: every drawn value must stay what it gave.
    fn reference<T: TryFrom<i128>>(x: u64, lo: i128, hi_inclusive: i128) -> T {
        let span = (hi_inclusive - lo) as u128 + 1;
        T::try_from(lo + ((x as u128) % span) as i128).ok().expect("in range")
    }

    /// Differential property test against [`reference`]: random draws and
    /// bounds of every width and sign, both range forms, edges included
    /// (whole domains, `lo == hi`, draws of 0 and `u64::MAX`).
    #[test]
    fn integer_draws_equal_the_128_bit_formula() {
        macro_rules! check {
            ($x:expr, $t:ty, $lo:expr, $hi:expr) => {{
                let (x, lo, hi): (u64, $t, $t) = ($x, $lo, $hi);
                let want: $t = reference(x, lo as i128, hi as i128);
                assert_eq!(Fixed(x).gen_range(lo..=hi), want, "{x}: {lo}..={hi}");
                if lo < hi {
                    let want: $t = reference(x, lo as i128, hi as i128 - 1);
                    assert_eq!(Fixed(x).gen_range(lo..hi), want, "{x}: {lo}..{hi}");
                }
            }};
        }
        macro_rules! each_type {
            ($rng:expr, $x:expr, $($t:ty),*) => {$({
                let rng: &mut StdRng = $rng;
                let (a, b) = (rng.gen::<$t>(), rng.gen::<$t>());
                // Narrow spans too: one case in four keeps `b` near `a`.
                let b = if $x % 4 == 0 { a.saturating_add((b as u8 % 9) as $t) } else { b };
                check!($x, $t, a.min(b), a.max(b));
                check!($x, $t, <$t>::MIN, <$t>::MAX);
                check!($x, $t, a, a);
                check!($x, $t, <$t>::MIN, a);
                check!($x, $t, a, <$t>::MAX);
            })*};
        }
        let mut rng = StdRng::seed_from_u64(0xD1FF);
        let edges = [0, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX];
        for i in 0..20_000 {
            let x = if i < edges.len() { edges[i] } else { rng.next_u64() };
            each_type!(&mut rng, x, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
        }
        for x in edges {
            assert_eq!(Fixed(x).gen_range(0..=u64::MAX), x, "the full domain takes the draw");
            assert_eq!(Fixed(x).gen_range(i64::MIN..=i64::MAX), x as i64 ^ i64::MIN);
        }
    }

    #[test]
    fn gen_bool_respects_probability() {
        let mut rng = StdRng::seed_from_u64(4);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn state_roundtrip_resumes_stream() {
        let mut a = StdRng::seed_from_u64(42);
        for _ in 0..17 {
            let _: u64 = a.gen();
        }
        let mut b = StdRng::from_state(a.state());
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn generic_rng_works_unsized() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.gen::<f64>()
        }
        let mut rng = StdRng::seed_from_u64(5);
        let a = draw(&mut rng);
        assert!((0.0..1.0).contains(&a));
    }
}
