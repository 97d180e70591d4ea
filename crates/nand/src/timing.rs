//! Operation latencies and the simulation time base.
//!
//! The paper's SecureSSD configuration (§7): `tREAD` = 80 µs, `tPROG` =
//! 700 µs, `tBERS` = 3.5 ms; from the design-space exploration `tpLock` =
//! 100 µs and `tbLock` = 300 µs; scrubbing (the scrSSD baseline) is also
//! modeled at 100 µs using one-shot programming.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// Simulation time in nanoseconds.
///
/// A newtype keeps durations and instants from being silently mixed with
/// unrelated integers across the FTL and emulator crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// Zero duration / epoch instant.
    pub const ZERO: Nanos = Nanos(0);

    /// Constructs from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Constructs from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Value in seconds as a float.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.1}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.1}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// NAND operation latency table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingSpec {
    /// Page read (array → page buffer).
    pub t_read: Nanos,
    /// Page program.
    pub t_prog: Nanos,
    /// Block erase.
    pub t_bers: Nanos,
    /// `pLock`: one-shot low-voltage program of a page's pAP flag cells.
    pub t_plock: Nanos,
    /// `bLock`: one-shot program of a block's SSL cells.
    pub t_block: Nanos,
    /// One-shot scrub (reprogram) of a wordline (scrSSD baseline).
    pub t_scrub: Nanos,
    /// Channel transfer of one full page (page buffer ↔ controller).
    pub t_xfer_page: Nanos,
}

impl TimingSpec {
    /// Serializes the latency table into a checkpoint stream.
    pub fn encode_snapshot(&self, e: &mut crate::snapshot::Enc) {
        for t in [
            self.t_read,
            self.t_prog,
            self.t_bers,
            self.t_plock,
            self.t_block,
            self.t_scrub,
            self.t_xfer_page,
        ] {
            e.u64(t.0);
        }
    }

    /// Inverse of [`TimingSpec::encode_snapshot`].
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub fn decode_snapshot(
        d: &mut crate::snapshot::Dec<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        Ok(TimingSpec {
            t_read: Nanos(d.u64()?),
            t_prog: Nanos(d.u64()?),
            t_bers: Nanos(d.u64()?),
            t_plock: Nanos(d.u64()?),
            t_block: Nanos(d.u64()?),
            t_scrub: Nanos(d.u64()?),
            t_xfer_page: Nanos(d.u64()?),
        })
    }

    /// Paper values (§7 and §5.5).
    pub fn paper() -> Self {
        TimingSpec {
            t_read: Nanos::from_micros(80),
            t_prog: Nanos::from_micros(700),
            t_bers: Nanos::from_micros(3_500),
            t_plock: Nanos::from_micros(100),
            t_block: Nanos::from_micros(300),
            t_scrub: Nanos::from_micros(100),
            // 16 KiB over a ~400 MB/s channel.
            t_xfer_page: Nanos::from_micros(40),
        }
    }
}

impl Default for TimingSpec {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_overhead_bounds_hold() {
        // §5.5: tpLock < 14.3% of tPROG; tbLock < 8.6% of tBERS.
        let t = TimingSpec::paper();
        let plock_frac = t.t_plock.0 as f64 / t.t_prog.0 as f64;
        let block_frac = t.t_block.0 as f64 / t.t_bers.0 as f64;
        assert!(plock_frac <= 0.143 + 1e-9, "plock fraction {plock_frac}");
        assert!(block_frac <= 0.086 + 1e-9, "block fraction {block_frac}");
    }

    #[test]
    fn nanos_arithmetic() {
        let a = Nanos::from_micros(100);
        let b = Nanos::from_micros(50);
        assert_eq!(a + b, Nanos::from_micros(150));
        assert_eq!(a - b, Nanos::from_micros(50));
        assert_eq!(b * 3, Nanos::from_micros(150));
        assert_eq!(a.saturating_sub(Nanos::from_millis(1)), Nanos::ZERO);
        let total: Nanos = [a, b, b].into_iter().sum();
        assert_eq!(total, Nanos::from_micros(200));
    }

    #[test]
    fn nanos_display_scales_units() {
        assert_eq!(Nanos(500).to_string(), "500ns");
        assert_eq!(Nanos::from_micros(80).to_string(), "80.0us");
        assert_eq!(Nanos::from_millis(4).to_string(), "4.0ms");
        assert_eq!(Nanos(2_500_000_000).to_string(), "2.500s");
    }

    #[test]
    fn as_conversions() {
        assert!((Nanos::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }
}
