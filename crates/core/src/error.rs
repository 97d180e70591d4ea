//! Error types for the Evanesco layer.

use evanesco_nand::geometry::{BlockId, Ppa};
use evanesco_nand::NandError;
use std::error::Error;
use std::fmt;

/// Errors raised by the Evanesco-enhanced chip.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EvanescoError {
    /// An underlying NAND operation failed.
    Nand(NandError),
    /// `pLock` was issued on a page that was never programmed; the FTL
    /// only ever locks invalidated (previously programmed) pages, so this
    /// indicates a controller bug.
    LockOnUnwrittenPage {
        /// Offending address.
        ppa: Ppa,
    },
    /// A lock command addressed a block outside the chip geometry.
    BadBlock {
        /// Offending block.
        block: BlockId,
    },
}

impl fmt::Display for EvanescoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvanescoError::Nand(e) => write!(f, "nand error: {e}"),
            EvanescoError::LockOnUnwrittenPage { ppa } => {
                write!(f, "pLock on never-programmed page {ppa}")
            }
            EvanescoError::BadBlock { block } => write!(f, "block out of range: {block}"),
        }
    }
}

/// A retention span handed to `age_flags` that is negative or not finite,
/// or that would push the accumulated age past what an `f64` holds. Aging
/// by such a span would turn every flag voltage into NaN, which decodes as
/// *unlocked*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidRetention {
    /// The rejected span, in days.
    pub days: f64,
}

impl InvalidRetention {
    /// `days` if it is a usable retention span (finite and non-negative).
    ///
    /// # Errors
    ///
    /// Returns the span back as [`InvalidRetention`] otherwise.
    pub fn check(days: f64) -> Result<f64, Self> {
        if days >= 0.0 && days.is_finite() {
            Ok(days)
        } else {
            Err(InvalidRetention { days })
        }
    }
}

impl fmt::Display for InvalidRetention {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "retention span must be finite and non-negative, got {} days", self.days)
    }
}

impl Error for InvalidRetention {}

impl Error for EvanescoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EvanescoError::Nand(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NandError> for EvanescoError {
    fn from(e: NandError) -> Self {
        EvanescoError::Nand(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = EvanescoError::from(NandError::BadBlock { block: BlockId(3) });
        assert!(e.to_string().contains("nand error"));
        assert!(Error::source(&e).is_some());
        let e2 = EvanescoError::LockOnUnwrittenPage { ppa: Ppa::new(0, 1) };
        assert!(Error::source(&e2).is_none());
        assert!(!e2.to_string().is_empty());
    }

    #[test]
    fn retention_check_accepts_only_finite_non_negative_spans() {
        assert_eq!(InvalidRetention::check(0.0), Ok(0.0));
        assert_eq!(InvalidRetention::check(1825.0), Ok(1825.0));
        for bad in [-1.0, -0.0001, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let e = InvalidRetention::check(bad).unwrap_err();
            assert!(e.to_string().contains("days"), "{e}");
        }
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EvanescoError>();
    }
}
