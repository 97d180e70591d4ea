//! Sanitization policies — which mechanism the FTL invokes when a
//! *secured* page is invalidated (paper §6 and §7).

use std::fmt;

/// The sanitization mechanism an FTL applies to invalidated secured pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SanitizePolicy {
    /// No sanitization — the insecure baseline SSD. Deleted data lingers
    /// until GC happens to erase it.
    None,
    /// Evanesco: `pLock` individual pages; optionally use `bLock` when an
    /// entire block can be sanitized at once (`use_block`).
    Evanesco {
        /// Whether `bLock` may be used (`false` models `secSSD_nobLock`).
        use_block: bool,
    },
    /// erSSD: immediately erase the block containing the secured page,
    /// relocating all its other valid pages first.
    EraseBased,
    /// scrSSD: copy the valid sibling pages off the wordline, then destroy
    /// the wordline in place with a one-shot scrub.
    Scrub,
}

impl SanitizePolicy {
    /// Every evaluated variant: baseline, `secSSD`, `secSSD_nobLock`,
    /// `erSSD`, `scrSSD`. The policy-matrix suites iterate this, so a new
    /// backend listed here joins all of them.
    pub const ALL: [SanitizePolicy; 5] = [
        SanitizePolicy::None,
        SanitizePolicy::Evanesco { use_block: true },
        SanitizePolicy::Evanesco { use_block: false },
        SanitizePolicy::EraseBased,
        SanitizePolicy::Scrub,
    ];

    /// The insecure baseline.
    pub fn none() -> Self {
        SanitizePolicy::None
    }

    /// SecureSSD with both lock commands (the paper's `secSSD`).
    pub fn evanesco() -> Self {
        SanitizePolicy::Evanesco { use_block: true }
    }

    /// SecureSSD without `bLock` (the paper's `secSSD_nobLock` ablation).
    pub fn evanesco_no_block() -> Self {
        SanitizePolicy::Evanesco { use_block: false }
    }

    /// The erase-based baseline (`erSSD`).
    pub fn erase_based() -> Self {
        SanitizePolicy::EraseBased
    }

    /// The scrubbing baseline (`scrSSD`).
    pub fn scrub() -> Self {
        SanitizePolicy::Scrub
    }

    /// Whether this policy guarantees `N_invalid(f, t) = 0` at all times for
    /// secured files (immediate sanitization).
    pub fn is_immediate(&self) -> bool {
        !matches!(self, SanitizePolicy::None)
    }
}

impl fmt::Display for SanitizePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SanitizePolicy::None => "baseline",
            SanitizePolicy::Evanesco { use_block: true } => "secSSD",
            SanitizePolicy::Evanesco { use_block: false } => "secSSD_nobLock",
            SanitizePolicy::EraseBased => "erSSD",
            SanitizePolicy::Scrub => "scrSSD",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_match_paper() {
        assert_eq!(SanitizePolicy::evanesco().to_string(), "secSSD");
        assert_eq!(SanitizePolicy::evanesco_no_block().to_string(), "secSSD_nobLock");
        assert_eq!(SanitizePolicy::erase_based().to_string(), "erSSD");
        assert_eq!(SanitizePolicy::scrub().to_string(), "scrSSD");
        assert_eq!(SanitizePolicy::none().to_string(), "baseline");
    }

    #[test]
    fn immediacy() {
        assert!(!SanitizePolicy::none().is_immediate());
        assert!(SanitizePolicy::evanesco().is_immediate());
        assert!(SanitizePolicy::erase_based().is_immediate());
        assert!(SanitizePolicy::scrub().is_immediate());
    }
}
