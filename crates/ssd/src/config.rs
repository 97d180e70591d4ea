//! SSD-level configuration.

use evanesco_ftl::FtlConfig;

/// Configuration of an emulated SSD. The channel topology is the FTL's
/// (`ftl.n_chips` chips, `ftl.chips_per_channel` to a channel), stated
/// once there and derived here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsdConfig {
    /// FTL configuration, topology included.
    pub ftl: FtlConfig,
}

impl SsdConfig {
    /// The paper's SecureSSD (§7): 2 channels × 4 chips of 3D TLC.
    pub fn paper() -> Self {
        SsdConfig { ftl: FtlConfig::paper() }
    }

    /// Paper structure with a scaled-down block count per chip.
    pub fn scaled(blocks_per_chip: u32) -> Self {
        SsdConfig { ftl: FtlConfig::paper_scaled(blocks_per_chip) }
    }

    /// A tiny SSD for unit tests: 2 channels × 1 chip.
    pub fn tiny_for_tests() -> Self {
        SsdConfig { ftl: FtlConfig::tiny_for_tests() }
    }

    /// Total chips.
    pub fn n_chips(&self) -> usize {
        self.ftl.n_chips
    }

    /// Channels: the chips over the chips per channel, which
    /// [`FtlConfig::check`] requires to divide evenly.
    pub fn channels(&self) -> usize {
        self.ftl.n_chips / self.ftl.chips_per_channel
    }

    /// Checks internal consistency: the embedded [`FtlConfig::check`],
    /// the one list of rules [`SsdConfig::validate`] enforces and a
    /// checkpoint decode reports.
    ///
    /// # Errors
    ///
    /// Names the first violated [`FtlConfig::check`] rule.
    pub fn check(&self) -> Result<(), String> {
        self.ftl.check()
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics with [`SsdConfig::check`]'s message on any violation.
    pub fn validate(&self) {
        if let Err(rule) = self.check() {
            panic!("{rule}");
        }
    }

    /// Validates that the host request range `[lpa, lpa + npages)` lies
    /// inside this device's logical address space — the same check every
    /// scheduled submission performs, exposed so trace generators and the
    /// fleet layer's namespace windows can be validated up front instead
    /// of mid-run.
    ///
    /// # Errors
    ///
    /// See [`crate::sched::check_lpa_range`].
    pub fn check_lpa_range(&self, lpa: u64, npages: u64) -> Result<(), crate::sched::SubmitError> {
        crate::sched::check_lpa_range(lpa, npages, self.ftl.logical_pages()).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_topologies() {
        for (cfg, chips, channels) in
            [(SsdConfig::paper(), 8, 2), (SsdConfig::tiny_for_tests(), 2, 2)]
        {
            cfg.validate();
            assert_eq!((cfg.n_chips(), cfg.channels()), (chips, channels));
        }
    }

    #[test]
    fn lpa_range_checks_cover_the_address_space_edge() {
        let cfg = SsdConfig::tiny_for_tests();
        let lp = cfg.ftl.logical_pages();
        assert!(cfg.check_lpa_range(0, lp).is_ok(), "the full device is addressable");
        assert!(cfg.check_lpa_range(lp, 0).is_ok(), "empty range at the boundary is a no-op");
        assert!(cfg.check_lpa_range(lp - 1, 2).is_err(), "one page past the end");
        assert!(cfg.check_lpa_range(u64::MAX, 2).is_err(), "wrapping range near u64::MAX");
    }
}
