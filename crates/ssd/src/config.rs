//! SSD-level configuration.

use evanesco_ftl::FtlConfig;

/// Configuration of an emulated SSD.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsdConfig {
    /// Number of channels.
    pub channels: u16,
    /// Chips per channel.
    pub chips_per_channel: u16,
    /// FTL configuration (its `n_chips` must equal
    /// `channels × chips_per_channel`).
    pub ftl: FtlConfig,
}

impl SsdConfig {
    /// The paper's SecureSSD (§7): 2 channels × 4 chips of 3D TLC.
    pub fn paper() -> Self {
        SsdConfig { channels: 2, chips_per_channel: 4, ftl: FtlConfig::paper() }
    }

    /// Paper structure with a scaled-down block count per chip.
    pub fn scaled(blocks_per_chip: u32) -> Self {
        SsdConfig {
            channels: 2,
            chips_per_channel: 4,
            ftl: FtlConfig::paper_scaled(blocks_per_chip),
        }
    }

    /// A tiny SSD for unit tests.
    pub fn tiny_for_tests() -> Self {
        SsdConfig { channels: 2, chips_per_channel: 1, ftl: FtlConfig::tiny_for_tests() }
    }

    /// Total chips.
    pub fn n_chips(&self) -> usize {
        self.channels as usize * self.chips_per_channel as usize
    }

    /// Checks internal consistency, the embedded [`FtlConfig::check`]
    /// first: the one list of rules [`SsdConfig::validate`] enforces and a
    /// checkpoint decode reports.
    ///
    /// # Errors
    ///
    /// Names the first violated rule: any [`FtlConfig::check`] violation,
    /// a zero-channel or zero-chip topology, or an FTL chip count or
    /// chips-per-channel that disagrees with the channel topology.
    pub fn check(&self) -> Result<(), String> {
        let rule =
            |ok: bool, msg: String| if ok { Ok(()) } else { Err(format!("SsdConfig: {msg}")) };
        self.ftl.check()?;
        rule(self.channels > 0, "channels must be positive".into())?;
        rule(self.chips_per_channel > 0, "chips_per_channel must be positive".into())?;
        let (topology, ftl) = (self.n_chips(), self.ftl.n_chips);
        let disagree =
            format!("channel topology and FTL chip count disagree ({topology} vs {ftl})");
        rule(topology == ftl, disagree)?;
        // The FTL's frontier order interleaves channels from its own copy.
        let (cpc, ftl_cpc) = (self.chips_per_channel, self.ftl.chips_per_channel);
        let ways =
            format!("ftl.chips_per_channel must equal chips_per_channel ({ftl_cpc} vs {cpc})");
        rule(usize::from(cpc) == ftl_cpc, ways)
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
        for (cfg, chips) in [(SsdConfig::paper(), 8), (SsdConfig::tiny_for_tests(), 2)] {
            cfg.validate();
            assert_eq!(cfg.n_chips(), chips);
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
