//! Per-tenant attribution of sanitization-exposure events.
//!
//! One device hosts many tenants, but the FTL's observer callbacks speak
//! physical addresses — an invalidation or erase does not say whose data
//! it touched. [`TenantAttribution`] closes that gap: it learns ownership
//! at program time (the logical address *is* available there, and the
//! namespace map makes `lpa / window` the owning tenant) and writes it
//! into the page's cell of one [`ExposureTable`] with a set of counters
//! per tenant — the N-owner form of the table [`evanesco_ssd::LiveGauges`]
//! runs with one. Every later invalidate is charged to the owner the cell
//! names, an erase settles every tenant in one pass over the block's
//! cells, and logical time is one device-wide tick.
//!
//! The result: per-tenant VAF and T_insecure on a shared device — a
//! noisy neighbor's pile of unsanitized stale versions lands on *its*
//! gauges, not its victims'.

use evanesco_ftl::observer::{FtlObserver, InvalidateCause};
use evanesco_ftl::{FtlConfig, GlobalPpa, Lpa};
use evanesco_ssd::{ExposureTable, GaugeSnapshot};

/// Routes [`FtlObserver`] events to per-tenant exposure counters using
/// the fleet's namespace map (`tenant = lpa / window`).
#[derive(Debug)]
pub struct TenantAttribution {
    window: u64,
    table: ExposureTable,
}

impl TenantAttribution {
    /// Attribution for `tenants` namespaces of `window` pages each on the
    /// device `cfg` describes.
    ///
    /// # Panics
    ///
    /// Panics on zero tenants, more than [`ExposureTable::MAX_OWNERS`], or
    /// a zero window.
    pub fn new(cfg: &FtlConfig, tenants: usize, window: u64) -> Self {
        assert!(tenants >= 1, "attribution needs at least one tenant");
        assert!(window >= 1, "namespace windows cannot be empty");
        TenantAttribution { window, table: ExposureTable::new(cfg, tenants) }
    }

    /// Point-in-time snapshot of every tenant's gauges, tenant order.
    pub fn snapshots(&self) -> Vec<GaugeSnapshot> {
        (0..self.table.owners()).map(|t| self.table.snapshot(t)).collect()
    }
}

impl FtlObserver for TenantAttribution {
    fn on_program(&mut self, lpa: Lpa, at: GlobalPpa, _relocation: bool, secure: bool) {
        let tenant = ((lpa / self.window) as usize).min(self.table.owners() - 1);
        self.table.program(tenant, at, secure);
    }

    fn on_invalidate(
        &mut self,
        at: GlobalPpa,
        secure: bool,
        sanitized: bool,
        _cause: InvalidateCause,
    ) {
        self.table.invalidate(at, secure, sanitized);
    }

    fn on_erase(&mut self, chip: usize, block: evanesco_nand::geometry::BlockId) {
        self.table.erase(chip, block.0);
    }

    fn on_host_tick(&mut self) {
        // Logical time (accepted host page writes) is device-wide; every
        // tenant's T_insecure is measured on the shared clock.
        self.table.host_tick();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evanesco_nand::geometry::{BlockId, Ppa};

    fn at(chip: usize, block: u32, page: u32) -> GlobalPpa {
        GlobalPpa::new(chip, Ppa::new(block, page))
    }

    fn attribution(tenants: usize, window: u64) -> TenantAttribution {
        TenantAttribution::new(&FtlConfig::tiny_for_tests(), tenants, window)
    }

    #[test]
    fn programs_and_invalidates_land_on_the_owning_tenant() {
        // Two tenants, 100-page windows: lpa 5 → tenant 0, lpa 105 → 1.
        let mut a = attribution(2, 100);
        a.on_program(5, at(0, 0, 0), false, true);
        a.on_program(105, at(0, 0, 1), false, true);
        a.on_invalidate(at(0, 0, 1), true, false, InvalidateCause::HostUpdate);
        let s = a.snapshots();
        assert_eq!(s[0].valid_secured, 1);
        assert_eq!(s[0].invalid_secured, 0);
        assert_eq!(s[1].valid_secured, 0);
        assert_eq!(s[1].invalid_secured, 1, "exposure charged to the owner, not a neighbor");
    }

    #[test]
    fn remainder_pages_past_the_last_window_belong_to_the_last_tenant() {
        let mut a = attribution(2, 100);
        a.on_program(250, at(0, 0, 0), false, true);
        assert_eq!(a.snapshots()[1].valid_secured, 1);
    }

    #[test]
    fn an_erase_settles_every_tenant_with_pages_in_the_block() {
        let mut a = attribution(2, 100);
        a.on_program(0, at(0, 3, 0), false, true);
        a.on_program(150, at(0, 3, 1), false, true);
        a.on_invalidate(at(0, 3, 0), true, false, InvalidateCause::Trim);
        a.on_erase(0, BlockId(3));
        let s = a.snapshots();
        assert_eq!(s[0].exposed_then_erased, 1);
        assert_eq!(s[0].invalid_secured, 0);
        assert_eq!(s[1].valid_secured, 0, "tenant 1's live page was destroyed by the erase");
        assert_eq!(s[1].exposed_then_erased, 0);
        // The cells are free again: a new owner starts clean.
        a.on_program(120, at(0, 3, 0), false, true);
        a.on_invalidate(at(0, 3, 0), true, true, InvalidateCause::HostUpdate);
        let s = a.snapshots();
        assert_eq!((s[0].sanitized_immediately, s[1].sanitized_immediately), (0, 1));
    }

    #[test]
    fn sanitized_invalidations_release_their_page() {
        let mut a = attribution(2, 100);
        a.on_program(7, at(1, 0, 0), false, true);
        a.on_invalidate(at(1, 0, 0), true, true, InvalidateCause::HostUpdate);
        a.on_invalidate(at(1, 0, 0), true, false, InvalidateCause::HostUpdate);
        let s = a.snapshots();
        assert_eq!(s[0].sanitized_immediately, 1);
        assert_eq!(s[0].invalid_secured, 0, "a sanitized page cannot be exposed afterwards");
    }

    #[test]
    fn ticks_advance_every_tenant_clock() {
        let mut a = attribution(3, 10);
        for _ in 0..5 {
            a.on_host_tick();
        }
        for s in a.snapshots() {
            assert_eq!(s.tick, 5);
        }
    }
}
