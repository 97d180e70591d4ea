//! Per-tenant attribution of sanitization-exposure events.
//!
//! One device hosts many tenants, but the FTL's observer events speak
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

use evanesco_ftl::observer::{FtlObserver, ObserverEvent};
use evanesco_ftl::FtlConfig;
use evanesco_ssd::{ExposureCounts, ExposureTable, GaugeSnapshot};

/// Routes [`FtlObserver`] events to per-tenant exposure counters using
/// the fleet's namespace map (`tenant = lpa / window`).
#[derive(Debug)]
pub struct TenantAttribution {
    window: u64,
    table: ExposureTable,
    tenants: Vec<ExposureCounts>,
}

impl TenantAttribution {
    /// Attribution for `tenants` namespaces of `window` pages each on the
    /// device `cfg` describes.
    ///
    /// # Panics
    ///
    /// Panics on zero tenants or a zero window.
    pub fn new(cfg: &FtlConfig, tenants: usize, window: u64) -> Self {
        assert!(tenants >= 1, "attribution needs at least one tenant");
        assert!(window >= 1, "namespace windows cannot be empty");
        let tenants = vec![ExposureCounts::default(); tenants];
        TenantAttribution { window, table: ExposureTable::new(cfg), tenants }
    }

    /// Point-in-time snapshot of every tenant's gauges, tenant order.
    pub fn snapshots(&self) -> Vec<GaugeSnapshot> {
        self.tenants.iter().map(|t| t.snapshot(self.table.tick())).collect()
    }
}

impl FtlObserver for TenantAttribution {
    /// A secured program is charged to `lpa / window` (the remainder past
    /// the last window to the last tenant); one device-wide tick times
    /// every tenant's T_insecure.
    fn on_event(&mut self, ev: ObserverEvent) {
        let (window, last) = (self.window, self.tenants.len() - 1);
        self.table.apply_secured(ev, &mut self.tenants, |lpa| ((lpa / window) as usize).min(last));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evanesco_ftl::{GlobalPpa, InvalidateCause, Lpa, SanitizePolicy};
    use evanesco_nand::geometry::{BlockId, Ppa};
    use evanesco_ssd::{Emulator, LiveGauges, SsdConfig};
    use evanesco_workloads::{TraceOp, VerTrace};

    fn at(chip: usize, block: u32, page: u32) -> GlobalPpa {
        GlobalPpa::new(chip, Ppa::new(block, page))
    }

    fn program(lpa: Lpa, at: GlobalPpa) -> ObserverEvent {
        ObserverEvent::Program { lpa, at, secure: true }
    }

    fn invalidate(at: GlobalPpa, sanitized: bool) -> ObserverEvent {
        ObserverEvent::Invalidate {
            at,
            secure: true,
            sanitized,
            cause: InvalidateCause::HostUpdate,
        }
    }

    fn attribution(tenants: usize, window: u64) -> TenantAttribution {
        TenantAttribution::new(&FtlConfig::tiny_for_tests(), tenants, window)
    }

    #[test]
    fn programs_and_invalidates_land_on_the_owning_tenant() {
        // Two tenants, 100-page windows: lpa 5 → tenant 0, lpa 105 → 1.
        let mut a = attribution(2, 100);
        a.on_event(program(5, at(0, 0, 0)));
        a.on_event(program(105, at(0, 0, 1)));
        a.on_event(invalidate(at(0, 0, 1), false));
        let s = a.snapshots();
        assert_eq!(s[0].valid_secured, 1);
        assert_eq!(s[0].invalid_secured, 0);
        assert_eq!(s[1].valid_secured, 0);
        assert_eq!(s[1].invalid_secured, 1, "exposure charged to the owner, not a neighbor");
    }

    #[test]
    fn remainder_pages_past_the_last_window_belong_to_the_last_tenant() {
        let mut a = attribution(2, 100);
        a.on_event(program(250, at(0, 0, 0)));
        assert_eq!(a.snapshots()[1].valid_secured, 1);
    }

    #[test]
    fn an_erase_settles_every_tenant_with_pages_in_the_block() {
        let mut a = attribution(2, 100);
        a.on_event(program(0, at(0, 3, 0)));
        a.on_event(program(150, at(0, 3, 1)));
        a.on_event(invalidate(at(0, 3, 0), false));
        a.on_event(ObserverEvent::Erase { chip: 0, block: BlockId(3) });
        let s = a.snapshots();
        assert_eq!(s[0].exposed_then_erased, 1);
        assert_eq!(s[0].invalid_secured, 0);
        assert_eq!(s[1].valid_secured, 0, "tenant 1's live page was destroyed by the erase");
        assert_eq!(s[1].exposed_then_erased, 0);
        // The cells are free again: a new owner starts clean.
        a.on_event(program(120, at(0, 3, 0)));
        a.on_event(invalidate(at(0, 3, 0), true));
        let s = a.snapshots();
        assert_eq!((s[0].sanitized_immediately, s[1].sanitized_immediately), (0, 1));
    }

    #[test]
    fn sanitized_invalidations_release_their_page() {
        let mut a = attribution(2, 100);
        a.on_event(program(7, at(1, 0, 0)));
        a.on_event(invalidate(at(1, 0, 0), true));
        a.on_event(invalidate(at(1, 0, 0), false));
        let s = a.snapshots();
        assert_eq!(s[0].sanitized_immediately, 1);
        assert_eq!(s[0].invalid_secured, 0, "a sanitized page cannot be exposed afterwards");
    }

    #[test]
    fn ticks_advance_every_tenant_clock() {
        let mut a = attribution(3, 10);
        for _ in 0..5 {
            a.on_event(ObserverEvent::HostTick);
        }
        for s in a.snapshots() {
            assert_eq!(s.tick, 5);
        }
    }

    /// The device gauges, the fleet's attribution and VerTrace share one
    /// exposure table: with a single tenant owning every page, the same
    /// event stream leaves the first two with the same snapshot after every
    /// event; on an all-secure churn, VerTrace's one file owning every LPA
    /// keeps the same counts too.
    #[test]
    fn one_tenant_attribution_matches_the_device_gauges_on_a_recorded_churn() {
        let cfg = SsdConfig::tiny_for_tests();
        let policies = [SanitizePolicy::none(), SanitizePolicy::evanesco()];
        for (policy, all_secure) in [false, true].into_iter().flat_map(|a| policies.map(|p| (p, a)))
        {
            let mut ssd = Emulator::new(cfg, policy);
            let logical = ssd.logical_pages();
            let mut events: Vec<ObserverEvent> = Vec::new();
            for i in 0..4 * logical {
                let lpa = i * 7 % logical;
                ssd.write_with(&mut events, lpa, 1, all_secure || i % 3 != 0);
                if i % 5 == 0 {
                    ssd.trim_with(&mut events, (lpa + 3) % logical, 1);
                }
            }
            let stats = ssd.ftl().stats();
            assert!(stats.gc_invocations > 0 && stats.nand_erases > 0, "the churn reaches GC");

            let mut gauges = LiveGauges::new(&cfg.ftl);
            let mut tenant = TenantAttribution::new(&cfg.ftl, 1, logical);
            let mut vt = VerTrace::new(&cfg.ftl);
            let (file, secure, overwrite) = (0, true, false);
            vt.note_op(&TraceOp::Write { file, lpa: 0, npages: logical, secure, overwrite });
            for &ev in &events {
                gauges.on_event(ev);
                tenant.on_event(ev);
                let s = gauges.snapshot();
                assert_eq!(tenant.snapshots(), [s], "{policy:?} after {ev:?}");
                if all_secure {
                    vt.on_event(ev);
                    let v = vt.files().next().expect("file 0").1.versions;
                    let counts = (v.valid, v.invalid, v.max_valid, v.max_invalid);
                    let gauged = (s.valid_secured, s.invalid_secured, s.max_valid, s.max_invalid);
                    assert_eq!(counts, gauged, "{policy:?} after {ev:?}");
                    assert_eq!(v.insecure_ticks_at(s.tick), s.insecure_ticks);
                }
            }
            let s = gauges.snapshot();
            assert!(s.max_valid > 0 && s.tick == 4 * logical, "{s:?}");
            // The baseline leaves stale versions for GC's erases to settle.
            let exposed = s.max_invalid > 0 && s.exposed_then_erased > 0;
            assert_eq!(exposed, policy == SanitizePolicy::none(), "{s:?}");
        }
    }
}
