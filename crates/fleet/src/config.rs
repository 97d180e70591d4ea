//! Fleet topology: devices, shards, namespaces, and per-tenant QoS.

use crate::qos::{QosMode, TenantQos};
use evanesco_ftl::SanitizePolicy;
use evanesco_ssd::{ExposureTable, SsdConfig};
use evanesco_workloads::TrafficConfig;

/// The whole fleet: identical devices, a tenant set shared by every
/// device, and the QoS policy the front end applies to each tenant.
///
/// Tenants map onto devices NVMe-style: tenant `t` owns namespace `t` on
/// **every** device, a contiguous LPA window of
/// [`FleetConfig::namespace_window`] pages starting at `t × window`.
/// Request streams address namespace-relative LPAs; the runner rebases
/// them onto the device's logical space.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-device SSD configuration (every device is identical).
    pub ssd: SsdConfig,
    /// Per-device sanitization policy.
    pub policy: SanitizePolicy,
    /// The offered load (tenants, skew, arrival process, seed).
    pub traffic: TrafficConfig,
    /// One QoS row per tenant, same order as `traffic.tenants`.
    pub qos: Vec<TenantQos>,
    /// Whether the front end shapes admissions or passes arrival order.
    pub mode: QosMode,
    /// Emulated devices in the fleet.
    pub devices: usize,
    /// OS threads the devices are sharded over (`device % shards`).
    pub shards: usize,
    /// NCQ queue depth of every device.
    pub qd: usize,
    /// Whether every device runs with the latency-anatomy layer on
    /// (per-request stage decomposition with sanitization/GC/retry
    /// blame, surfaced per tenant in the report and scrape). The layer
    /// is timing-neutral: enabling it cannot change digests.
    pub anatomy: bool,
}

impl FleetConfig {
    /// A small noisy-neighbor fleet on the miniature test SSD: one storm
    /// tenant (rank 0) plus `victims` well-behaved tenants, QoS off
    /// (arrival-order FIFO) — flip [`FleetConfig::mode`] and
    /// [`FleetConfig::qos`] to police the storm.
    pub fn noisy_neighbor_demo(
        devices: usize,
        victims: usize,
        requests_per_device: usize,
        seed: u64,
    ) -> Self {
        FleetConfig {
            ssd: SsdConfig::tiny_for_tests(),
            policy: SanitizePolicy::evanesco(),
            traffic: TrafficConfig::noisy_neighbor(victims, requests_per_device, seed),
            qos: vec![TenantQos::unlimited(); victims + 1],
            mode: QosMode::Fifo,
            devices,
            shards: 1,
            qd: 8,
            anatomy: false,
        }
    }

    /// Tenants in the fleet.
    pub fn tenant_count(&self) -> usize {
        self.traffic.tenants.len()
    }

    /// Pages in each tenant's namespace window: the device's logical
    /// space split evenly (remainder pages stay unmapped).
    pub fn namespace_window(&self) -> u64 {
        self.ssd.ftl.logical_pages() / self.tenant_count().max(1) as u64
    }

    /// The WFQ merge's fixed-rate server model: nanoseconds of modeled
    /// device service per page — nominal program + transfer time divided
    /// by chip-level parallelism. Only orders admissions; real service
    /// times come from the emulator.
    pub fn drain_ns_per_page(&self) -> u64 {
        let t = &self.ssd.ftl.timing;
        ((t.t_prog.0 + t.t_xfer_page.0) / self.ssd.ftl.n_chips.max(1) as u64).max(1)
    }

    /// Validates the fleet shape.
    ///
    /// # Panics
    ///
    /// Panics on an empty fleet, zero shards or queue depth, more tenants
    /// than the exposure table can name, a QoS table that does not match
    /// the tenant list, or namespace windows the
    /// device's logical space cannot hold (including the degenerate case
    /// where a window cannot fit the largest request — delegated to the
    /// traffic generator's own check via [`SsdConfig::check_lpa_range`]).
    pub fn validate(&self) {
        self.ssd.validate();
        assert!(self.devices >= 1, "FleetConfig: a fleet needs at least one device");
        assert!(self.shards >= 1, "FleetConfig: at least one shard");
        assert!(self.qd >= 1, "FleetConfig: queue depth must be at least 1");
        assert!(!self.traffic.tenants.is_empty(), "FleetConfig: at least one tenant");
        assert_eq!(
            self.qos.len(),
            self.tenant_count(),
            "FleetConfig: one QoS row per tenant ({} rows for {} tenants)",
            self.qos.len(),
            self.tenant_count(),
        );
        for (i, q) in self.qos.iter().enumerate() {
            q.validate(&self.traffic.tenants[i].name);
        }
        let window = self.namespace_window();
        let max_req = self.traffic.tenants.iter().map(|t| t.req_pages.1).max().unwrap();
        assert!(
            window >= max_req,
            "FleetConfig: namespace window of {window} pages cannot hold a \
             {max_req}-page request ({} tenants over {} logical pages)",
            self.tenant_count(),
            self.ssd.ftl.logical_pages(),
        );
        assert!(
            self.tenant_count() <= ExposureTable::MAX_OWNERS,
            "FleetConfig: at most {} tenants per device (the exposure table names a page's \
             owner in 30 bits), got {}",
            ExposureTable::MAX_OWNERS,
            self.tenant_count(),
        );
        // The last namespace's top page must be host-addressable: the
        // rebased range check is exactly the one the scheduler applies at
        // submission, so a bad fleet shape fails here, not mid-run.
        let last_base = (self.tenant_count() as u64 - 1) * window;
        self.ssd
            .check_lpa_range(last_base, window)
            .expect("FleetConfig: tenant windows exceed the device's logical space");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_config_validates_and_splits_namespaces_evenly() {
        let cfg = FleetConfig::noisy_neighbor_demo(2, 3, 100, 1);
        cfg.validate();
        assert_eq!(cfg.tenant_count(), 4);
        let window = cfg.namespace_window();
        assert!(window >= 16, "window holds the storm tenant's largest request");
        assert!(window * 4 <= cfg.ssd.ftl.logical_pages());
    }

    #[test]
    #[should_panic(expected = "one QoS row per tenant")]
    fn qos_table_must_match_tenant_list() {
        let mut cfg = FleetConfig::noisy_neighbor_demo(1, 2, 100, 1);
        cfg.qos.pop();
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "namespace window")]
    fn too_many_tenants_for_the_device_is_rejected() {
        let mut cfg = FleetConfig::noisy_neighbor_demo(1, 2, 100, 1);
        let lp = cfg.ssd.ftl.logical_pages();
        // More tenants than the device has pages per 16-page request.
        let n = (lp / 8) as usize;
        cfg.traffic = TrafficConfig::noisy_neighbor(n, 100, 1);
        cfg.qos = vec![TenantQos::unlimited(); n + 1];
        cfg.validate();
    }
}
