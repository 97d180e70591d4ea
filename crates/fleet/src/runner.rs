//! Sharded fleet execution with byte-identity determinism digests.
//!
//! A fleet run is embarrassingly deterministic by construction: every
//! device's trace is a pure function of `(seed, device)`, QoS admission
//! is resolved offline ([`crate::qos::admission_order`]), and each
//! device executes single-threaded on the shard that owns it (`device %
//! shards`). Shards share nothing mutable, so per-device results cannot
//! depend on the shard count or the OS's thread interleaving. Two FNV-1a
//! digests make that checkable byte-for-byte:
//!
//! * [`DeviceResult::results_digest`] — host-visible results only
//!   (tags, read values, acks). Invariant across queue depth *and*
//!   shard count: the NCQ scheduler preserves per-LPA order and
//!   preassigns write tags in trace order.
//! * [`DeviceResult::digest`] — results plus per-request completion
//!   times and the simulated end time. Invariant across shard counts
//!   and reruns at a fixed queue depth — the fleet gate's check.

use crate::attribution::TenantAttribution;
use crate::config::FleetConfig;
use crate::qos::admission_order;
use evanesco_nand::timing::Nanos;
use evanesco_ssd::metrics::LatencyHistogram;
use evanesco_ssd::{Emulator, GaugeSnapshot, HostOp, OpResult, Stage, VersionCounts};
use evanesco_workloads::{generate_device, TenantOp};

/// One tenant's share of one device's run.
#[derive(Debug, Clone)]
pub struct TenantDeviceStats {
    /// Requests this tenant issued to this device.
    pub requests: u64,
    /// Pages those requests covered.
    pub pages: u64,
    /// End-to-end request latency (completion − *original* arrival, so
    /// QoS shaping delay is charged to the tenant that was shaped).
    pub latency: LatencyHistogram,
    /// The tenant's sanitization-exposure gauges on this device.
    pub gauges: GaugeSnapshot,
    /// Per-stage latency blame summed over every request
    /// ([`Stage`] order, all zero unless [`FleetConfig::anatomy`]).
    /// QoS shaping delay lands in [`Stage::QosWait`], front-end slot
    /// wait folds into [`Stage::QueueWait`], and the device-side stages
    /// come from the anatomy rows — so the per-tenant identity
    /// `Σ blame == Σ latency` holds exactly.
    pub blame: [Nanos; Stage::COUNT],
    /// Same decomposition restricted to the tenant's slowest requests
    /// (end-to-end latency at or above this device's per-tenant p99).
    pub tail_blame: [Nanos; Stage::COUNT],
    /// Requests counted into [`TenantDeviceStats::tail_blame`].
    pub tail_requests: u64,
}

/// One device's run.
#[derive(Debug, Clone)]
pub struct DeviceResult {
    /// Device index in the fleet.
    pub device: usize,
    /// Simulated end time.
    pub sim_time: Nanos,
    /// FNV-1a over host-visible results only (qd- and shard-invariant).
    pub results_digest: u64,
    /// FNV-1a over results, completions, and end time (shard- and
    /// rerun-invariant at fixed queue depth).
    pub digest: u64,
    /// Request traces evicted from the device's trace ring
    /// ([`evanesco_ssd::TraceRecorder::dropped`]); zero when tracing is
    /// off or the ring held everything.
    pub trace_dropped: u64,
    /// Per-tenant attribution, tenant order.
    pub tenants: Vec<TenantDeviceStats>,
}

/// One tenant aggregated across the whole fleet.
#[derive(Debug, Clone, Default)]
pub struct TenantFleetStats {
    /// Tenant name (from the traffic profile).
    pub name: String,
    /// Requests across all devices.
    pub requests: u64,
    /// Pages across all devices.
    pub pages: u64,
    /// Fleet-wide latency distribution (per-device histograms merged).
    pub latency: LatencyHistogram,
    /// Per-device secured-page counts, peaks and insecure ticks, summed
    /// (so `versions.vaf()` is the fleet-wide VAF).
    pub versions: VersionCounts,
    /// Secured invalidations sanitized immediately, fleet-wide.
    pub sanitized_immediately: u64,
    /// Exposed pages finally destroyed by an erase, fleet-wide.
    pub exposed_then_erased: u64,
    /// Per-stage latency blame, fleet-wide (see
    /// [`TenantDeviceStats::blame`]).
    pub blame: [Nanos; Stage::COUNT],
    /// Per-stage blame over each device's p99 tail, fleet-wide.
    pub tail_blame: [Nanos; Stage::COUNT],
    /// Requests counted into [`TenantFleetStats::tail_blame`].
    pub tail_requests: u64,
}

/// The whole fleet's run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-device results, device order.
    pub devices: Vec<DeviceResult>,
    /// Per-tenant aggregation, tenant order.
    pub tenants: Vec<TenantFleetStats>,
    /// FNV-1a over every device's full digest, device order — one number
    /// that must survive any shard count and any rerun.
    pub fleet_digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a over little-endian `u64`s.
fn fnv_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds one host-visible result into a digest with an unambiguous
/// tag/length framing.
fn fnv_result(mut h: u64, r: &OpResult) -> u64 {
    match r {
        OpResult::Write(tags, ack) => {
            h = fnv_u64(h, 1);
            h = fnv_u64(h, tags.len() as u64);
            for t in tags {
                h = fnv_u64(h, *t);
            }
            fnv_u64(h, *ack as u64)
        }
        OpResult::Read(vals) => {
            h = fnv_u64(h, 2);
            h = fnv_u64(h, vals.len() as u64);
            for v in vals {
                h = match v {
                    Some(t) => fnv_u64(fnv_u64(h, 1), *t),
                    None => fnv_u64(h, 0),
                };
            }
            h
        }
        OpResult::Trim(ack) => fnv_u64(fnv_u64(h, 3), *ack as u64),
        OpResult::TimedOut => fnv_u64(h, 4),
    }
}

/// Rebases a namespace-relative request onto the device's logical space.
fn rebase(op: HostOp, base: u64) -> HostOp {
    match op {
        HostOp::Write { lpa, npages, secure } => HostOp::Write { lpa: lpa + base, npages, secure },
        HostOp::Read { lpa, npages } => HostOp::Read { lpa: lpa + base, npages },
        HostOp::Trim { lpa, npages } => HostOp::Trim { lpa: lpa + base, npages },
    }
}

/// Runs one device: applies QoS to its trace, executes the admitted
/// stream open-loop on a fresh emulator, and attributes everything back
/// to tenants. Pure: same `(cfg, device, trace)` ⇒ same bytes out.
pub fn run_device(cfg: &FleetConfig, device: usize, trace: &[TenantOp]) -> DeviceResult {
    let window = cfg.namespace_window();
    let admission = admission_order(trace, &cfg.qos, cfg.mode, cfg.drain_ns_per_page());
    let mut ops = Vec::with_capacity(admission.len());
    let mut arrivals = Vec::with_capacity(admission.len());
    for a in &admission {
        let req = &trace[a.trace_idx];
        ops.push(rebase(req.op, req.tenant as u64 * window));
        arrivals.push(a.shaped);
    }

    let mut ssd = Emulator::new(cfg.ssd, cfg.policy);
    if cfg.anatomy {
        // Sized to the op count: nothing drops, every request keeps a row.
        ssd.enable_anatomy(ops.len().max(1), 16);
    }
    let mut attr = TenantAttribution::new(&cfg.ssd.ftl, cfg.tenant_count(), window);
    let run = ssd.run_scheduled_open_loop(&mut attr, &ops, &arrivals, cfg.qd);
    let trace_dropped = ssd.trace().map_or(0, |t| t.dropped());
    let anatomy = ssd.take_anatomy();

    let mut tenants: Vec<TenantDeviceStats> = attr
        .snapshots()
        .into_iter()
        .map(|gauges| TenantDeviceStats {
            requests: 0,
            pages: 0,
            latency: LatencyHistogram::new(),
            gauges,
            blame: [Nanos::ZERO; Stage::COUNT],
            tail_blame: [Nanos::ZERO; Stage::COUNT],
            tail_requests: 0,
        })
        .collect();
    for (i, a) in admission.iter().enumerate() {
        let req = &trace[a.trace_idx];
        let t = &mut tenants[req.tenant];
        t.requests += 1;
        t.pages += req.op.npages();
        // Latency from the tenant's point of view: shaping delay counts.
        t.latency.record(Nanos(run.completions[i].0.saturating_sub(req.arrival.0)));
    }

    if let Some(an) = anatomy {
        // Join the device-side anatomy rows back to requests by
        // submission index, then extend each row to the tenant's clock:
        // QoS shaping delay is QosWait, front-end slot wait folds into
        // QueueWait, and the row's stages tile the rest — so per tenant
        // the blame array sums exactly to the latency histogram's sum.
        let mut row_stages: Vec<Option<[Nanos; Stage::COUNT]>> = vec![None; ops.len()];
        for row in an.rows() {
            if let Some(i) = row.req_idx {
                row_stages[i] = Some(row.stages);
            }
        }
        // Tail threshold per tenant. The histogram's p99 is a bucket
        // bound and can overshoot every recorded value; clamping to the
        // exact max keeps the tail non-empty for any tenant with
        // requests.
        let p99: Vec<Nanos> =
            tenants.iter().map(|t| t.latency.percentile(99.0).min(t.latency.max())).collect();
        for (i, a) in admission.iter().enumerate() {
            let req = &trace[a.trace_idx];
            // Zero-work requests (no device events, zero service time)
            // never enter the trace ring — their device stages are all
            // zero, which the identity check below still validates.
            let mut stages = row_stages[i].unwrap_or([Nanos::ZERO; Stage::COUNT]);
            stages[Stage::QosWait.idx()] += Nanos(a.shaped.0.saturating_sub(req.arrival.0));
            stages[Stage::QueueWait.idx()] += Nanos(run.submits[i].0.saturating_sub(a.shaped.0));
            let e2e = run.completions[i].0.saturating_sub(req.arrival.0);
            let total: u64 = stages.iter().map(|s| s.0).sum();
            assert_eq!(
                total, e2e,
                "fleet latency identity: qos wait + slot wait + device stages == end-to-end \
                 (device {device}, request {i})"
            );
            let t = &mut tenants[req.tenant];
            for (acc, v) in t.blame.iter_mut().zip(stages) {
                *acc += v;
            }
            if Nanos(e2e) >= p99[req.tenant] {
                t.tail_requests += 1;
                for (acc, v) in t.tail_blame.iter_mut().zip(stages) {
                    *acc += v;
                }
            }
        }
    }

    let results_digest = run.results.iter().fold(FNV_OFFSET, fnv_result);
    let mut digest = results_digest;
    for c in &run.completions {
        digest = fnv_u64(digest, c.0);
    }
    digest = fnv_u64(digest, run.sim_time.0);
    DeviceResult { device, sim_time: run.sim_time, results_digest, digest, trace_dropped, tenants }
}

/// Runs the whole fleet, sharding devices over `cfg.shards` OS threads
/// (`device % shards`; the calling thread is shard 0), and aggregates
/// per-tenant statistics. Each shard generates a device's stream when it
/// gets to that device, so at most `shards` traces are alive at once and
/// no generation runs before the threads start.
///
/// # Panics
///
/// Panics on the caller's thread on an invalid configuration (see
/// [`FleetConfig::validate`] and
/// [`evanesco_workloads::TrafficConfig::validate`]), or if a shard thread
/// panics.
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    cfg.validate();
    let window = cfg.namespace_window();
    cfg.traffic.validate(window);
    let run_shard = |shard: usize| -> Vec<DeviceResult> {
        (shard..cfg.devices)
            .step_by(cfg.shards)
            .map(|d| run_device(cfg, d, &generate_device(&cfg.traffic, window, d)))
            .collect()
    };
    // Shard 0 runs on the calling thread, which would otherwise only wait.
    let mut devices: Vec<DeviceResult> = std::thread::scope(|s| {
        let handles: Vec<_> =
            (1..cfg.shards).map(|shard| s.spawn(move || run_shard(shard))).collect();
        let mut all = run_shard(0);
        for h in handles {
            all.extend(h.join().expect("shard thread panicked"));
        }
        all
    });
    // Device order — shard boundaries must leave no trace.
    devices.sort_by_key(|d| d.device);

    let mut tenants: Vec<TenantFleetStats> = cfg
        .traffic
        .tenants
        .iter()
        .map(|t| TenantFleetStats { name: t.name.clone(), ..TenantFleetStats::default() })
        .collect();
    let mut fleet_digest = FNV_OFFSET;
    for d in &devices {
        fleet_digest = fnv_u64(fleet_digest, d.digest);
        for (agg, dev) in tenants.iter_mut().zip(&d.tenants) {
            agg.requests += dev.requests;
            agg.pages += dev.pages;
            agg.latency.merge(&dev.latency);
            agg.versions.add(&dev.gauges);
            agg.sanitized_immediately += dev.gauges.sanitized_immediately;
            agg.exposed_then_erased += dev.gauges.exposed_then_erased;
            for (a, b) in agg.blame.iter_mut().zip(dev.blame) {
                *a += b;
            }
            for (a, b) in agg.tail_blame.iter_mut().zip(dev.tail_blame) {
                *a += b;
            }
            agg.tail_requests += dev.tail_requests;
        }
    }
    FleetReport { devices, tenants, fleet_digest }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_fleet_runs_and_attributes_every_request() {
        let cfg = FleetConfig::noisy_neighbor_demo(2, 2, 300, 11);
        let report = run_fleet(&cfg);
        assert_eq!(report.devices.len(), 2);
        assert_eq!(report.tenants.len(), 3);
        let total: u64 = report.tenants.iter().map(|t| t.requests).sum();
        assert_eq!(total, 600, "every generated request is attributed exactly once");
        for t in &report.tenants {
            assert!(t.latency.count() == t.requests);
        }
        // The storm tenant (rank 0, 8x share) dominates the offered load.
        assert!(report.tenants[0].requests > report.tenants[1].requests);
    }

    #[test]
    fn devices_differ_but_reruns_do_not() {
        let cfg = FleetConfig::noisy_neighbor_demo(2, 2, 200, 5);
        let a = run_fleet(&cfg);
        let b = run_fleet(&cfg);
        assert_eq!(a.fleet_digest, b.fleet_digest);
        assert_ne!(
            a.devices[0].digest, a.devices[1].digest,
            "independent per-device streams produce distinct runs"
        );
    }

    #[test]
    fn anatomy_is_timing_neutral_and_blame_tiles_latency() {
        let mut cfg = FleetConfig::noisy_neighbor_demo(2, 2, 250, 17);
        let off = run_fleet(&cfg);
        cfg.anatomy = true;
        let on = run_fleet(&cfg);
        assert_eq!(off.fleet_digest, on.fleet_digest, "observability must not move the clock");
        for t in &off.tenants {
            assert_eq!(t.blame.iter().map(|n| n.0).sum::<u64>(), 0, "anatomy off: no blame");
        }
        for t in &on.tenants {
            let blamed: u64 = t.blame.iter().map(|n| n.0).sum();
            assert_eq!(
                blamed,
                t.latency.sum().0,
                "tenant {}: per-stage blame tiles total latency exactly",
                t.name
            );
            assert!(t.tail_requests >= 1, "tenant {}: p99 tail is non-empty", t.name);
            let tail: u64 = t.tail_blame.iter().map(|n| n.0).sum();
            assert!(tail <= blamed, "tail blame is a subset of total blame");
        }
    }
}
