//! One fleet-wide Prometheus exposition (text format 0.0.4).
//!
//! A fleet has one scrape endpoint, not one per device: everything here
//! is aggregated per tenant (with a `tenant` label, value-escaped by
//! [`evanesco_ssd::prom::LabeledFamily`]) plus one `_info`-style series
//! per device carrying its determinism digest — so a dashboard can both
//! chart noisy-neighbor impact and alert on digest drift between
//! deployments that should be identical.

use crate::config::FleetConfig;
use crate::runner::FleetReport;
use evanesco_ssd::prom::LabeledFamily;
use evanesco_ssd::Stage;
use std::fmt::Write as _;

/// Renders the fleet-wide scrape. Infallible by construction: every
/// family below is populated from a non-empty fleet (a [`FleetReport`]
/// always holds ≥ 1 device and ≥ 1 tenant).
pub fn render_fleet(cfg: &FleetConfig, report: &FleetReport) -> String {
    let mut out = String::new();
    writeln!(out, "# HELP evanesco_fleet_devices Devices in the fleet.").unwrap();
    writeln!(out, "# TYPE evanesco_fleet_devices gauge").unwrap();
    writeln!(out, "evanesco_fleet_devices {}", report.devices.len()).unwrap();
    writeln!(out, "# HELP evanesco_fleet_shards Shard threads the fleet ran on.").unwrap();
    writeln!(out, "# TYPE evanesco_fleet_shards gauge").unwrap();
    writeln!(out, "evanesco_fleet_shards {}", cfg.shards).unwrap();

    let mut requests = LabeledFamily::new(
        "evanesco_fleet_tenant_requests_total",
        "Requests a tenant issued fleet-wide.",
        "counter",
    );
    let mut pages = LabeledFamily::new(
        "evanesco_fleet_tenant_pages_total",
        "Pages a tenant's requests covered fleet-wide.",
        "counter",
    );
    let mut lat = LabeledFamily::new(
        "evanesco_fleet_tenant_latency_seconds",
        "Per-tenant end-to-end request latency quantiles (shaping delay included).",
        "gauge",
    );
    let mut vaf = LabeledFamily::new(
        "evanesco_fleet_tenant_vaf",
        "Per-tenant version amplification factor (peak exposed / peak valid secured pages).",
        "gauge",
    );
    let mut exposed = LabeledFamily::new(
        "evanesco_fleet_tenant_insecure_ticks_total",
        "Logical ticks during which a tenant had deleted-but-recoverable secured data.",
        "counter",
    );
    let mut blame = LabeledFamily::new(
        "evanesco_fleet_tenant_blame_ns_total",
        "Per-tenant per-stage latency blame: every nanosecond of every request's \
         end-to-end latency charged to exactly one stage (anatomy runs only).",
        "counter",
    );
    let mut tail_blame = LabeledFamily::new(
        "evanesco_fleet_tenant_tail_blame_ns_total",
        "Per-tenant per-stage latency blame over the p99 tail (anatomy runs only).",
        "counter",
    );
    for t in &report.tenants {
        let labels = [("tenant", t.name.as_str()), ("qos", cfg.mode.label())];
        requests.sample_u(&labels, t.requests);
        pages.sample_u(&labels, t.pages);
        // A zero-request tenant still gets explicit, finite samples:
        // LatencyHistogram::percentile is 0 on an empty histogram and
        // vaf() guards its division, so every family stays populated
        // with parseable zeros — never a NaN or a dangling TYPE header.
        for (q, p) in [("0.5", 50.0), ("0.99", 99.0), ("0.999", 99.9)] {
            lat.sample_f(
                &[("tenant", t.name.as_str()), ("qos", cfg.mode.label()), ("quantile", q)],
                t.latency.percentile(p).as_secs_f64(),
            );
        }
        vaf.sample_f(&labels, t.versions.vaf());
        exposed.sample_u(&labels, t.versions.insecure_ticks);
        if cfg.anatomy {
            for s in Stage::ALL {
                let labels =
                    [("tenant", t.name.as_str()), ("qos", cfg.mode.label()), ("stage", s.label())];
                blame.sample_u(&labels, t.blame[s.idx()].0);
                tail_blame.sample_u(&labels, t.tail_blame[s.idx()].0);
            }
        }
    }
    for fam in [requests, pages, lat, vaf, exposed] {
        fam.render_into(&mut out).expect("tenant families are non-empty: >=1 tenant");
    }
    if cfg.anatomy {
        for fam in [blame, tail_blame] {
            fam.render_into(&mut out).expect("blame families are non-empty when anatomy is on");
        }
    }

    let mut info = LabeledFamily::new(
        "evanesco_fleet_device_info",
        "Per-device determinism digest (value is always 1; the digest is the label).",
        "gauge",
    );
    let mut dropped = LabeledFamily::new(
        "evanesco_fleet_device_trace_dropped_total",
        "Request traces evicted from a device's trace ring (capacity pressure; \
         0 when tracing is off or nothing was evicted).",
        "counter",
    );
    for d in &report.devices {
        let dev = d.device.to_string();
        let digest = format!("{:016x}", d.digest);
        info.sample_u(&[("device", dev.as_str()), ("digest", digest.as_str())], 1);
        dropped.sample_u(&[("device", dev.as_str())], d.trace_dropped);
    }
    for fam in [info, dropped] {
        fam.render_into(&mut out).expect("device families are non-empty: >=1 device");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_fleet;

    #[test]
    fn scrape_is_well_formed_and_tenant_labeled() {
        let mut cfg = FleetConfig::noisy_neighbor_demo(2, 2, 200, 3);
        cfg.anatomy = true;
        let report = run_fleet(&cfg);
        let s = render_fleet(&cfg, &report);
        for fam in [
            "evanesco_fleet_devices",
            "evanesco_fleet_shards",
            "evanesco_fleet_tenant_requests_total",
            "evanesco_fleet_tenant_pages_total",
            "evanesco_fleet_tenant_latency_seconds",
            "evanesco_fleet_tenant_vaf",
            "evanesco_fleet_tenant_insecure_ticks_total",
            "evanesco_fleet_tenant_blame_ns_total",
            "evanesco_fleet_tenant_tail_blame_ns_total",
            "evanesco_fleet_device_info",
            "evanesco_fleet_device_trace_dropped_total",
        ] {
            assert!(s.contains(&format!("# TYPE {fam}")), "missing family {fam}");
        }
        assert!(s.contains("tenant=\"storm\""));
        assert!(s.contains("quantile=\"0.999\""));
        assert!(s.contains("device=\"1\""));
        assert!(s.contains("stage=\"sanitize_interference\""));
        assert!(s.contains("evanesco_fleet_device_trace_dropped_total{device=\"0\"} 0"));
        // Every non-comment line is `name{...} value` with a parseable value.
        for line in s.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("sample has a value");
            value.parse::<f64>().unwrap_or_else(|_| panic!("bad sample value in {line:?}"));
        }
    }

    #[test]
    fn blame_families_are_absent_when_anatomy_is_off() {
        let cfg = FleetConfig::noisy_neighbor_demo(1, 1, 100, 3);
        let report = run_fleet(&cfg);
        let s = render_fleet(&cfg, &report);
        assert!(!s.contains("evanesco_fleet_tenant_blame_ns_total"));
        assert!(!s.contains("evanesco_fleet_tenant_tail_blame_ns_total"));
        assert!(s.contains("evanesco_fleet_device_trace_dropped_total"), "drops always render");
    }

    #[test]
    fn zero_request_tenants_scrape_as_explicit_finite_zeros() {
        let mut cfg = FleetConfig::noisy_neighbor_demo(1, 2, 150, 3);
        cfg.anatomy = true;
        // Tenant 2 offers nothing: zero share means the popularity CDF
        // never selects it, so it ends the run with zero requests.
        cfg.traffic.tenants[2].offered_share = 0.0;
        cfg.traffic.tenants[2].name = "idle".into();
        let report = run_fleet(&cfg);
        let idle = &report.tenants[2];
        assert_eq!(idle.requests, 0, "tenant with zero share gets zero requests");
        let s = render_fleet(&cfg, &report);
        assert!(!s.contains("NaN"), "no NaN leaks into the exposition");
        // Every family still carries an explicit sample for the idle
        // tenant — no dangling TYPE headers, no missing series.
        for fam in [
            "evanesco_fleet_tenant_requests_total",
            "evanesco_fleet_tenant_pages_total",
            "evanesco_fleet_tenant_vaf",
            "evanesco_fleet_tenant_insecure_ticks_total",
            "evanesco_fleet_tenant_blame_ns_total",
        ] {
            assert!(
                s.contains(&format!("{fam}{{tenant=\"idle\"")),
                "family {fam} has an explicit sample for the idle tenant"
            );
        }
        for q in ["0.5", "0.99", "0.999"] {
            let line = format!(
                "evanesco_fleet_tenant_latency_seconds{{tenant=\"idle\",qos=\"fifo\",quantile=\"{q}\"}} 0"
            );
            assert!(s.contains(&line), "idle tenant quantile {q} is an explicit zero");
        }
        for line in s.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("sample has a value");
            let v = value.parse::<f64>().unwrap_or_else(|_| panic!("bad value in {line:?}"));
            assert!(v.is_finite(), "non-finite sample in {line:?}");
        }
    }

    #[test]
    fn hostile_tenant_names_cannot_inject_series() {
        let mut cfg = FleetConfig::noisy_neighbor_demo(1, 1, 100, 3);
        cfg.traffic.tenants[1].name = "evil\"} 1\ninjected_metric 2".into();
        let report = run_fleet(&cfg);
        let s = render_fleet(&cfg, &report);
        assert!(!s.contains("\ninjected_metric"), "label value escaped, not spliced");
        assert!(s.contains("evil\\\"} 1\\ninjected_metric 2"));
    }
}
