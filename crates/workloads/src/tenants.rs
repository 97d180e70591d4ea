//! Open-loop multi-tenant fleet traffic: Zipf-distributed tenant
//! popularity over a diurnal (sinusoidal-rate) Poisson arrival process.
//!
//! The single-device generators in [`crate::generate`] are closed-loop:
//! the next request exists only once the previous one completed. A fleet
//! front end is the opposite — tenants submit on their own schedule and
//! the device absorbs (or queues) the offered load. This module produces
//! that offered load as per-device request streams:
//!
//! * **tenant popularity** is Zipf(s): tenant ranks are weighted
//!   `1/(rank+1)^s`, so a handful of hot tenants dominate — the classic
//!   multi-tenant skew;
//! * **arrivals** are a non-homogeneous Poisson process whose rate swings
//!   sinusoidally around the base rate (the diurnal cycle of a real
//!   fleet), sampled by inverting per-event exponential gaps at the
//!   current instantaneous rate;
//! * every request addresses its tenant's **namespace-relative** LPA
//!   window (`[0, window_pages)`); the fleet layer rebases onto the
//!   device's physical namespace map, so the generator never needs to
//!   know where (or with whom) a tenant is placed.
//!
//! Determinism: each device's stream is derived from `seed ⊕ device`, so
//! per-device traces are independent of how many devices exist, how they
//! are sharded over threads, and in what order they are generated.

use evanesco_nand::timing::Nanos;
use evanesco_ssd::HostOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One tenant's traffic profile (what it sends, not how it is policed —
/// QoS lives in `evanesco-fleet`). Every write carries the paper's
/// security requirement: no tenant opens `O_INSEC`.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantProfile {
    /// Human-readable tenant name (becomes a Prometheus label; the fleet
    /// scrape escapes it).
    pub name: String,
    /// Request size in pages, sampled uniformly from this inclusive range.
    pub req_pages: (u64, u64),
    /// Fraction of requests that are writes.
    pub write_frac: f64,
    /// Fraction of requests that are trims (rest after writes are reads).
    pub trim_frac: f64,
    /// Relative share of the fleet-wide arrival rate this tenant offers
    /// (scaled by its Zipf rank weight).
    pub offered_share: f64,
}

impl TenantProfile {
    /// A well-behaved tenant: small mixed read/write load, secure writes.
    pub fn victim(name: &str) -> Self {
        TenantProfile {
            name: name.into(),
            req_pages: (1, 4),
            write_frac: 0.5,
            trim_frac: 0.05,
            offered_share: 1.0,
        }
    }

    /// A noisy neighbor driving a sanitization storm: large secure
    /// overwrites plus heavy trims, so every invalidation drags lock
    /// (pLock/bLock) traffic behind it.
    pub fn noisy_neighbor(name: &str) -> Self {
        TenantProfile {
            name: name.into(),
            req_pages: (8, 16),
            write_frac: 0.6,
            trim_frac: 0.35,
            offered_share: 8.0,
        }
    }

    /// A pure sanitization storm: trim-dominated secure traffic (just
    /// enough writes to keep pages mapped), so nearly every request
    /// injects immediate pLock/bLock work with minimal GC pressure —
    /// the cleanest stimulus for attributing neighbor tail latency to
    /// sanitization-lock interference rather than copyback traffic.
    pub fn sanitize_storm(name: &str) -> Self {
        TenantProfile {
            name: name.into(),
            req_pages: (8, 16),
            write_frac: 0.15,
            trim_frac: 0.8,
            offered_share: 8.0,
        }
    }
}

/// The diurnal period in simulated time.
pub const DIURNAL_PERIOD: Nanos = Nanos::from_micros(200_000);

/// Fleet-wide arrival-process parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// The tenants, in Zipf rank order (rank 0 is the most popular).
    pub tenants: Vec<TenantProfile>,
    /// Zipf skew `s` (0 = uniform popularity; ~1 = classic heavy skew).
    pub zipf_s: f64,
    /// Mean arrival rate per device, requests per second, averaged over a
    /// diurnal period.
    pub base_rate_per_sec: f64,
    /// Diurnal swing in `[0, 1)`: instantaneous rate is
    /// `base × (1 + amplitude × sin(2πt / DIURNAL_PERIOD))`.
    pub diurnal_amplitude: f64,
    /// Requests generated per device.
    pub requests_per_device: usize,
    /// Base seed; device `d` uses `seed ⊕ d`.
    pub seed: u64,
}

impl TrafficConfig {
    /// A small mixed fleet: one noisy neighbor (rank 0, hottest) plus
    /// `victims` well-behaved tenants.
    pub fn noisy_neighbor(victims: usize, requests_per_device: usize, seed: u64) -> Self {
        let mut tenants = vec![TenantProfile::noisy_neighbor("storm")];
        tenants.extend((0..victims).map(|i| TenantProfile::victim(&format!("victim-{i}"))));
        TrafficConfig {
            tenants,
            zipf_s: 0.9,
            base_rate_per_sec: 30_000.0,
            diurnal_amplitude: 0.5,
            requests_per_device: seed_independent_len(requests_per_device),
            seed,
        }
    }

    /// A [`TenantProfile::sanitize_storm`] neighbor (rank 0) plus
    /// `victims` well-behaved tenants: the storm's trim-heavy secure
    /// stream keeps the device's lock traffic — not its GC — as the
    /// dominant interference source on victims.
    pub fn sanitize_storm(victims: usize, requests_per_device: usize, seed: u64) -> Self {
        let mut tenants = vec![TenantProfile::sanitize_storm("storm")];
        tenants.extend((0..victims).map(|i| TenantProfile::victim(&format!("victim-{i}"))));
        TrafficConfig {
            tenants,
            zipf_s: 0.9,
            base_rate_per_sec: 30_000.0,
            diurnal_amplitude: 0.5,
            requests_per_device: seed_independent_len(requests_per_device),
            seed,
        }
    }

    /// A balanced fleet of equal victims (no storm).
    pub fn balanced(tenants: usize, requests_per_device: usize, seed: u64) -> Self {
        TrafficConfig {
            tenants: (0..tenants).map(|i| TenantProfile::victim(&format!("tenant-{i}"))).collect(),
            zipf_s: 0.0,
            base_rate_per_sec: 20_000.0,
            diurnal_amplitude: 0.3,
            requests_per_device: seed_independent_len(requests_per_device),
            seed,
        }
    }
}

fn seed_independent_len(n: usize) -> usize {
    n.max(1)
}

/// One request of a fleet trace. `op` addresses the tenant's namespace
/// window, i.e. LPAs in `[0, window_pages)`; the fleet layer rebases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantOp {
    /// Index into [`TrafficConfig::tenants`].
    pub tenant: usize,
    /// When the tenant handed the request to the front end.
    pub arrival: Nanos,
    /// The request, namespace-relative.
    pub op: HostOp,
}

impl TrafficConfig {
    /// Checks that streams can be generated into `window_pages`-page
    /// namespaces.
    ///
    /// # Panics
    ///
    /// Panics on an empty tenant list, a non-positive base rate, a diurnal
    /// amplitude outside `[0, 1)`, or a window too small for the largest
    /// request.
    pub fn validate(&self, window_pages: u64) {
        assert!(!self.tenants.is_empty(), "fleet traffic needs at least one tenant");
        assert!(self.base_rate_per_sec > 0.0, "arrival rate must be positive");
        assert!(
            (0.0..1.0).contains(&self.diurnal_amplitude),
            "diurnal amplitude must be in [0, 1), got {}",
            self.diurnal_amplitude
        );
        let max_req = self.tenants.iter().map(|t| t.req_pages.1).max().unwrap();
        assert!(
            window_pages >= max_req,
            "namespace window of {window_pages} pages cannot hold a {max_req}-page request"
        );
    }

    /// Zipf × offered-share tenant weights, folded into a CDF.
    fn tenant_cdf(&self) -> Vec<f64> {
        let weights: Vec<f64> = self
            .tenants
            .iter()
            .enumerate()
            .map(|(rank, t)| t.offered_share / ((rank + 1) as f64).powf(self.zipf_s))
            .collect();
        let total: f64 = weights.iter().sum();
        weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect()
    }
}

/// Generates per-device open-loop request streams: `devices` traces of
/// [`TrafficConfig::requests_per_device`] requests each, every request
/// confined to `[0, window_pages)` within its tenant's namespace.
///
/// # Panics
///
/// Panics on a configuration [`TrafficConfig::validate`] rejects.
pub fn generate_fleet(
    cfg: &TrafficConfig,
    devices: usize,
    window_pages: u64,
) -> Vec<Vec<TenantOp>> {
    cfg.validate(window_pages);
    let cdf = cfg.tenant_cdf();
    (0..devices).map(|d| device_stream(cfg, &cdf, window_pages, d)).collect()
}

/// Generates one device's stream — `generate_fleet(cfg, n, window_pages)[device]`
/// for any `n > device` — so a fleet shard can produce each of its
/// devices' traffic when it gets to it.
///
/// # Panics
///
/// Panics on a configuration [`TrafficConfig::validate`] rejects.
pub fn generate_device(cfg: &TrafficConfig, window_pages: u64, device: usize) -> Vec<TenantOp> {
    cfg.validate(window_pages);
    device_stream(cfg, &cfg.tenant_cdf(), window_pages, device)
}

fn device_stream(
    cfg: &TrafficConfig,
    cdf: &[f64],
    window_pages: u64,
    device: usize,
) -> Vec<TenantOp> {
    let mut rng =
        StdRng::seed_from_u64(cfg.seed ^ (device as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut t_ns = 0u64;
    let period = DIURNAL_PERIOD.0 as f64;
    let mut out = Vec::with_capacity(cfg.requests_per_device);
    for _ in 0..cfg.requests_per_device {
        // Exponential gap at the instantaneous (diurnal) rate. The
        // inversion uses the rate at the *current* instant — a standard
        // thinning-free approximation that keeps the stream a pure
        // function of (seed, device).
        let phase = (t_ns as f64 / period) * std::f64::consts::TAU;
        let rate = cfg.base_rate_per_sec * (1.0 + cfg.diurnal_amplitude * phase.sin());
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let gap_secs = -u.ln() / rate.max(1e-6);
        t_ns = t_ns.saturating_add((gap_secs * 1e9).ceil() as u64);

        let pick: f64 = rng.gen_range(0.0..1.0);
        let tenant = cdf.iter().position(|&c| pick < c).unwrap_or(cdf.len() - 1);
        let profile = &cfg.tenants[tenant];
        let npages = rng.gen_range(profile.req_pages.0..=profile.req_pages.1);
        let lpa = rng.gen_range(0..=(window_pages - npages));
        let kind: f64 = rng.gen_range(0.0..1.0);
        let op = if kind < profile.write_frac {
            HostOp::Write { lpa, npages, secure: true }
        } else if kind < profile.write_frac + profile.trim_frac {
            HostOp::Trim { lpa, npages }
        } else {
            HostOp::Read { lpa, npages }
        };
        out.push(TenantOp { tenant, arrival: Nanos(t_ns), op });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_device_independent() {
        let cfg = TrafficConfig::noisy_neighbor(3, 500, 42);
        let a = generate_fleet(&cfg, 4, 1 << 12);
        let b = generate_fleet(&cfg, 2, 1 << 12);
        assert_eq!(a[0], b[0], "device 0's stream ignores fleet size");
        assert_eq!(a[1], b[1]);
        assert_ne!(a[0], a[1], "devices draw independent streams");
        let again = generate_fleet(&cfg, 4, 1 << 12);
        assert_eq!(a, again, "same seed, same fleet");
    }

    #[test]
    fn arrivals_are_monotone_and_windows_respected() {
        let cfg = TrafficConfig::noisy_neighbor(3, 1000, 7);
        let window = 1 << 10;
        for trace in generate_fleet(&cfg, 2, window) {
            let mut last = Nanos::ZERO;
            for req in &trace {
                assert!(req.arrival >= last, "arrivals are nondecreasing");
                last = req.arrival;
                let (lpa, n) = req.op.lpa_range();
                assert!(lpa + n <= window, "request escapes its namespace window");
                assert!(req.tenant < cfg.tenants.len());
            }
        }
    }

    #[test]
    fn sanitize_storm_is_trim_dominated() {
        let cfg = TrafficConfig::sanitize_storm(2, 3000, 11);
        let trace = &generate_fleet(&cfg, 1, 1 << 12)[0];
        let (mut trims, mut total) = (0usize, 0usize);
        for req in trace.iter().filter(|r| r.tenant == 0) {
            total += 1;
            if matches!(req.op, HostOp::Trim { .. }) {
                trims += 1;
            }
        }
        assert!(total > 0);
        assert!(
            trims * 2 > total,
            "the storm tenant mostly trims ({trims}/{total}), priming lock traffic"
        );
    }

    #[test]
    fn zipf_skew_makes_rank_zero_hottest() {
        let cfg = TrafficConfig::noisy_neighbor(4, 4000, 9);
        let trace = &generate_fleet(&cfg, 1, 1 << 12)[0];
        let mut counts = vec![0usize; cfg.tenants.len()];
        for req in trace {
            counts[req.tenant] += 1;
        }
        assert!(
            counts[0] > counts[1..].iter().copied().max().unwrap(),
            "the storm tenant (rank 0, 8x share) dominates: {counts:?}"
        );
    }
}
