//! Fleet-scale noisy-neighbor matrix (`BENCH_fleet.json`).
//!
//! Runs a small fleet of emulated SSDs through every cell of
//! {tenant mix} × {QoS policy} × {sanitization policy} and reports
//! per-tenant p50/p99/p999 latency plus sanitization-exposure gauges.
//! The interesting cell is the sanitization storm: a noisy neighbor
//! issuing large secure overwrites and trims oversubscribes the device,
//! and the victims' tail latency shows whether QoS isolation works.
//!
//! The `fleet` subcommand of the `experiments` binary renders the
//! matrix, writes `BENCH_fleet.json`, and **fails (exit 1)** on either:
//!
//! * **determinism breach** — the same seed must produce byte-identical
//!   per-device digests across shard counts {1, 2, 4} and a rerun
//!   (thread interleaving must leave no trace);
//! * **QoS inversion** — under the storm, the worst victim p99 with
//!   shaping on must be at least [`GATE_MIN_P99_SEPARATION`]× lower
//!   than with QoS off (margin chosen above the latency histogram's
//!   √2 bucket resolution, see `evanesco_ssd::metrics`).
//!
//! The JSON artifact is uploaded by CI but **not** byte-diffed: the
//! traffic generator uses `libm` transcendentals (`sin`, `ln`) whose
//! last-bit behavior is platform-dependent. The determinism gate is
//! in-binary, where digests compare exactly.

use crate::scale::Scale;
use evanesco_fleet::{run_fleet, FleetConfig, QosMode, TenantQos};
use evanesco_ftl::SanitizePolicy;
use evanesco_nand::timing::Nanos;
use evanesco_ssd::jsonlite::Obj;
use evanesco_ssd::SsdConfig;
use evanesco_workloads::TrafficConfig;
use std::fmt::Write as _;

/// Shard counts the determinism gate sweeps.
pub const GATE_SHARDS: [usize; 3] = [1, 2, 4];

/// Minimum factor by which shaping must cut the worst victim p99 under
/// the sanitization storm. The latency histogram's buckets are √2-wide,
/// so any gate under 2× could pass or fail on bucket rounding alone.
pub const GATE_MIN_P99_SEPARATION: f64 = 2.0;

/// One tenant's row in a matrix cell.
#[derive(Debug, Clone)]
pub struct TenantRow {
    /// Tenant name.
    pub name: String,
    /// Requests fleet-wide.
    pub requests: u64,
    /// Median end-to-end latency.
    pub p50: Nanos,
    /// 99th-percentile latency.
    pub p99: Nanos,
    /// 99.9th-percentile latency.
    pub p999: Nanos,
    /// Fleet-wide version amplification factor.
    pub vaf: f64,
    /// Fleet-wide insecure ticks (exposure time, logical).
    pub insecure_ticks: u64,
}

/// One cell of the matrix.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Tenant mix name (`balanced` / `noisy`).
    pub mix: &'static str,
    /// QoS mode label (`fifo` / `shaped`).
    pub qos: &'static str,
    /// Sanitization policy label.
    pub policy: &'static str,
    /// Per-tenant rows, tenant order.
    pub tenants: Vec<TenantRow>,
    /// The fleet's determinism digest for this cell.
    pub fleet_digest: u64,
}

impl Cell {
    /// Worst p99 among victim tenants (everyone but the storm).
    pub fn worst_victim_p99(&self) -> Nanos {
        self.tenants
            .iter()
            .filter(|t| t.name != "storm")
            .map(|t| t.p99)
            .max()
            .unwrap_or(Nanos::ZERO)
    }
}

/// The determinism sweep's digests.
#[derive(Debug, Clone)]
pub struct DeterminismCheck {
    /// `(shards, fleet_digest)` per swept shard count.
    pub by_shards: Vec<(usize, u64)>,
    /// Digest of the rerun at the last shard count.
    pub rerun: u64,
}

impl DeterminismCheck {
    /// Violation strings (empty = pass).
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let base = self.by_shards[0].1;
        for &(shards, d) in &self.by_shards[1..] {
            if d != base {
                v.push(format!(
                    "determinism: fleet digest {d:016x} at {shards} shards != {base:016x} at \
                     {} shard(s)",
                    self.by_shards[0].0
                ));
            }
        }
        if self.rerun != base {
            v.push(format!(
                "determinism: rerun digest {:016x} != first run {base:016x}",
                self.rerun
            ));
        }
        v
    }
}

/// The full benchmark result.
#[derive(Debug, Clone)]
pub struct FleetBench {
    /// Scale preset name (JSON provenance).
    pub scale_name: String,
    /// Devices per fleet run.
    pub devices: usize,
    /// Requests per device.
    pub requests_per_device: usize,
    /// All matrix cells.
    pub cells: Vec<Cell>,
    /// The shard/rerun byte-identity sweep.
    pub determinism: DeterminismCheck,
}

/// Builds one cell's fleet config. The offered load is calibrated
/// against the device's nominal drain rate: victims alone run the
/// device at a comfortable fraction of capacity, while the storm tenant
/// (noisy mix only) oversubscribes it outright — so QoS-off shows real
/// noisy-neighbor damage and QoS-on has headroom to fix it. Every device
/// is the tiny 2-chip SSD: a cell multiplies it by `devices`.
fn cell_config(
    scale: &Scale,
    devices: usize,
    requests: usize,
    mix: &'static str,
    mode: QosMode,
    policy: SanitizePolicy,
    shards: usize,
) -> FleetConfig {
    let traffic = match mix {
        "noisy" => TrafficConfig::noisy_neighbor(3, requests, scale.seed),
        "balanced" => TrafficConfig::balanced(4, requests, scale.seed),
        other => panic!("unknown tenant mix '{other}'"),
    };
    let tenants = traffic.tenants.len();
    let mut cfg = FleetConfig {
        ssd: SsdConfig::tiny_for_tests(),
        policy,
        traffic,
        qos: vec![TenantQos::unlimited(); tenants],
        mode,
        devices,
        shards,
        qd: 8,
        anatomy: false,
    };
    let capacity_pages_per_sec = 1e9 / cfg.drain_ns_per_page() as f64;
    // ~1/6 of drain capacity in requests/s: victims (small requests,
    // minority share) stay well under capacity; the storm's 8-16-page
    // requests at 8x share alone exceed it.
    cfg.traffic.base_rate_per_sec = (capacity_pages_per_sec / 6.0).max(1.0);
    if mix == "noisy" {
        // Police the storm at ~20% of device capacity; give victims 4x
        // its weight in the fair-queue merge.
        cfg.qos[0] = TenantQos::limited(1, (capacity_pages_per_sec * 0.2).max(1.0) as u64, 64);
        for q in &mut cfg.qos[1..] {
            q.weight = 4;
        }
    }
    cfg
}

fn run_cell(
    scale: &Scale,
    devices: usize,
    requests: usize,
    mix: &'static str,
    mode: QosMode,
    policy: SanitizePolicy,
    policy_label: &'static str,
) -> Cell {
    let cfg = cell_config(scale, devices, requests, mix, mode, policy, 2);
    let report = run_fleet(&cfg);
    let tenants = report
        .tenants
        .iter()
        .map(|t| TenantRow {
            name: t.name.clone(),
            requests: t.requests,
            p50: t.latency.percentile(50.0),
            p99: t.latency.percentile(99.0),
            p999: t.latency.percentile(99.9),
            vaf: t.versions.vaf(),
            insecure_ticks: t.versions.insecure_ticks,
        })
        .collect();
    Cell {
        mix,
        qos: mode.label(),
        policy: policy_label,
        tenants,
        fleet_digest: report.fleet_digest,
    }
}

/// Runs the full matrix plus the determinism sweep.
pub fn run(scale: &Scale, scale_name: &str) -> FleetBench {
    let (devices, requests) = if scale.tiny_blocks { (3, 500) } else { (4, 2500) };
    let mut cells = Vec::new();
    for mix in ["balanced", "noisy"] {
        for mode in [QosMode::Fifo, QosMode::Shaped] {
            for (policy, label) in
                [(SanitizePolicy::evanesco(), "evanesco"), (SanitizePolicy::none(), "none")]
            {
                cells.push(run_cell(scale, devices, requests, mix, mode, policy, label));
            }
        }
    }
    // Determinism sweep on the storm cell (the most contended one).
    let mut by_shards = Vec::new();
    for shards in GATE_SHARDS {
        let cfg = cell_config(
            scale,
            devices,
            requests,
            "noisy",
            QosMode::Shaped,
            SanitizePolicy::evanesco(),
            shards,
        );
        by_shards.push((shards, run_fleet(&cfg).fleet_digest));
    }
    let rerun_cfg = cell_config(
        scale,
        devices,
        requests,
        "noisy",
        QosMode::Shaped,
        SanitizePolicy::evanesco(),
        *GATE_SHARDS.last().unwrap(),
    );
    let rerun = run_fleet(&rerun_cfg).fleet_digest;
    FleetBench {
        scale_name: scale_name.to_string(),
        devices,
        requests_per_device: requests,
        cells,
        determinism: DeterminismCheck { by_shards, rerun },
    }
}

impl FleetBench {
    /// The storm cell at a given QoS mode (evanesco policy).
    fn storm_cell(&self, qos: &str) -> &Cell {
        self.cells
            .iter()
            .find(|c| c.mix == "noisy" && c.qos == qos && c.policy == "evanesco")
            .expect("matrix always contains the storm cells")
    }

    /// The measured p99 improvement factor (fifo / shaped) for the worst
    /// victim under the storm.
    pub fn qos_separation(&self) -> f64 {
        let fifo = self.storm_cell("fifo").worst_victim_p99().0 as f64;
        let shaped = self.storm_cell("shaped").worst_victim_p99().0.max(1) as f64;
        fifo / shaped
    }

    /// All gate violations (empty = pass).
    pub fn violations(&self) -> Vec<String> {
        let mut v = self.doc(false).non_finite();
        v.extend(self.determinism.violations());
        let sep = self.qos_separation();
        if sep.is_nan() || sep < GATE_MIN_P99_SEPARATION {
            v.push(format!(
                "qos: worst victim p99 improved only {sep:.2}x under shaping \
                 (gate {GATE_MIN_P99_SEPARATION:.1}x)"
            ));
        }
        v
    }

    /// Human-readable matrix.
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(out, "== Fleet: multi-tenant noisy-neighbor matrix ==").unwrap();
        writeln!(
            out,
            "{} devices x {} requests/device, scale {}",
            self.devices, self.requests_per_device, self.scale_name
        )
        .unwrap();
        writeln!(
            out,
            "{:>9} {:>7} {:>9} {:>11} {:>9} {:>11} {:>11} {:>11} {:>7} {:>9}",
            "mix",
            "qos",
            "policy",
            "tenant",
            "requests",
            "p50_us",
            "p99_us",
            "p999_us",
            "vaf",
            "insec_t"
        )
        .unwrap();
        for c in &self.cells {
            for t in &c.tenants {
                writeln!(
                    out,
                    "{:>9} {:>7} {:>9} {:>11} {:>9} {:>11.1} {:>11.1} {:>11.1} {:>7.2} {:>9}",
                    c.mix,
                    c.qos,
                    c.policy,
                    t.name,
                    t.requests,
                    t.p50.0 as f64 / 1e3,
                    t.p99.0 as f64 / 1e3,
                    t.p999.0 as f64 / 1e3,
                    t.vaf,
                    t.insecure_ticks,
                )
                .unwrap();
            }
        }
        let mut digests: Vec<String> = self
            .determinism
            .by_shards
            .iter()
            .map(|(s, d)| format!("{s} shard(s): {d:016x}"))
            .collect();
        digests.push(format!("rerun: {:016x}", self.determinism.rerun));
        writeln!(out, "determinism: {}", digests.join(", ")).unwrap();
        writeln!(
            out,
            "gate: victim p99 separation {:.2}x (minimum {:.1}x), determinism {} -> {}",
            self.qos_separation(),
            GATE_MIN_P99_SEPARATION,
            if self.determinism.violations().is_empty() { "byte-identical" } else { "BROKEN" },
            if self.violations().is_empty() { "PASS" } else { "FAIL" },
        )
        .unwrap();
        out
    }

    fn doc(&self, pass: bool) -> Obj {
        let hex = |digest: u64| format!("{digest:016x}");
        let gate = Obj::new()
            .field("min_p99_separation", GATE_MIN_P99_SEPARATION)
            .field("p99_separation", self.qos_separation())
            .field("pass", pass);
        let runs = self
            .determinism
            .by_shards
            .iter()
            .map(|&(shards, d)| Obj::new().field("shards", shards).field("digest", hex(d)));
        let determinism = Obj::new()
            .array("runs", runs)
            .field("rerun", hex(self.determinism.rerun))
            .field("pass", self.determinism.violations().is_empty());
        let cells = self.cells.iter().map(|c| {
            let tenants = c.tenants.iter().map(|t| {
                Obj::new()
                    .field("tenant", &t.name)
                    .field("requests", t.requests)
                    .field("p50_ns", t.p50.0)
                    .field("p99_ns", t.p99.0)
                    .field("p999_ns", t.p999.0)
                    .field("vaf", t.vaf)
                    .field("insecure_ticks", t.insecure_ticks)
            });
            Obj::new()
                .field("mix", c.mix)
                .field("qos", c.qos)
                .field("policy", c.policy)
                .field("fleet_digest", hex(c.fleet_digest))
                .array("tenants", tenants)
        });
        Obj::new()
            .field("bench", "fleet")
            .field("scale", &self.scale_name)
            .field("devices", self.devices)
            .field("requests_per_device", self.requests_per_device)
            .field("gate", gate)
            .field("determinism", determinism)
            .array("cells", cells)
    }

    /// Machine-readable JSON (`BENCH_fleet.json`). Uploaded by CI, not
    /// byte-diffed (see module docs).
    pub fn to_json(&self) -> String {
        self.doc(self.violations().is_empty()).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evanesco_ssd::jsonlite::Json;

    #[test]
    fn smoke_matrix_passes_both_gates_with_headroom() {
        let b = run(&Scale::smoke(), "smoke");
        assert_eq!(b.cells.len(), 8, "2 mixes x 2 qos x 2 policies");
        assert!(b.determinism.violations().is_empty(), "{:?}", b.determinism);
        // The acceptance bar: the gate at 2x must have real headroom.
        assert!(b.qos_separation() >= 4.0, "victim p99 separation only {:.2}x", b.qos_separation());
        assert!(b.violations().is_empty(), "{:?}", b.violations());
        // Every tenant in every cell saw traffic and a latency.
        for c in &b.cells {
            for t in &c.tenants {
                assert!(t.requests > 0, "{}/{}/{}: silent tenant", c.mix, c.qos, t.name);
                assert!(t.p99 >= t.p50);
                assert!(t.p999 >= t.p99);
            }
        }
        // Under the storm with sanitization off, exposure is nonzero;
        // with Evanesco's locks it stays dramatically lower.
        let exposed = |policy: &str| -> u64 {
            b.cells
                .iter()
                .filter(|c| c.mix == "noisy" && c.policy == policy)
                .flat_map(|c| &c.tenants)
                .map(|t| t.insecure_ticks)
                .sum()
        };
        assert!(exposed("none") > 0, "the insecure baseline shows no exposure");
        assert!(
            exposed("evanesco") < exposed("none") / 10,
            "evanesco {} vs none {}",
            exposed("evanesco"),
            exposed("none")
        );
    }

    #[test]
    fn a_hostile_name_and_a_nan_cannot_corrupt_the_artifact() {
        let row = TenantRow {
            name: "quo\"te\n".into(),
            requests: 1,
            p50: Nanos(1),
            p99: Nanos(2),
            p999: Nanos(3),
            vaf: f64::NAN,
            insecure_ticks: 0,
        };
        let cell = |qos| Cell {
            mix: "noisy",
            qos,
            policy: "evanesco",
            tenants: vec![row.clone()],
            fleet_digest: 7,
        };
        let b = FleetBench {
            scale_name: "sm\\oke".into(),
            devices: 1,
            requests_per_device: 1,
            cells: vec![cell("fifo"), cell("shaped")],
            determinism: DeterminismCheck { by_shards: vec![(1, 7)], rerun: 7 },
        };
        let doc = Json::parse(&b.to_json()).expect("every string is escaped");
        assert_eq!(doc.get("scale").and_then(Json::as_str), Some("sm\\oke"));
        let tenant = &doc.get("cells").unwrap().as_arr().unwrap()[0].get("tenants").unwrap();
        let tenant = &tenant.as_arr().unwrap()[0];
        assert_eq!(tenant.get("tenant").and_then(Json::as_str), Some("quo\"te\n"));
        // The NaN is null, named by the gate, and the artifact says so.
        assert_eq!(tenant.get("vaf"), Some(&Json::Null));
        assert!(b.violations().iter().any(|v| v.contains("'cells.0.tenants.0.vaf'")));
        assert_eq!(doc.get("gate").unwrap().get("pass"), Some(&Json::Bool(false)));
    }
}
