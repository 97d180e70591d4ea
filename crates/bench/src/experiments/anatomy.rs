//! Latency anatomy: exact stage decomposition with blame attribution
//! (`BENCH_anatomy.json`).
//!
//! Three claims about the `evanesco_ssd::anatomy` layer, each enforced
//! as an in-binary gate (exit 1 on breach):
//!
//! * **tiling identity** — for every traced request at queue depths
//!   {1, 8, 32}, the per-stage durations sum *exactly* (integer
//!   nanoseconds, no epsilon) to the request's end-to-end latency;
//! * **timing neutrality** — enabling the anatomy layer changes nothing
//!   the simulation computes: host results, completion times, and
//!   simulated end time are byte-identical with the layer on and off,
//!   on a single device and across a whole fleet (digest equality);
//! * **blame attribution** — under a trim-heavy sanitization storm
//!   (one `sanitize_storm` neighbor oversubscribing the device), the
//!   victim tenants' p99-tail interference is majority-attributed to
//!   sanitization-lock traffic, not to GC copyback or retry backoff.
//!
//! The rendered report also prints the top-5 slowest requests with
//! their causal chains — the digest a tail-latency postmortem starts
//! from.

use crate::scale::Scale;
use evanesco_fleet::{run_fleet, FleetConfig, QosMode};
use evanesco_nand::timing::Nanos;
use evanesco_ssd::jsonlite::Obj;
use evanesco_ssd::{Emulator, HostOp, SchedRun, Stage};
use evanesco_workloads::TrafficConfig;
use std::fmt::Write as _;

/// Queue depths the tiling gate sweeps (serialized, the default NCQ
/// depth, and deep reordering).
pub const GATE_QDS: [usize; 3] = [1, 8, 32];

/// Minimum fraction of the victims' p99-tail *interference* time that
/// must be blamed on sanitization locks under the storm.
pub const GATE_MIN_SANITIZE_SHARE: f64 = 0.5;

/// Requests kept in the slowest-request digest of the report.
const TOP_K: usize = 5;

/// Deterministic mixed single-device workload: secure writes, reads,
/// and trims over a clustered working set (xorshift; no external RNG).
fn mixed_ops(logical: u64, n: usize, seed: u64) -> Vec<HostOp> {
    let mut s = seed | 1;
    let mut step = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    (0..n)
        .map(|_| {
            let r = step();
            let npages = 1 + (step() % 8);
            let lpa = step() % logical.saturating_sub(npages).max(1);
            match r % 10 {
                0..=4 => HostOp::Write { lpa, npages, secure: true },
                5..=6 => HostOp::Read { lpa, npages },
                _ => HostOp::Trim { lpa, npages },
            }
        })
        .collect()
}

/// One queue depth's tiling sweep.
#[derive(Debug, Clone)]
pub struct QdCell {
    /// Queue depth.
    pub qd: usize,
    /// Anatomy rows checked.
    pub rows: usize,
    /// Rows whose stage sum differed from end-to-end latency (gate: 0).
    pub tiling_violations: usize,
    /// Total per-stage time across all rows, [`Stage::ALL`] order.
    pub stage_ns: [u64; Stage::COUNT],
    /// Total end-to-end time across all rows.
    pub e2e_ns: u64,
}

/// One line of the slowest-request digest.
#[derive(Debug, Clone)]
pub struct TopRow {
    /// Trace id of the request.
    pub trace_id: u64,
    /// Request class label.
    pub kind: &'static str,
    /// End-to-end latency.
    pub e2e: Nanos,
    /// The stage charged the most time.
    pub dominant: &'static str,
    /// Causal chain rendered as text (longest links first).
    pub chain: String,
}

/// One tenant of the storm fleet run.
#[derive(Debug, Clone)]
pub struct StormTenant {
    /// Tenant name.
    pub name: String,
    /// Requests fleet-wide.
    pub requests: u64,
    /// p99 end-to-end latency.
    pub p99: Nanos,
    /// p99-tail per-stage blame, [`Stage::ALL`] order.
    pub tail_blame_ns: [u64; Stage::COUNT],
}

impl StormTenant {
    /// Sanitization's share of the tail's interference time
    /// (sanitize / (sanitize + gc + retry)); 0 when there is none.
    pub fn sanitize_share(&self) -> f64 {
        let san = self.tail_blame_ns[Stage::SanitizeInterference.idx()];
        let total = san
            + self.tail_blame_ns[Stage::GcInterference.idx()]
            + self.tail_blame_ns[Stage::RetryInterference.idx()];
        if total == 0 {
            0.0
        } else {
            san as f64 / total as f64
        }
    }
}

/// The full benchmark result.
#[derive(Debug, Clone)]
pub struct AnatomyBench {
    /// Scale preset name (JSON provenance).
    pub scale_name: String,
    /// Single-device requests per queue depth.
    pub requests: usize,
    /// Tiling sweep, one cell per [`GATE_QDS`] entry.
    pub qd_cells: Vec<QdCell>,
    /// Whether the single-device run was byte-identical with anatomy
    /// on and off (results, completions, submissions, end time).
    pub device_neutral: bool,
    /// Fleet digests with anatomy off / on (must match).
    pub fleet_digests: (u64, u64),
    /// Slowest requests of the qd-8 single-device run.
    pub top: Vec<TopRow>,
    /// Storm fleet tenants, tenant order (rank 0 is the storm).
    pub storm: Vec<StormTenant>,
}

fn simulated_equal(a: &SchedRun, b: &SchedRun) -> bool {
    a.results == b.results
        && a.completions == b.completions
        && a.submits == b.submits
        && a.sim_time == b.sim_time
}

/// The storm fleet: one trim-heavy sanitize-storm neighbor plus two
/// victims, FIFO admission (nothing shields the victims), anatomy on.
fn storm_config(scale: &Scale, requests: usize, anatomy: bool) -> FleetConfig {
    let mut cfg = FleetConfig::noisy_neighbor_demo(2, 2, requests, scale.seed);
    cfg.traffic = TrafficConfig::sanitize_storm(2, requests, scale.seed);
    cfg.mode = QosMode::Fifo;
    cfg.anatomy = anatomy;
    // Offer ~1/4 of the device's nominal drain capacity: enough
    // contention that the storm's lock traffic lands in victim waits,
    // without drowning the tail in pure queueing delay.
    let capacity_pages_per_sec = 1e9 / cfg.drain_ns_per_page() as f64;
    cfg.traffic.base_rate_per_sec = (capacity_pages_per_sec / 4.0).max(1.0);
    cfg
}

/// Requests per device in the storm fleet, at every scale. The storm
/// cell is a *fixed calibrated fixture*, not a throughput sweep: at this
/// volume the tiny fleet device stays inside its over-provisioning, so
/// the victims' tail interference is the storm's lock traffic and
/// sanitize erases. Scaling it up wraps the device and the tail becomes
/// legitimate GC-dominated — a different (uninteresting) regime that the
/// attribution gate is not about. Scale presets only size the
/// single-device tiling/neutrality sweep.
const STORM_REQUESTS: usize = 400;

/// Runs the sweep, the neutrality checks, and the storm attribution.
pub fn run(scale: &Scale, scale_name: &str) -> AnatomyBench {
    let requests = if scale.tiny_blocks { 600 } else { 2000 };
    let fleet_requests = STORM_REQUESTS;
    let cfg = scale.ssd_config();
    let logical = cfg.ftl.logical_pages();
    let ops = mixed_ops(logical, requests, scale.seed.wrapping_mul(0x9E37_79B9).max(1));

    let mut qd_cells = Vec::new();
    let mut top = Vec::new();
    let mut device_neutral = true;
    for qd in GATE_QDS {
        let mut base = Emulator::new(cfg, evanesco_ftl::SanitizePolicy::evanesco());
        let run_off = base.run_scheduled(&ops, qd);

        let mut ssd = Emulator::new(cfg, evanesco_ftl::SanitizePolicy::evanesco());
        ssd.enable_anatomy(ops.len(), TOP_K);
        let run_on = ssd.run_scheduled(&ops, qd);
        device_neutral &= simulated_equal(&run_off, &run_on);

        let an = ssd.take_anatomy().expect("anatomy was enabled");
        let mut cell =
            QdCell { qd, rows: 0, tiling_violations: 0, stage_ns: [0; Stage::COUNT], e2e_ns: 0 };
        for row in an.rows() {
            cell.rows += 1;
            if row.stage_sum() != row.e2e() {
                cell.tiling_violations += 1;
            }
            for s in Stage::ALL {
                cell.stage_ns[s.idx()] += row.stage(s).0;
            }
            cell.e2e_ns += row.e2e().0;
        }
        if qd == 8 {
            top = an.top().take(TOP_K).map(top_row).collect();
        }
        qd_cells.push(cell);
    }

    let fleet_off = run_fleet(&storm_config(scale, fleet_requests, false)).fleet_digest;
    let storm_report = run_fleet(&storm_config(scale, fleet_requests, true));
    let storm = storm_report
        .tenants
        .iter()
        .map(|t| {
            let mut tail = [0u64; Stage::COUNT];
            for s in Stage::ALL {
                tail[s.idx()] = t.tail_blame[s.idx()].0;
            }
            StormTenant {
                name: t.name.clone(),
                requests: t.requests,
                p99: t.latency.percentile(99.0),
                tail_blame_ns: tail,
            }
        })
        .collect();

    AnatomyBench {
        scale_name: scale_name.to_string(),
        requests,
        qd_cells,
        device_neutral,
        fleet_digests: (fleet_off, storm_report.fleet_digest),
        top,
        storm,
    }
}

fn top_row(row: evanesco_ssd::RequestAnatomy<'_>) -> TopRow {
    let dominant = Stage::ALL
        .into_iter()
        .max_by_key(|&s| (row.stage(s), s.idx()))
        .expect("Stage::ALL is non-empty");
    let mut links: Vec<_> = row.chain().collect();
    links.sort_by_key(|l| std::cmp::Reverse(l.dur()));
    let chain = links
        .iter()
        .take(3)
        .map(|l| {
            let who = match l.resource {
                Some(r) => r.name(),
                None => "self".to_string(),
            };
            format!(
                "{} <- {}({}) on {} for {:.1}us{}",
                l.stage.label(),
                l.kind.label(),
                l.cause.label(),
                who,
                l.dur().0 as f64 / 1e3,
                if l.own { " [own]" } else { "" },
            )
        })
        .collect::<Vec<_>>()
        .join("; ");
    TopRow {
        trace_id: row.trace_id,
        kind: row.kind.label(),
        e2e: row.e2e(),
        dominant: dominant.label(),
        chain,
    }
}

impl AnatomyBench {
    /// Aggregate sanitize share over every victim tenant's p99 tail.
    pub fn victim_sanitize_share(&self) -> f64 {
        let mut agg = StormTenant {
            name: String::new(),
            requests: 0,
            p99: Nanos::ZERO,
            tail_blame_ns: [0; Stage::COUNT],
        };
        for t in self.storm.iter().filter(|t| t.name.starts_with("victim")) {
            for (a, b) in agg.tail_blame_ns.iter_mut().zip(t.tail_blame_ns) {
                *a += b;
            }
        }
        agg.sanitize_share()
    }

    /// All gate violations (empty = pass).
    pub fn violations(&self) -> Vec<String> {
        let mut v = self.doc(false).non_finite();
        for c in &self.qd_cells {
            if c.rows == 0 {
                v.push(format!("tiling: qd {} produced no anatomy rows", c.qd));
            }
            if c.tiling_violations > 0 {
                v.push(format!(
                    "tiling: {} of {} rows at qd {} break stage-sum == e2e",
                    c.tiling_violations, c.rows, c.qd
                ));
            }
        }
        if !self.device_neutral {
            v.push("neutrality: single-device simulated results moved with anatomy on".into());
        }
        if self.fleet_digests.0 != self.fleet_digests.1 {
            v.push(format!(
                "neutrality: fleet digest {:016x} with anatomy off != {:016x} with it on",
                self.fleet_digests.0, self.fleet_digests.1
            ));
        }
        let share = self.victim_sanitize_share();
        if share.is_nan() || share < GATE_MIN_SANITIZE_SHARE {
            v.push(format!(
                "blame: sanitize share of victim p99-tail interference {share:.3} \
                 below gate {GATE_MIN_SANITIZE_SHARE}"
            ));
        }
        v
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(out, "== Anatomy: per-request stage decomposition with blame ==").unwrap();
        writeln!(out, "{} requests/device, scale {}", self.requests, self.scale_name).unwrap();
        write!(out, "{:>5} {:>7} {:>9}", "qd", "rows", "tile_err").unwrap();
        for s in Stage::ALL {
            write!(out, " {:>20}", s.label()).unwrap();
        }
        writeln!(out).unwrap();
        for c in &self.qd_cells {
            write!(out, "{:>5} {:>7} {:>9}", c.qd, c.rows, c.tiling_violations).unwrap();
            for s in Stage::ALL {
                let share = if c.e2e_ns == 0 {
                    0.0
                } else {
                    100.0 * c.stage_ns[s.idx()] as f64 / c.e2e_ns as f64
                };
                write!(out, " {:>19.1}%", share).unwrap();
            }
            writeln!(out).unwrap();
        }
        writeln!(
            out,
            "neutrality: device {}, fleet {:016x} (off) vs {:016x} (on)",
            if self.device_neutral { "byte-identical" } else { "BROKEN" },
            self.fleet_digests.0,
            self.fleet_digests.1,
        )
        .unwrap();
        writeln!(out, "top {} slowest requests (qd 8):", self.top.len()).unwrap();
        for t in &self.top {
            writeln!(
                out,
                "  #{} {} e2e {:.1}us, dominant {}: {}",
                t.trace_id,
                t.kind,
                t.e2e.0 as f64 / 1e3,
                t.dominant,
                t.chain,
            )
            .unwrap();
        }
        writeln!(out, "storm fleet p99-tail blame (fifo, sanitize_storm neighbor):").unwrap();
        for t in &self.storm {
            writeln!(
                out,
                "  {:>10}: {:>6} reqs, p99 {:>10.1}us, sanitize share {:.3} \
                 (san {:.1}us, gc {:.1}us, retry {:.1}us)",
                t.name,
                t.requests,
                t.p99.0 as f64 / 1e3,
                t.sanitize_share(),
                t.tail_blame_ns[Stage::SanitizeInterference.idx()] as f64 / 1e3,
                t.tail_blame_ns[Stage::GcInterference.idx()] as f64 / 1e3,
                t.tail_blame_ns[Stage::RetryInterference.idx()] as f64 / 1e3,
            )
            .unwrap();
        }
        writeln!(
            out,
            "gate: victim sanitize share {:.3} (minimum {}), tiling+neutrality -> {}",
            self.victim_sanitize_share(),
            GATE_MIN_SANITIZE_SHARE,
            if self.violations().is_empty() { "PASS" } else { "FAIL" },
        )
        .unwrap();
        out
    }

    fn doc(&self, pass: bool) -> Obj {
        let stages = |ns: &[u64; Stage::COUNT]| {
            Stage::ALL.into_iter().fold(Obj::new(), |o, s| o.field(s.label(), ns[s.idx()]))
        };
        let gate = Obj::new()
            .field("min_sanitize_share", GATE_MIN_SANITIZE_SHARE)
            .field("victim_sanitize_share", self.victim_sanitize_share())
            .field("device_neutral", self.device_neutral)
            .field("fleet_neutral", self.fleet_digests.0 == self.fleet_digests.1)
            .field("pass", pass);
        let tiling = self.qd_cells.iter().map(|c| {
            Obj::new()
                .field("qd", c.qd)
                .field("rows", c.rows)
                .field("violations", c.tiling_violations)
                .field("e2e_ns", c.e2e_ns)
                .field("stage_ns", stages(&c.stage_ns))
        });
        let top = self.top.iter().map(|t| {
            Obj::new()
                .field("trace_id", t.trace_id)
                .field("kind", t.kind)
                .field("e2e_ns", t.e2e.0)
                .field("dominant", t.dominant)
                .field("chain", &t.chain)
        });
        let storm = self.storm.iter().map(|t| {
            Obj::new()
                .field("tenant", &t.name)
                .field("requests", t.requests)
                .field("p99_ns", t.p99.0)
                .field("sanitize_share", t.sanitize_share())
                .field("tail_blame_ns", stages(&t.tail_blame_ns))
        });
        Obj::new()
            .field("bench", "anatomy")
            .field("scale", &self.scale_name)
            .field("requests", self.requests)
            .field("gate", gate)
            .array("tiling", tiling)
            .array("top", top)
            .array("storm", storm)
    }

    /// Machine-readable JSON (`BENCH_anatomy.json`).
    pub fn to_json(&self) -> String {
        self.doc(self.violations().is_empty()).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_passes_every_gate_with_real_interference() {
        let b = run(&Scale::smoke(), "smoke");
        assert!(b.violations().is_empty(), "{:?}", b.violations());
        assert_eq!(b.qd_cells.len(), GATE_QDS.len());
        for c in &b.qd_cells {
            assert!(c.rows > 0);
            assert_eq!(c.tiling_violations, 0);
            // The decomposition is not degenerate: some time is service,
            // and at qd > 1 some is interference or waiting.
            assert!(c.stage_ns[Stage::ChipService.idx()] > 0, "qd {}: no service time", c.qd);
        }
        assert!(!b.top.is_empty(), "top-K digest is populated");
        assert!(
            b.storm.iter().any(|t| t.tail_blame_ns.iter().sum::<u64>() > 0),
            "storm blame is non-trivial"
        );
    }
}
