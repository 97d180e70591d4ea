//! The checkpointed aging campaign (`BENCH_campaign.json`).
//!
//! A campaign runs one long secure workload as a chain of *segments*,
//! serializing the complete device state to a checkpoint between
//! segments ([`Emulator::save_checkpoint`]) and rebuilding it from the
//! bytes before the next one ([`Emulator::restore_checkpoint`]) — the
//! way a multi-day aging study actually runs, with the process stopped
//! and restarted between sittings. Between segments the device "rests"
//! powered off: physical pAP/bAP flag cells lose charge
//! ([`Emulator::age_flags`]), so later segments see the paper's §5
//! retention-degraded flag margins on top of accumulated P/E wear.
//!
//! The sweep crosses the three aging axes of the paper's reliability
//! discussion: P/E wear (write volume per segment), `pLock` flag
//! success (per-command verify-failure probability plus physical flag
//! decay), and spare-reserve drift (erase failures retiring blocks
//! toward `SpareLow`/`ReadOnly`).
//!
//! **The gate:** every scenario is run twice — chained through
//! checkpoints, and uninterrupted in one process — and the two final
//! device states must be *byte-identical* (same checkpoint bytes, same
//! Prometheus scrape). Any divergence fails the `campaign` subcommand
//! with exit 1. The per-process segment mode (`--segment K`) is what CI
//! uses to prove the same equivalence across real process restarts.

use crate::scale::Scale;
use evanesco_core::bap::BapConfig;
use evanesco_core::pap::PapConfig;
use evanesco_ftl::config::FaultConfig;
use evanesco_ftl::observer::NullObserver;
use evanesco_ftl::SanitizePolicy;
use evanesco_nand::timing::Nanos;
use evanesco_ssd::jsonlite::Obj;
use evanesco_ssd::Emulator;
use evanesco_workloads::generate::generate;
use evanesco_workloads::replay::apply;
use evanesco_workloads::trace::Trace;
use evanesco_workloads::WorkloadSpec;
use std::fmt::Write as _;

/// One point of the aging sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgingScenario {
    /// Scenario name (CLI `--scenario` key).
    pub name: &'static str,
    /// Per-command `pLock` verify-failure probability (the fault-model
    /// axis of flag success; the physical axis is `rest_days`).
    pub plock_fail: f64,
    /// Erase-failure probability — each hard failure retires a block,
    /// draining the spare reserve toward `SpareLow`/`ReadOnly`.
    pub erase_fail: f64,
    /// Powered-off retention between segments, in days: pAP/bAP cells
    /// decay while the campaign process is stopped.
    pub rest_days: f64,
    /// Simulate physical flag cells (required for `rest_days` to bite).
    pub device_flags: bool,
}

/// The sweep grid: a pristine device, a mid-life device, and a worn
/// device near the end of the paper's 3-month retention window.
pub fn scenarios() -> [AgingScenario; 3] {
    [
        AgingScenario {
            name: "fresh",
            plock_fail: 0.0,
            erase_fail: 0.0,
            rest_days: 0.0,
            device_flags: false,
        },
        AgingScenario {
            name: "midlife",
            plock_fail: 0.05,
            erase_fail: 0.0,
            rest_days: 30.0,
            device_flags: true,
        },
        AgingScenario {
            name: "worn",
            plock_fail: 0.25,
            erase_fail: 0.005,
            rest_days: 90.0,
            device_flags: true,
        },
    ]
}

/// Looks up a scenario by its CLI name.
pub fn scenario_by_name(name: &str) -> Option<AgingScenario> {
    scenarios().into_iter().find(|s| s.name == name)
}

/// The scenario the per-segment CLI mode uses when `--scenario` is not
/// given: mid-life exercises flag aging and fault draws without the
/// worn scenario's runtime.
pub fn default_scenario() -> AgingScenario {
    scenario_by_name("midlife").expect("midlife is in the grid")
}

/// A fresh campaign device for `scenario`: the scale's SSD with the
/// scenario's fault axes dialed in, physical flags when requested, and
/// the telemetry ring armed so every segment emits windowed samples.
pub fn fresh_device(scale: &Scale, scenario: &AgingScenario) -> Emulator {
    let mut cfg = scale.ssd_config();
    cfg.ftl.faults = FaultConfig {
        plock_fail: scenario.plock_fail,
        erase_fail: scenario.erase_fail,
        seed: scale.seed ^ 0xA61B,
        ..FaultConfig::none()
    };
    let mut ssd = Emulator::new(cfg, SanitizePolicy::evanesco());
    if scenario.device_flags {
        ssd.enable_device_flags(PapConfig::paper(), BapConfig::paper(), scale.seed);
    }
    ssd.enable_gauges();
    ssd.enable_timeseries(Nanos::from_micros(500), 256);
    ssd
}

/// The campaign workload: the paper's most overwrite-heavy trace
/// (DBServer), regenerated deterministically by every process from
/// `(scale, logical space)` — segments slice it by op index, so no
/// trace state needs to travel in the checkpoint.
pub fn build_trace(scale: &Scale, logical_pages: u64) -> Trace {
    generate(
        &WorkloadSpec::db_server(),
        logical_pages,
        scale.main_write_pages(logical_pages),
        scale.seed,
    )
}

/// The measured-phase op range of segment `k` of `segments`.
fn bounds(total: usize, segments: usize, k: usize) -> (usize, usize) {
    (total * k / segments, total * (k + 1) / segments)
}

/// Runs segment `k` of `segments` on `ssd` (fresh for `k == 0`,
/// restored from the previous segment's checkpoint otherwise):
/// prefill on the first segment, the powered-off flag rest on later
/// ones, then this segment's slice of the measured phase, closing with
/// a telemetry sample so each segment contributes its own window.
pub fn run_segment(
    ssd: &mut Emulator,
    trace: &Trace,
    scenario: &AgingScenario,
    segments: usize,
    k: usize,
) {
    if k == 0 {
        for op in &trace.prefill {
            apply(ssd, &mut NullObserver, op);
        }
    } else {
        ssd.age_flags(scenario.rest_days)
            .expect("every scenario in the grid rests a finite, non-negative span");
    }
    let (lo, hi) = bounds(trace.ops.len(), segments, k);
    for op in &trace.ops[lo..hi] {
        apply(ssd, &mut NullObserver, op);
    }
    ssd.sample_timeseries_now();
}

/// What one segment looked like from the outside (cumulative counters
/// at its end).
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentDigest {
    /// Segment index.
    pub segment: usize,
    /// Host ops completed so far.
    pub host_ops: u64,
    /// Simulated clock at segment end (ns).
    pub sim_ns: u64,
    /// Telemetry windows closed so far.
    pub windows: u64,
    /// Block erases so far.
    pub erases: u64,
    /// Blocks retired to the grown-bad table so far.
    pub retired: u64,
    /// Degraded mode at segment end (`Normal`/`SpareLow`/`ReadOnly`).
    pub mode: String,
}

fn digest(ssd: &Emulator, segment: usize) -> SegmentDigest {
    let r = ssd.result();
    SegmentDigest {
        segment,
        host_ops: r.host_ops,
        sim_ns: r.sim_time.0,
        windows: ssd.timeseries().map_or(0, |t| t.total()),
        erases: r.erases,
        retired: r.ftl.retired_blocks,
        mode: format!("{:?}", ssd.ftl().degraded()),
    }
}

/// Runs the whole campaign for one scenario *through checkpoints*: each
/// segment runs on an emulator rebuilt from the previous segment's
/// serialized bytes, exactly as the per-process CLI mode does across
/// real restarts. Returns the final checkpoint, the final scrape, and
/// one digest per segment.
pub fn run_chained(
    scale: &Scale,
    scenario: &AgingScenario,
    segments: usize,
) -> (Vec<u8>, String, Vec<SegmentDigest>) {
    let trace = {
        let probe = fresh_device(scale, scenario);
        build_trace(scale, probe.logical_pages())
    };
    let mut bytes: Option<Vec<u8>> = None;
    let mut digests = Vec::with_capacity(segments);
    let mut scrape = String::new();
    for k in 0..segments {
        let mut ssd = match &bytes {
            None => fresh_device(scale, scenario),
            Some(b) => Emulator::restore_checkpoint(b)
                .expect("a checkpoint this process just wrote must restore"),
        };
        run_segment(&mut ssd, &trace, scenario, segments, k);
        digests.push(digest(&ssd, k));
        scrape = ssd.prometheus_scrape();
        bytes = Some(ssd.save_checkpoint());
    }
    (bytes.expect("segments >= 1"), scrape, digests)
}

/// The control arm: the same segments in one process, no serialization.
pub fn run_uninterrupted(
    scale: &Scale,
    scenario: &AgingScenario,
    segments: usize,
) -> (Vec<u8>, String, Vec<SegmentDigest>) {
    let mut ssd = fresh_device(scale, scenario);
    let trace = build_trace(scale, ssd.logical_pages());
    let mut digests = Vec::with_capacity(segments);
    for k in 0..segments {
        run_segment(&mut ssd, &trace, scenario, segments, k);
        digests.push(digest(&ssd, k));
    }
    (ssd.save_checkpoint(), ssd.prometheus_scrape(), digests)
}

/// One scenario's differential outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Final checkpoint bytes identical between the chained and
    /// uninterrupted arms.
    pub bytes_identical: bool,
    /// Final Prometheus scrapes identical.
    pub scrape_identical: bool,
    /// Per-segment digests identical at every boundary.
    pub digests_identical: bool,
    /// Chained arm's per-segment digests.
    pub segments: Vec<SegmentDigest>,
    /// Final checkpoint size in bytes.
    pub checkpoint_bytes: usize,
}

impl ScenarioReport {
    /// Whether this scenario's resume equivalence held.
    pub fn identical(&self) -> bool {
        self.bytes_identical && self.scrape_identical && self.digests_identical
    }
}

/// Everything `BENCH_campaign.json` serializes.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignBundle {
    /// Scale preset name.
    pub scale_name: String,
    /// Segments per campaign.
    pub segments: usize,
    /// One report per sweep scenario.
    pub reports: Vec<ScenarioReport>,
}

impl CampaignBundle {
    /// The gate: every scenario byte-identical, and every segment of
    /// every scenario closed at least one telemetry window.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for r in &self.reports {
            if !r.bytes_identical {
                v.push(format!("scenario '{}': final checkpoints differ", r.name));
            }
            if !r.scrape_identical {
                v.push(format!("scenario '{}': final Prometheus scrapes differ", r.name));
            }
            if !r.digests_identical {
                v.push(format!("scenario '{}': a segment boundary diverged", r.name));
            }
            if let Some(d) = r.segments.last() {
                if d.windows < self.segments as u64 {
                    v.push(format!(
                        "scenario '{}': {} windows over {} segments",
                        r.name, d.windows, self.segments
                    ));
                }
            }
        }
        v
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "== Checkpointed aging campaign (scale {}, {} segments) ==",
            self.scale_name, self.segments
        )
        .unwrap();
        for r in &self.reports {
            writeln!(
                out,
                "\nscenario {:<8} checkpoint {} B -> {}",
                r.name,
                r.checkpoint_bytes,
                if r.identical() { "IDENTICAL" } else { "DIVERGED" },
            )
            .unwrap();
            writeln!(
                out,
                "{:>4} {:>10} {:>14} {:>8} {:>8} {:>8}  mode",
                "seg", "host_ops", "sim_ns", "windows", "erases", "retired"
            )
            .unwrap();
            for d in &r.segments {
                writeln!(
                    out,
                    "{:>4} {:>10} {:>14} {:>8} {:>8} {:>8}  {}",
                    d.segment, d.host_ops, d.sim_ns, d.windows, d.erases, d.retired, d.mode
                )
                .unwrap();
            }
        }
        let v = self.violations();
        if v.is_empty() {
            writeln!(out, "\nresume equivalence: PASS (all scenarios byte-identical)").unwrap();
        } else {
            for msg in &v {
                writeln!(out, "\nresume equivalence FAILED: {msg}").unwrap();
            }
        }
        out
    }

    fn doc(&self, pass: bool) -> Obj {
        let scenarios = self.reports.iter().map(|r| {
            let segments = r.segments.iter().map(|d| {
                Obj::new()
                    .field("segment", d.segment)
                    .field("host_ops", d.host_ops)
                    .field("sim_ns", d.sim_ns)
                    .field("windows", d.windows)
                    .field("erases", d.erases)
                    .field("retired", d.retired)
                    .field("mode", &d.mode)
            });
            Obj::new()
                .field("name", &r.name)
                .field("identical", r.identical())
                .field("bytes_identical", r.bytes_identical)
                .field("scrape_identical", r.scrape_identical)
                .field("checkpoint_bytes", r.checkpoint_bytes)
                .array("segments", segments)
        });
        Obj::new()
            .field("bench", "campaign")
            .field("scale", &self.scale_name)
            .field("segments", self.segments)
            .array("scenarios", scenarios)
            .field("pass", pass)
    }

    /// Machine-readable JSON (`BENCH_campaign.json`).
    pub fn to_json(&self) -> String {
        self.doc(self.violations().is_empty()).render()
    }
}

/// Runs the full differential sweep: every scenario, chained vs
/// uninterrupted.
pub fn run(scale: &Scale, scale_name: &str) -> CampaignBundle {
    run_with_segments(scale, scale_name, 3)
}

/// [`run`] with an explicit segment count.
pub fn run_with_segments(scale: &Scale, scale_name: &str, segments: usize) -> CampaignBundle {
    let reports = scenarios()
        .iter()
        .map(|sc| {
            let (chained, chained_scrape, chained_digests) = run_chained(scale, sc, segments);
            let (base, base_scrape, base_digests) = run_uninterrupted(scale, sc, segments);
            ScenarioReport {
                name: sc.name.to_string(),
                bytes_identical: chained == base,
                scrape_identical: chained_scrape == base_scrape,
                digests_identical: chained_digests == base_digests,
                checkpoint_bytes: chained.len(),
                segments: chained_digests,
            }
        })
        .collect();
    CampaignBundle { scale_name: scale_name.to_string(), segments, reports }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evanesco_ssd::jsonlite::Json;

    #[test]
    fn smoke_campaign_is_resume_equivalent() {
        let b = run_with_segments(&Scale::smoke(), "smoke", 2);
        assert!(b.violations().is_empty(), "{:?}", b.violations());
        for r in &b.reports {
            assert!(r.identical(), "scenario {} diverged", r.name);
            assert_eq!(r.segments.len(), 2);
            // Aging + fault scenarios genuinely ran work.
            let last = r.segments.last().unwrap();
            assert!(last.host_ops > 0 && last.erases > 0, "{last:?}");
        }
        // The worn scenario's fault axis actually injected failures, so
        // the equivalence covered live fault-draw streams.
        let worn = b.reports.iter().find(|r| r.name == "worn").unwrap();
        assert!(worn.segments.last().unwrap().sim_ns > 0);
    }

    #[test]
    fn divergence_is_reported_not_swallowed() {
        let mut b = run_with_segments(&Scale::smoke(), "smoke", 2);
        b.reports[0].bytes_identical = false;
        assert!(b.violations().iter().any(|v| v.contains("checkpoints differ")));
        assert!(b.to_json().contains("\"pass\": false"));
        // Nor can a hostile scenario name break the artifact.
        b.reports[0].name = "quo\"te\n".into();
        let doc = Json::parse(&b.to_json()).expect("every string is escaped");
        let scenario = &doc.get("scenarios").unwrap().as_arr().unwrap()[0];
        assert_eq!(scenario.get("name").and_then(Json::as_str), Some("quo\"te\n"));
    }

    #[test]
    fn segment_bounds_partition_the_trace() {
        for total in [0usize, 1, 7, 100] {
            for segments in [1usize, 2, 3, 5] {
                let mut covered = 0;
                for k in 0..segments {
                    let (lo, hi) = bounds(total, segments, k);
                    assert!(lo <= hi && hi <= total);
                    covered += hi - lo;
                }
                assert_eq!(covered, total, "{total} ops over {segments} segments");
            }
        }
    }
}
