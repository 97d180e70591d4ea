//! The five workloads. Each one says how to set up fresh inputs and
//! devices from a seed, what its timed region is, and how to verify a run
//! from outside (oracle, leak sweep, exact latencies) without a timer on.
//!
//! Sizes are fixed so one repetition takes roughly 0.4–1 s on the 2-core
//! sandbox; `--seconds` only decides how many repetitions are timed.

use crate::oracle::Shadow;
use crate::traces;
use evanesco_core::bap::BapConfig;
use evanesco_core::pap::PapConfig;
use evanesco_fleet::{admission_order, run_fleet, FleetConfig, QosMode, TenantQos};
use evanesco_ftl::config::WriteAlloc;
use evanesco_ftl::observer::NullObserver;
use evanesco_ftl::{DecisionLevel, SanitizePolicy};
use evanesco_nand::geometry::Geometry;
use evanesco_nand::timing::Nanos;
use evanesco_ssd::{DeadlineConfig, Emulator, HostOp, OpResult, RunResult, SchedRun, SsdConfig};
use evanesco_workloads::replay::replay;
use evanesco_workloads::{generate_fleet, TenantOp, Trace, TraceOp, TrafficConfig, WorkloadSpec};

/// Workload names, in the order every listing uses.
pub const NAMES: [&str; 5] =
    ["sanitize_churn", "read_deep", "table2_policies", "observed_churn", "fleet_storm"];

/// The exact outcome of one repetition's timed region. Everything here is
/// simulated or counted, so every repetition of a run — and the verify
/// pass — must produce the same value bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sim {
    /// Host pages the timed region executed (numerator of
    /// `host_pages_per_s`).
    pub host_pages: u64,
    /// Host pages and simulated nanoseconds of the measured phase
    /// (`sim_iops`); differs from `host_pages` only where the timed
    /// region also preconditions (`table2_policies`).
    pub sim_pages: u64,
    pub sim_ns: u64,
}

impl Sim {
    pub fn iops(&self) -> f64 {
        self.sim_pages as f64 / (self.sim_ns as f64 / 1e9)
    }
}

/// What the untimed verify pass adds to [`Sim`].
#[derive(Debug, Clone)]
pub struct Verified {
    pub sim: Sim,
    /// `sim_iops` of the same inputs under `SanitizePolicy::none()`.
    pub nosan_iops: f64,
    /// NAND programs and host write pages of the measured phase (`sim_waf`).
    pub nand_programs: u64,
    pub host_write_pages: u64,
    /// Per-request simulated latency of the measured phase, and the
    /// subset belonging to trims (unsorted).
    pub lat_ns: Vec<u64>,
    pub trim_lat_ns: Vec<u64>,
    pub oracle: Tally,
    /// Human-readable findings printed with the result.
    pub notes: Vec<String>,
}

/// What the oracle found, summed over every device a verify pass drove.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Host requests checked against the shadow, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Dead secure tags a chip-level attacker can still read, of how many
    /// the sweep looked for.
    pub leak_pages: u64,
    pub dead_secure_tags: u64,
}

impl Tally {
    /// Adds one device's oracle; `owes_contract` is false only under
    /// `SanitizePolicy::none()`, where dead secure data is readable by
    /// design and the leak sweep does not apply.
    fn absorb(&mut self, ssd: &mut Emulator, shadow: &Shadow, owes_contract: bool) {
        self.attempted += shadow.attempted;
        self.failed += shadow.failed;
        if owes_contract {
            self.leak_pages += leak_sweep(ssd, shadow);
            self.dead_secure_tags += shadow.dead_secure_tags() as u64;
        }
    }
}

pub trait Workload {
    /// Fresh inputs and devices for one repetition.
    type Prepared;
    /// Everything before the timed region: trace generation, device
    /// construction, preconditioning. Its wall time is `setup_s`.
    fn prepare(&self, seed: u64) -> Self::Prepared;
    /// The timed region. Collects nothing per request.
    fn measure(&self, p: Self::Prepared) -> Sim;
    /// One extra untimed pass that collects per-request results.
    fn verify(&self, seed: u64) -> Verified;
}

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

/// Requests per `run_scheduled` call: 2 M requests unchunked held 251 MiB
/// of `SchedRun` vectors.
pub const CHUNK: usize = 65_536;

/// Utilization above which a workload measures GC thrash, not itself (a
/// 100 % fill at `scaled(12)` gave WAF 190 and 35 simulated IOPS). The
/// slack covers `workloads::generate` overshooting its 75 % target by
/// the last file it creates.
pub const MAX_UTILIZATION: f64 = 0.76;

pub fn assert_utilization(ssd: &Emulator) {
    let u = ssd.ftl().live_pages() as f64 / ssd.logical_pages() as f64;
    assert!(u <= MAX_UTILIZATION, "utilization {u:.3} before the timed region exceeds the guard");
}

/// The device of the three single-device scheduled workloads: paper block
/// shape, 2 channels × 4 chips, channel-interleaved allocation, lock
/// coalescing with a window wide enough to promote a hot sweep's dead
/// block to one `bLock`.
pub fn churn_config() -> SsdConfig {
    let mut cfg = SsdConfig::scaled(12);
    cfg.ftl.write_alloc = WriteAlloc::ChannelInterleaved;
    cfg.ftl.lock_coalescing = true;
    cfg.ftl.coalesce_window = 1024;
    cfg
}

pub fn device(cfg: SsdConfig, policy: SanitizePolicy, flags: bool, seed: u64) -> Emulator {
    let mut ssd = Emulator::new(cfg, policy);
    if flags {
        ssd.enable_device_flags(PapConfig::paper(), BapConfig::paper(), seed);
    }
    ssd
}

/// Closed loop at `qd`, fed in [`CHUNK`]-request slices; `sink` sees each
/// slice with its results.
pub fn run_chunked(
    ssd: &mut Emulator,
    ops: &[HostOp],
    qd: usize,
    mut sink: impl FnMut(&[HostOp], &SchedRun),
) {
    for chunk in ops.chunks(CHUNK) {
        // Each call starts a new scheduler whose submission clock is zero,
        // which would charge the whole run so far to the first `qd`
        // requests of every later chunk; flooring arrivals at the device
        // clock keeps `completions − submits` a latency.
        let floor = vec![ssd.device().simulated_time(); chunk.len()];
        let run = ssd.run_scheduled_open_loop(&mut NullObserver, chunk, &floor, qd);
        sink(chunk, &run);
    }
}

/// Runs `ops` and the closing lock flush; returns what the phase cost
/// and the device's counters over it.
fn scheduled_phase(
    ssd: &mut Emulator,
    ops: &[HostOp],
    qd: usize,
    sink: impl FnMut(&[HostOp], &SchedRun),
) -> (Sim, RunResult) {
    let before = ssd.result();
    run_chunked(ssd, ops, qd, sink);
    ssd.flush_coalesced_locks();
    let r = ssd.result().since(&before);
    let pages = traces::pages(ops);
    (Sim { host_pages: pages, sim_pages: pages, sim_ns: r.sim_time.0 }, r)
}

/// Replays a scheduled slice's results on the oracle.
pub fn check_results(shadow: &mut Shadow, ops: &[HostOp], run: &SchedRun) {
    ops.iter().zip(&run.results).for_each(|(op, r)| shadow.apply(op, r));
}

/// Collects a scheduled slice's per-request latencies.
fn collect_latencies(lat: &mut Vec<u64>, trim_lat: &mut Vec<u64>, ops: &[HostOp], run: &SchedRun) {
    for (i, op) in ops.iter().enumerate() {
        let l = run.completions[i].0 - run.submits[i].0;
        lat.push(l);
        if matches!(op, HostOp::Trim { .. }) {
            trim_lat.push(l);
        }
    }
}

/// The leak sweep: settle deferred locks, then intersect what a
/// chip-level attacker can read with the oracle's dead secure tags.
pub fn leak_sweep(ssd: &mut Emulator, shadow: &Shadow) -> u64 {
    ssd.flush_coalesced_locks();
    shadow.leaks(&ssd.attacker_recoverable_tags())
}

/// Start value of [`results_digest`] (the FNV-1a offset basis).
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: u64, v: u64) -> u64 {
    v.to_le_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Digest of host-visible results, for "every step agrees" checks.
pub fn results_digest(h: u64, results: &[OpResult]) -> u64 {
    results.iter().fold(h, |h, r| match r {
        OpResult::Write(tags, ack) => {
            tags.iter().fold(fnv(fnv(h, 1), u64::from(*ack)), |h, &t| fnv(h, t))
        }
        OpResult::Read(got) => got.iter().fold(fnv(h, 2), |h, g| fnv(h, g.map_or(0, |t| t + 1))),
        OpResult::Trim(ack) => fnv(fnv(h, 3), u64::from(*ack)),
        OpResult::TimedOut => fnv(h, 4),
    })
}

// ---------------------------------------------------------------------
// sanitize_churn, read_deep, observed_churn
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// [`traces::churn`] on an empty device.
    Churn,
    /// [`traces::read_mostly`] over a 75 % insecure prefill.
    ReadMostly,
}

/// A closed-loop scheduled workload on the [`churn_config`] device with
/// physical pAP/bAP flags on and policy `evanesco`.
#[derive(Debug, Clone, Copy)]
pub struct Scheduled {
    pub mix: Mix,
    pub requests: usize,
    pub qd: usize,
    /// Attach every observer: anatomy (which implies tracing), gauges,
    /// timeseries, decision log and the watchdog at stall rate 0. The
    /// chaos guard stays off: at this geometry it costs ~1000× and would
    /// be the whole number (priced as `ftl.guard.cost_ratio`).
    pub observed: bool,
}

pub const SANITIZE_CHURN: Scheduled =
    Scheduled { mix: Mix::Churn, requests: 320_000, qd: 8, observed: false };
pub const READ_DEEP: Scheduled =
    Scheduled { mix: Mix::ReadMostly, requests: 200_000, qd: 32, observed: false };
/// The first requests of `sanitize_churn`'s trace, observed.
pub const OBSERVED_CHURN: Scheduled =
    Scheduled { mix: Mix::Churn, requests: 60_000, qd: 8, observed: true };

pub struct SchedPrepared {
    ssd: Emulator,
    ops: Vec<HostOp>,
}

/// Attaches one observer to a device; the second argument is the seed.
pub type Attach = fn(&mut Emulator, u64);

/// The six observers, each under the name of the per-layer metric that
/// prices it. `observed_churn` attaches all of them; the ladder attaches
/// one at a time.
pub const OBSERVERS: [(&str, Attach); 6] = [
    ("ssd.obs.tracing.cost_ratio", |ssd, _| {
        ssd.enable_tracing(65_536);
    }),
    ("ssd.obs.anatomy.cost_ratio", |ssd, _| {
        ssd.enable_anatomy(65_536, 16);
    }),
    ("ssd.obs.gauges.cost_ratio", |ssd, _| {
        ssd.enable_gauges();
    }),
    ("ssd.obs.timeseries.cost_ratio", |ssd, _| {
        ssd.enable_timeseries(Nanos::from_micros(100_000), 1024);
    }),
    ("ssd.obs.watchdog.cost_ratio", |ssd, seed| {
        ssd.enable_watchdog(DeadlineConfig::for_tests(seed, 0.0));
    }),
    ("ssd.obs.decision_log.cost_ratio", |ssd, _| {
        ssd.enable_decision_log(65_536, DecisionLevel::Info);
    }),
];

impl Scheduled {
    /// The prefill (empty for the churn mix) and the measured trace.
    pub fn ops(&self, seed: u64) -> (Vec<HostOp>, Vec<HostOp>) {
        let logical = churn_config().ftl.logical_pages();
        match self.mix {
            Mix::Churn => (Vec::new(), traces::churn(logical, self.requests, seed)),
            Mix::ReadMostly => {
                let filled = logical * 3 / 4;
                (traces::fill(filled), traces::read_mostly(filled, self.requests, seed))
            }
        }
    }

    fn build(
        &self,
        seed: u64,
        policy: SanitizePolicy,
        observed: bool,
        sink: impl FnMut(&[HostOp], &SchedRun),
    ) -> SchedPrepared {
        let (prefill, ops) = self.ops(seed);
        let mut ssd = device(churn_config(), policy, true, seed);
        if observed {
            OBSERVERS.iter().for_each(|(_, attach)| attach(&mut ssd, seed));
        }
        run_chunked(&mut ssd, &prefill, self.qd, sink);
        assert_utilization(&ssd);
        SchedPrepared { ssd, ops }
    }

    /// One instrumented pass: oracle over prefill and trace, latencies of
    /// the trace, leak sweep, results digest.
    fn checked_pass(&self, seed: u64, observed: bool) -> Pass {
        let mut shadow = Shadow::new(churn_config().ftl.logical_pages());
        let mut p = self.build(seed, SanitizePolicy::evanesco(), observed, |ops, run| {
            check_results(&mut shadow, ops, run)
        });
        let (mut lat_ns, mut trim_lat_ns) = (Vec::new(), Vec::new());
        let (mut digest, mut max_outstanding) = (DIGEST_SEED, 0);
        let (sim, counters) = scheduled_phase(&mut p.ssd, &p.ops, self.qd, |ops, run| {
            check_results(&mut shadow, ops, run);
            collect_latencies(&mut lat_ns, &mut trim_lat_ns, ops, run);
            digest = results_digest(digest, &run.results);
            max_outstanding = max_outstanding.max(run.max_outstanding);
        });
        let mut oracle = Tally::default();
        oracle.absorb(&mut p.ssd, &shadow, true);
        p.ssd.finalize_anatomy();
        Pass { ssd: p.ssd, sim, counters, oracle, lat_ns, trim_lat_ns, digest, max_outstanding }
    }
}

/// Everything one instrumented pass of a scheduled workload yields.
struct Pass {
    ssd: Emulator,
    sim: Sim,
    /// Device counters over the measured phase.
    counters: RunResult,
    oracle: Tally,
    lat_ns: Vec<u64>,
    trim_lat_ns: Vec<u64>,
    digest: u64,
    max_outstanding: usize,
}

impl Workload for Scheduled {
    type Prepared = SchedPrepared;

    fn prepare(&self, seed: u64) -> SchedPrepared {
        self.build(seed, SanitizePolicy::evanesco(), self.observed, |_, _| {})
    }

    fn measure(&self, mut p: SchedPrepared) -> Sim {
        scheduled_phase(&mut p.ssd, &p.ops, self.qd, |_, _| {}).0
    }

    fn verify(&self, seed: u64) -> Verified {
        let pass = self.checked_pass(seed, self.observed);
        let mut notes = Vec::new();
        if self.observed {
            // Timing neutrality: the same requests unobserved must give
            // the same simulated outcome and the same results.
            let bare = self.checked_pass(seed, false);
            assert_eq!(pass.sim, bare.sim, "observers moved the simulated outcome");
            assert_eq!(pass.digest, bare.digest, "observers changed host-visible results");
            assert_eq!(pass.lat_ns, bare.lat_ns, "observers moved a request's latency");
            notes.push(format!(
                "timing neutrality: all {} request latencies, sim time and results digest equal \
                 the unobserved run of the same requests",
                pass.lat_ns.len()
            ));
            let tr = pass.ssd.trace().expect("anatomy implies tracing");
            let an = pass.ssd.anatomy().expect("anatomy enabled");
            let retained = (tr.traces().count() as u64, an.rows().count() as u64);
            assert_eq!(tr.recorded(), retained.0 + tr.dropped(), "trace ring accounting");
            assert_eq!(an.recorded(), retained.1 + an.dropped(), "anatomy ring accounting");
            let wd = pass.ssd.watchdog_stats().expect("watchdog enabled");
            assert!(wd.reconciles(), "watchdog scoreboard");
            notes.push(format!(
                "observers: trace recorded {} dropped {}; anatomy recorded {} dropped {}; \
                 decision log {} records; timeseries {} windows",
                tr.recorded(),
                tr.dropped(),
                an.recorded(),
                an.dropped(),
                pass.ssd.decision_log().total(),
                pass.ssd.timeseries().map_or(0, |t| t.total()),
            ));
        }
        let nosan = self.measure(self.build(seed, SanitizePolicy::none(), false, |_, _| {}));
        let r = pass.counters;
        notes.push(format!(
            "device: {} pLocks, {} bLocks, {} erases, {} GC copies, peak outstanding {}",
            r.plocks, r.blocks_locked, r.erases, r.ftl.copied_pages, pass.max_outstanding
        ));
        Verified {
            sim: pass.sim,
            nosan_iops: nosan.iops(),
            nand_programs: r.ftl.nand_programs,
            host_write_pages: r.ftl.host_write_pages,
            lat_ns: pass.lat_ns,
            trim_lat_ns: pass.trim_lat_ns,
            oracle: pass.oracle,
            notes,
        }
    }
}

// ---------------------------------------------------------------------
// table2_policies
// ---------------------------------------------------------------------

/// The Figure 14 path: the four Table-2 traces, each replayed through the
/// serialized `write_with` / `read` / `trim_with` family under four
/// policies, ideal flags, GC at 75 % utilization. erSSD is left out of
/// the timed region (WAF in the hundreds: it would be the whole number)
/// and priced as `ftl.policy.erase.host_ns_per_page`.
#[derive(Debug, Clone, Copy)]
pub struct Table2;

/// Blocks per chip of the replay device (the paper's is 428; the driver's
/// time budget allows 12).
const TABLE2_BLOCKS_PER_CHIP: u32 = 12;

/// Measured write volume as a multiple of logical capacity (paper: 2).
const TABLE2_WRITE_MULTIPLIER: u64 = 2;

/// Paper Figure 14(a): secSSD reaches 94.5 % of the baseline's IOPS.
pub const PAPER_IOPS_VS_NOSAN: f64 = 0.945;

pub fn table2_policies() -> [SanitizePolicy; 4] {
    [
        SanitizePolicy::none(),
        SanitizePolicy::evanesco(),
        SanitizePolicy::evanesco_no_block(),
        SanitizePolicy::scrub(),
    ]
}

/// Pooled outcome of the replays of one policy.
#[derive(Debug, Clone, Copy, Default)]
struct Pooled {
    pages: u64,
    ns: u64,
    programs: u64,
    writes: u64,
}

impl Pooled {
    fn add(&mut self, r: &RunResult) {
        self.pages += r.host_ops;
        self.ns += r.sim_time.0;
        self.programs += r.ftl.nand_programs;
        self.writes += r.ftl.host_write_pages;
    }
}

fn table2_sim(host_pages: u64, evanesco: Pooled) -> Sim {
    Sim { host_pages, sim_pages: evanesco.pages, sim_ns: evanesco.ns }
}

impl Table2 {
    pub fn config(&self) -> SsdConfig {
        SsdConfig::scaled(TABLE2_BLOCKS_PER_CHIP)
    }

    pub fn traces(&self, seed: u64) -> Vec<Trace> {
        let logical = self.config().ftl.logical_pages();
        WorkloadSpec::table2()
            .iter()
            .map(|spec| {
                evanesco_workloads::generate::generate(
                    spec,
                    logical,
                    logical * TABLE2_WRITE_MULTIPLIER,
                    seed,
                )
            })
            .collect()
    }
}

/// A trace op in scheduler vocabulary (file ids and overwrite hints are
/// for replay observers; the device never sees them).
pub fn host_op(op: &TraceOp) -> HostOp {
    match *op {
        TraceOp::Write { lpa, npages, secure, .. } => HostOp::Write { lpa, npages, secure },
        TraceOp::Read { lpa, npages } => HostOp::Read { lpa, npages },
        TraceOp::Trim { lpa, npages, .. } => HostOp::Trim { lpa, npages },
    }
}

/// Applies one trace op through the serialized host path, as `replay`
/// does, and returns the request with its result.
pub fn apply_serialized(ssd: &mut Emulator, op: &TraceOp) -> (HostOp, OpResult) {
    let op = host_op(op);
    let result = match op {
        HostOp::Write { lpa, npages, secure } => {
            let (tags, acks): (Vec<u64>, Vec<bool>) =
                ssd.write_tracked(lpa, npages, secure).into_iter().unzip();
            OpResult::Write(tags, acks.iter().all(|&a| a))
        }
        HostOp::Read { lpa, npages } => OpResult::Read(ssd.read(lpa, npages)),
        HostOp::Trim { lpa, npages } => {
            OpResult::Trim(ssd.trim_with(&mut NullObserver, lpa, npages))
        }
    };
    (op, result)
}

impl Workload for Table2 {
    type Prepared = Vec<Trace>;

    fn prepare(&self, seed: u64) -> Vec<Trace> {
        self.traces(seed)
    }

    fn measure(&self, traces: Vec<Trace>) -> Sim {
        let (mut host_pages, mut evanesco) = (0, Pooled::default());
        for trace in &traces {
            for policy in table2_policies() {
                let mut ssd = Emulator::new(self.config(), policy);
                let r = replay(&mut ssd, trace);
                host_pages += ssd.result().host_ops;
                if policy == SanitizePolicy::evanesco() {
                    evanesco.add(&r);
                }
            }
        }
        table2_sim(host_pages, evanesco)
    }

    fn verify(&self, seed: u64) -> Verified {
        let (mut host_pages, mut evanesco, mut nosan) = (0, Pooled::default(), Pooled::default());
        let (mut lat_ns, mut trim_lat_ns) = (Vec::new(), Vec::new());
        let mut oracle = Tally::default();
        let mut notes = Vec::new();
        for trace in &self.traces(seed) {
            let mut iops = Vec::new();
            for policy in table2_policies() {
                let measured = policy == SanitizePolicy::evanesco();
                let mut ssd = Emulator::new(self.config(), policy);
                let mut shadow = Shadow::new(ssd.logical_pages());
                for op in &trace.prefill {
                    let (op, res) = apply_serialized(&mut ssd, op);
                    shadow.apply(&op, &res);
                }
                assert_utilization(&ssd);
                let baseline = ssd.result();
                for op in &trace.ops {
                    let before = ssd.device().simulated_time();
                    let (op, res) = apply_serialized(&mut ssd, op);
                    shadow.apply(&op, &res);
                    if measured {
                        let l = ssd.device().simulated_time().0 - before.0;
                        lat_ns.push(l);
                        if matches!(op, HostOp::Trim { .. }) {
                            trim_lat_ns.push(l);
                        }
                    }
                }
                let r = ssd.result().since(&baseline);
                host_pages += ssd.result().host_ops;
                iops.push(r.iops);
                if measured {
                    evanesco.add(&r);
                }
                if policy == SanitizePolicy::none() {
                    nosan.add(&r);
                }
                oracle.absorb(&mut ssd, &shadow, policy.is_immediate());
            }
            notes.push(format!(
                "{:<10} sim IOPS vs baseline: secSSD {:.4}, secSSD_nobLock {:.4}, scrSSD {:.4}",
                trace.name,
                iops[1] / iops[0],
                iops[2] / iops[0],
                iops[3] / iops[0]
            ));
        }
        let nosan_iops = nosan.pages as f64 / (nosan.ns as f64 / 1e9);
        let sim = table2_sim(host_pages, evanesco);
        let ratio = sim.iops() / nosan_iops;
        notes.push(format!(
            "pooled secSSD/baseline sim IOPS {ratio:.4}; paper Figure 14(a) reports \
             {PAPER_IOPS_VS_NOSAN} (absolute error {:.4}). That one figure is the only reference: \
             the timing model is otherwise unvalidated.",
            (ratio - PAPER_IOPS_VS_NOSAN).abs()
        ));
        Verified {
            sim,
            nosan_iops,
            nand_programs: evanesco.programs,
            host_write_pages: evanesco.writes,
            lat_ns,
            trim_lat_ns,
            oracle,
            notes,
        }
    }
}

// ---------------------------------------------------------------------
// fleet_storm
// ---------------------------------------------------------------------

/// `fleet::run_fleet`: 4 devices over 2 shards, qd 8, one sanitize-storm
/// tenant plus 3 victims, shaped QoS with the storm token-limited. Open
/// loop in simulated time at a fixed mean arrival rate.
///
/// The devices are four times the churn device and the run ends before a
/// namespace has been written over, so GC never starts: `run_fleet` builds
/// fresh devices itself and cannot be preconditioned, and a run that
/// crosses the point where GC starts measures that step (victim p99 goes
/// from 1.3 ms to 300 ms at any rate), not the fleet layer. GC belongs to
/// `sanitize_churn` and `table2_policies`.
#[derive(Debug, Clone, Copy)]
pub struct FleetStorm {
    pub requests_per_device: usize,
}

pub const FLEET_STORM: FleetStorm = FleetStorm { requests_per_device: 100_000 };

/// Mean arrivals per device per second. The fleet's admission control
/// models the device as draining `1e9 / drain_ns_per_page` ≈ 11 000
/// pages/s and orders admissions against that clock, so that — not the
/// emulated device, which sustains ~58 000 pages/s of this mix — is the
/// rate the fleet saturates at: offered above it, the storm's sojourn
/// grows without bound. 600 requests/s of this mix offer ≈ 6 500 pages/s,
/// about 60 % of it. (The product default of 30 000 is 50× saturation.)
pub const FLEET_RATE_PER_SEC: f64 = 600.0;

/// Storm tenant's token bucket, pages per second and burst: above its mean
/// offered rate (≈ 6 300 pages/s) and below its diurnal peak (≈ 9 400), so
/// shaping bites at every peak and the bucket drains in every trough.
pub const STORM_LIMIT: (u64, u64) = (8_000, 64);

impl FleetStorm {
    pub fn config(&self, seed: u64, policy: SanitizePolicy) -> FleetConfig {
        let mut traffic = TrafficConfig::sanitize_storm(3, self.requests_per_device, seed);
        traffic.base_rate_per_sec = FLEET_RATE_PER_SEC;
        let mut cfg = FleetConfig::noisy_neighbor_demo(4, 3, self.requests_per_device, seed);
        cfg.ssd = churn_config();
        cfg.ssd.ftl.geometry = Geometry::paper_tlc_with_blocks(48);
        cfg.policy = policy;
        cfg.traffic = traffic;
        cfg.qos = vec![TenantQos::unlimited(); 4];
        cfg.qos[0] = TenantQos::limited(1, STORM_LIMIT.0, STORM_LIMIT.1);
        cfg.mode = QosMode::Shaped;
        cfg.shards = 2;
        cfg.qd = 8;
        cfg.anatomy = false;
        cfg
    }
}

fn rebase(op: HostOp, base: u64) -> HostOp {
    match op {
        HostOp::Write { lpa, npages, secure } => HostOp::Write { lpa: lpa + base, npages, secure },
        HostOp::Read { lpa, npages } => HostOp::Read { lpa: lpa + base, npages },
        HostOp::Trim { lpa, npages } => HostOp::Trim { lpa: lpa + base, npages },
    }
}

/// One device's admitted stream, as `fleet::run_device` builds it:
/// `(trace index, rebased op, shaped release)` in admission order.
pub fn admitted(cfg: &FleetConfig, trace: &[TenantOp]) -> (Vec<usize>, Vec<HostOp>, Vec<Nanos>) {
    let window = cfg.namespace_window();
    let admission = admission_order(trace, &cfg.qos, cfg.mode, cfg.drain_ns_per_page());
    let idx = admission.iter().map(|a| a.trace_idx).collect();
    let ops = admission
        .iter()
        .map(|a| rebase(trace[a.trace_idx].op, trace[a.trace_idx].tenant as u64 * window))
        .collect();
    (idx, ops, admission.iter().map(|a| a.shaped).collect())
}

pub struct FleetPrepared {
    cfg: FleetConfig,
    /// Pages the generated traffic offers, to check the report against.
    offered_pages: u64,
}

fn fleet_sim(report: &evanesco_fleet::FleetReport) -> Sim {
    let pages = report.tenants.iter().map(|t| t.pages).sum();
    // The fleet finishes when its slowest device does.
    let sim_ns = report.devices.iter().map(|d| d.sim_time.0).max().expect("devices");
    Sim { host_pages: pages, sim_pages: pages, sim_ns }
}

impl Workload for FleetStorm {
    type Prepared = FleetPrepared;

    fn prepare(&self, seed: u64) -> FleetPrepared {
        let cfg = self.config(seed, SanitizePolicy::evanesco());
        cfg.validate();
        let offered = generate_fleet(&cfg.traffic, cfg.devices, cfg.namespace_window());
        let offered_pages = offered.iter().flatten().map(|r| r.op.npages()).sum();
        FleetPrepared { cfg, offered_pages }
    }

    fn measure(&self, p: FleetPrepared) -> Sim {
        let report = run_fleet(&p.cfg);
        let sim = fleet_sim(&report);
        assert_eq!(sim.host_pages, p.offered_pages, "the fleet attributes every offered page");
        sim
    }

    fn verify(&self, seed: u64) -> Verified {
        let cfg = self.config(seed, SanitizePolicy::evanesco());
        let report = run_fleet(&cfg);
        let one_shard = run_fleet(&FleetConfig { shards: 1, ..cfg.clone() });
        assert_eq!(report.fleet_digest, one_shard.fleet_digest, "digest depends on shard count");

        // Re-drive every device single-threaded, outside the fleet
        // runner, to get what its report does not carry: per-request
        // results for the oracle, exact latencies, and FTL counters.
        let traces = generate_fleet(&cfg.traffic, cfg.devices, cfg.namespace_window());
        let (mut lat_ns, mut trim_lat_ns) = (Vec::new(), Vec::new());
        let mut oracle = Tally::default();
        let (mut programs, mut writes) = (0, 0);
        let mut sojourn_by_tenant = vec![0u64; cfg.tenant_count()];
        let mut worst_backlog: f64 = 0.0;
        for (d, trace) in traces.iter().enumerate() {
            let (idx, ops, shaped) = admitted(&cfg, trace);
            let mut ssd = Emulator::new(cfg.ssd, cfg.policy);
            let run = ssd.run_scheduled_open_loop(&mut NullObserver, &ops, &shaped, cfg.qd);
            assert_eq!(run.sim_time, report.devices[d].sim_time, "device {d}: re-drive diverged");
            let mut shadow = Shadow::new(ssd.logical_pages());
            // Sojourn: completion − the tenant's original arrival, so
            // shaping delay is charged to the tenant that was shaped.
            let mut by_arrival: Vec<(u64, u64)> = Vec::with_capacity(ops.len());
            for (i, op) in ops.iter().enumerate() {
                shadow.apply(op, &run.results[i]);
                let req = &trace[idx[i]];
                let l = run.completions[i].0 - req.arrival.0;
                sojourn_by_tenant[req.tenant] += l;
                by_arrival.push((req.arrival.0, l));
                // Latency is the victims'; trims are everyone's — the storm
                // tenant is the one deleting (80 % of its requests), and
                // its shaping delay is part of what a secure delete costs it.
                if req.tenant != 0 {
                    lat_ns.push(l);
                }
                if matches!(op, HostOp::Trim { .. }) {
                    trim_lat_ns.push(l);
                }
            }
            // No growing backlog: the last tenth of arrivals must not
            // wait much longer than the second tenth.
            by_arrival.sort_unstable();
            let tenth = by_arrival.len() / 10;
            let p99 = |s: &[(u64, u64)]| {
                let mut v: Vec<u64> = s.iter().map(|&(_, l)| l).collect();
                v.sort_unstable();
                crate::stats::nearest_rank(&v, 990).expect("a tenth holds enough samples").0
            };
            let growth =
                p99(&by_arrival[9 * tenth..]) as f64 / p99(&by_arrival[tenth..2 * tenth]) as f64;
            worst_backlog = worst_backlog.max(growth);
            let r = ssd.result();
            programs += r.ftl.nand_programs;
            writes += r.ftl.host_write_pages;
            oracle.absorb(&mut ssd, &shadow, true);
        }
        assert!(
            worst_backlog <= 3.0,
            "growing backlog: p99 sojourn of the last tenth is {worst_backlog:.2}x the second \
             tenth's — the arrival rate saturates the device"
        );
        for (t, stats) in report.tenants.iter().enumerate() {
            assert_eq!(
                stats.latency.sum().0,
                sojourn_by_tenant[t],
                "tenant {}: re-driven latency sum differs from the report's histogram",
                stats.name
            );
        }
        let nosan = fleet_sim(&run_fleet(&self.config(seed, SanitizePolicy::none())));
        let notes = vec![
            format!(
                "open loop in simulated time: {} arrivals/s per device (mean, diurnal swing \
                 {:.0} %), storm limited to {} pages/s; arrivals are simulated timestamps, so \
                 generator lateness is zero by construction",
                FLEET_RATE_PER_SEC,
                cfg.traffic.diurnal_amplitude * 100.0,
                STORM_LIMIT.0
            ),
            format!(
                "backlog check: worst p99 sojourn growth, last tenth over second tenth of \
                 arrivals, {worst_backlog:.3} (limit 3)"
            ),
            format!(
                "fleet digest {:#018x} equal at 1 and {} shards; latencies are victims' \
                 completion − arrival, trim latencies every tenant's",
                report.fleet_digest, cfg.shards
            ),
        ];
        Verified {
            sim: fleet_sim(&report),
            nosan_iops: nosan.iops(),
            nand_programs: programs,
            host_write_pages: writes,
            lat_ns,
            trim_lat_ns,
            oracle,
            notes,
        }
    }
}
