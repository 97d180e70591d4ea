//! Trace replay against the SSD emulator, with measured-phase metric
//! isolation and optional VerTrace attachment.

use crate::ledger::ExposureLedger;
use crate::trace::{Trace, TraceOp};
use crate::vertrace::VerTrace;
use evanesco_ftl::observer::{FtlObserver, NullObserver, Tee};
use evanesco_ssd::{Emulator, RunResult};

/// Hooks a replay observer needs beyond the FTL events: file-level context.
pub trait ReplayObserver: FtlObserver {
    /// Called before a host write of `[lpa, lpa+n)` for `file`.
    fn before_write(&mut self, _file: u32, _lpa: u64, _npages: u64, _overwrite: bool) {}
    /// Called before a host trim of `[lpa, lpa+n)` for `file`.
    fn before_trim(&mut self, _file: u32, _lpa: u64, _npages: u64) {}
}

impl ReplayObserver for NullObserver {}

impl ReplayObserver for VerTrace {
    fn before_write(&mut self, file: u32, lpa: u64, npages: u64, overwrite: bool) {
        VerTrace::before_write(self, file, lpa, npages, overwrite);
    }
    fn before_trim(&mut self, file: u32, lpa: u64, npages: u64) {
        VerTrace::before_trim(self, file, lpa, npages);
    }
}

impl ReplayObserver for ExposureLedger {
    fn before_write(&mut self, file: u32, lpa: u64, npages: u64, overwrite: bool) {
        ExposureLedger::before_write(self, file, lpa, npages, overwrite);
    }
    fn before_trim(&mut self, file: u32, lpa: u64, npages: u64) {
        ExposureLedger::before_trim(self, file, lpa, npages);
    }
}

impl<O: ReplayObserver> ReplayObserver for &mut O {
    fn before_write(&mut self, file: u32, lpa: u64, npages: u64, overwrite: bool) {
        (**self).before_write(file, lpa, npages, overwrite);
    }
    fn before_trim(&mut self, file: u32, lpa: u64, npages: u64) {
        (**self).before_trim(file, lpa, npages);
    }
}

/// Attach two replay observers to one run (e.g. the live
/// [`ExposureLedger`] and the offline [`VerTrace`], for cross-checking).
impl<A: ReplayObserver, B: ReplayObserver> ReplayObserver for Tee<A, B> {
    fn before_write(&mut self, file: u32, lpa: u64, npages: u64, overwrite: bool) {
        self.0.before_write(file, lpa, npages, overwrite);
        self.1.before_write(file, lpa, npages, overwrite);
    }
    fn before_trim(&mut self, file: u32, lpa: u64, npages: u64) {
        self.0.before_trim(file, lpa, npages);
        self.1.before_trim(file, lpa, npages);
    }
}

/// Replays a trace, returning the **measured-phase** metrics (prefill is
/// executed but excluded, as in the paper's steady-state methodology).
pub fn replay(ssd: &mut Emulator, trace: &Trace) -> RunResult {
    replay_with(ssd, trace, &mut NullObserver)
}

/// [`replay`] with an observer (e.g. [`VerTrace`]) attached to both phases.
pub fn replay_with<O: ReplayObserver>(ssd: &mut Emulator, trace: &Trace, obs: &mut O) -> RunResult {
    for op in &trace.prefill {
        apply(ssd, obs, op);
    }
    let baseline = ssd.result();
    for op in &trace.ops {
        apply(ssd, obs, op);
    }
    ssd.result().since(&baseline)
}

/// Applies one trace operation through the serialized host API, telling
/// `obs` the file-level context first.
pub fn apply<O: ReplayObserver>(ssd: &mut Emulator, obs: &mut O, op: &TraceOp) {
    match *op {
        TraceOp::Write { file, lpa, npages, secure, overwrite } => {
            obs.before_write(file, lpa, npages, overwrite);
            ssd.write_with(obs, lpa, npages, secure);
        }
        TraceOp::Read { lpa, npages } => {
            ssd.read(lpa, npages);
        }
        TraceOp::Trim { file, lpa, npages } => {
            obs.before_trim(file, lpa, npages);
            ssd.trim_with(obs, lpa, npages);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;
    use crate::spec::WorkloadSpec;
    use evanesco_ftl::SanitizePolicy;
    use evanesco_ssd::SsdConfig;

    fn small_ssd(policy: SanitizePolicy) -> Emulator {
        let mut cfg = SsdConfig::tiny_for_tests();
        cfg.track_tags = false;
        cfg.stale_audit = false;
        Emulator::new(cfg, policy)
    }

    #[test]
    fn replay_measures_only_main_phase() {
        let mut ssd = small_ssd(SanitizePolicy::none());
        let logical = ssd.logical_pages();
        let trace = generate(&WorkloadSpec::mail_server(), logical, 300, 1);
        let r = replay(&mut ssd, &trace);
        assert!(r.ftl.host_write_pages >= 300);
        // The prefill wrote ~75% of the space but is excluded.
        let full = ssd.result();
        assert!(full.ftl.host_write_pages > r.ftl.host_write_pages);
        assert!(r.iops > 0.0);
    }

    #[test]
    fn replay_with_vertrace_produces_report() {
        let mut ssd = small_ssd(SanitizePolicy::none());
        let logical = ssd.logical_pages();
        let trace = generate(&WorkloadSpec::db_server(), logical, 400, 2);
        let mut vt = VerTrace::new();
        replay_with(&mut ssd, &trace, &mut vt);
        let report = vt.report(logical);
        assert!(report.mv.n_files > 0, "DBServer must produce MV files");
        assert!(report.mv.vaf_max > 0.0, "overwrites must leave stale versions");
    }

    #[test]
    fn secssd_replay_keeps_mv_files_version_free() {
        // With Evanesco, every stale version is sanitized at invalidation, so
        // even heavily-overwritten files have VAF 0.
        let mut ssd = small_ssd(SanitizePolicy::evanesco());
        let logical = ssd.logical_pages();
        let trace = generate(&WorkloadSpec::db_server(), logical, 400, 2);
        let mut vt = VerTrace::new();
        replay_with(&mut ssd, &trace, &mut vt);
        let report = vt.report(logical);
        assert_eq!(report.mv.vaf_max, 0.0, "secSSD must leave no stale versions");
        assert_eq!(report.uv.vaf_max, 0.0);
    }

    #[test]
    fn ledger_matches_vertrace_in_one_run() {
        use crate::ledger::ExposureLedger;
        let mut ssd = small_ssd(SanitizePolicy::none());
        let logical = ssd.logical_pages();
        let trace = generate(&WorkloadSpec::db_server(), logical, 500, 3);
        let mut vt = VerTrace::new();
        let mut lg = ExposureLedger::new();
        replay_with(&mut ssd, &trace, &mut Tee(&mut lg, &mut vt));
        let offline = vt.report(logical);
        let live = lg.report(logical);
        // The ledger uses VerTrace's counting rules, so the Table-1 class
        // stats from one shared run must agree (up to float summation
        // order — the per-file maps iterate in different orders).
        let close = |a: crate::vertrace::ClassStats, b: crate::vertrace::ClassStats| {
            assert_eq!(a.n_files, b.n_files);
            for (x, y) in [
                (a.vaf_avg, b.vaf_avg),
                (a.vaf_max, b.vaf_max),
                (a.tinsec_avg, b.tinsec_avg),
                (a.tinsec_max, b.tinsec_max),
            ] {
                assert!((x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0), "{x} vs {y}");
            }
        };
        close(live.uv.stats, offline.uv);
        close(live.mv.stats, offline.mv);
        assert!(live.mv.stats.vaf_max > 0.0);
        // And the attribution layer saw every exposed retirement.
        let exposed: u64 = live.device_causes.exposed.iter().sum();
        assert!(exposed > 0);
    }

    #[test]
    fn deterministic_replay_results() {
        let spec = WorkloadSpec::file_server();
        let run = || {
            let mut ssd = small_ssd(SanitizePolicy::evanesco());
            let logical = ssd.logical_pages();
            let trace = generate(&spec, logical, 300, 9);
            replay(&mut ssd, &trace)
        };
        let a = run();
        let b = run();
        assert_eq!(a.ftl, b.ftl);
        assert_eq!(a.sim_time, b.sim_time);
    }
}
