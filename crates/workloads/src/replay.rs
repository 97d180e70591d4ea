//! Trace replay against the SSD emulator, with measured-phase metric
//! isolation and optional VerTrace attachment.

use crate::trace::{Trace, TraceOp};
use crate::vertrace::VerTrace;
use evanesco_ftl::observer::{FtlObserver, NullObserver};
use evanesco_ssd::{Emulator, RunResult};

/// Replays a trace, returning the **measured-phase** metrics (prefill is
/// executed but excluded, as in the paper's steady-state methodology).
pub fn replay(ssd: &mut Emulator, trace: &Trace) -> RunResult {
    measured(ssd, trace, |ssd, op| apply(ssd, &mut NullObserver, op))
}

/// [`replay`] with [`VerTrace`] attached to both phases: it hears each op's
/// file context, then the device's events.
pub fn replay_with(ssd: &mut Emulator, trace: &Trace, vt: &mut VerTrace) -> RunResult {
    measured(ssd, trace, |ssd, op| {
        vt.note_op(op);
        apply(ssd, vt, op);
    })
}

/// Runs `step` over the prefill, then over the measured ops, and returns
/// what the measured ops alone did.
fn measured(
    ssd: &mut Emulator,
    trace: &Trace,
    mut step: impl FnMut(&mut Emulator, &TraceOp),
) -> RunResult {
    for op in &trace.prefill {
        step(ssd, op);
    }
    let baseline = ssd.result();
    for op in &trace.ops {
        step(ssd, op);
    }
    ssd.result().since(&baseline)
}

/// Applies one trace operation through the serialized host API with `obs`
/// attached. File context is not an FTL event: a [`VerTrace`] hears it
/// from [`VerTrace::note_op`], called first.
pub fn apply<O: FtlObserver>(ssd: &mut Emulator, obs: &mut O, op: &TraceOp) {
    match *op {
        TraceOp::Write { lpa, npages, secure, .. } => {
            ssd.write_with(obs, lpa, npages, secure);
        }
        TraceOp::Read { lpa, npages } => {
            ssd.read(lpa, npages);
        }
        TraceOp::Trim { lpa, npages, .. } => {
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
