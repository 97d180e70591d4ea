//! Differential oracles for the dense hot-path rework: the pooled page
//! store, dense flag/ledger tables, and batched observer dispatch must be
//! invisible to everything the host can observe.
//!
//! Two contracts, each checked over random workload × policy × queue
//! depth × fault-seed draws (the harness shape of
//! `tests/checkpoint_resume.rs`):
//!
//! * **Attachment neutrality** — running with VerTrace and an event
//!   recorder tee'd onto the FTL produces byte-identical per-op
//!   results, `RunResult`, Prometheus scrape, and checkpoint bytes as the
//!   same run with no observer. Batched dispatch buffers events; it must
//!   never feed back into the simulation.
//! * **Replay closure** — VerTrace's attribution is a pure function of
//!   the (ordered) event stream: replaying the recorded events into a
//!   second VerTrace reproduces the directly-attached one's report *and*
//!   its serialized bytes. This pins the batched drain to deliver a
//!   complete stream in recording order, and VerTrace's dense tables to
//!   carry no hidden state outside the events.

use evanesco::core::fault::FaultConfig;
use evanesco::ftl::observer::{FtlObserver, ObserverEvent, Tee};
use evanesco::ftl::SanitizePolicy;
use evanesco::nand::snapshot::Enc;
use evanesco::nand::timing::Nanos;
use evanesco::ssd::{Emulator, HostOp, SsdConfig};
use evanesco::workloads::generate::generate;
use evanesco::workloads::replay::apply;
use evanesco::workloads::trace::TraceOp;
use evanesco::workloads::{VerTrace, WorkloadSpec};
use proptest::prelude::*;

fn sched_op(logical: u64) -> impl Strategy<Value = HostOp> {
    let max_run = 6u64;
    prop_oneof![
        4 => (0..logical - max_run, 1..=max_run, any::<bool>())
            .prop_map(|(lpa, npages, secure)| HostOp::Write { lpa, npages, secure }),
        2 => (0..logical - max_run, 1..=max_run)
            .prop_map(|(lpa, npages)| HostOp::Read { lpa, npages }),
        1 => (0..logical - max_run, 1..=max_run)
            .prop_map(|(lpa, npages)| HostOp::Trim { lpa, npages }),
    ]
}

fn observables(ssd: &Emulator) -> (String, String, Vec<u8>) {
    (format!("{:?}", ssd.result()), ssd.prometheus_scrape(), ssd.save_checkpoint())
}

fn ledger_bytes(lg: &VerTrace) -> Vec<u8> {
    let mut enc = Enc::new();
    lg.encode_state(&mut enc);
    enc.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Attachment neutrality: tee'ing VerTrace + a recorder onto the
    /// scheduled-run path changes nothing the host or an operator sees.
    #[test]
    fn observer_attachment_never_perturbs_the_simulation(
        ops in proptest::collection::vec(sched_op(600), 4..40),
        policy_i in 0usize..5,
        qd in prop_oneof![Just(1usize), Just(2usize), Just(8usize)],
        severity in 0.0f64..0.5,
        fault_seed in any::<u64>(),
    ) {
        let mut cfg = SsdConfig::tiny_for_tests();
        if severity >= 0.05 {
            cfg.ftl.faults = FaultConfig::storm(severity, fault_seed);
        }
        let policy = SanitizePolicy::ALL[policy_i];

        let mut bare = Emulator::new(cfg, policy);
        let bare_run = bare.run_scheduled(&ops, qd);
        bare.flush_coalesced_locks();

        let mut observed = Emulator::new(cfg, policy);
        let mut lg = VerTrace::new(&cfg.ftl);
        let mut rec: Vec<ObserverEvent> = Vec::new();
        // All-zero arrivals: the open-loop entry point runs the closed loop.
        let closed = vec![Nanos::ZERO; ops.len()];
        let obs_run = observed.run_scheduled_open_loop(&mut Tee(&mut lg, &mut rec), &ops, &closed, qd);
        observed.flush_coalesced_locks();

        prop_assert_eq!(bare_run.results, obs_run.results, "per-op results diverged");
        prop_assert_eq!(bare_run.host_pages, obs_run.host_pages);
        prop_assert_eq!(observables(&bare), observables(&observed));
        // The stream is non-trivial whenever any write landed.
        if obs_run.host_pages > 0 {
            prop_assert!(!rec.is_empty(), "writes completed but no events dispatched");
        }
    }

    /// Replay closure: the VerTrace built from the recorded event stream
    /// is indistinguishable — report and serialized bytes — from the one
    /// that rode the FTL directly.
    #[test]
    fn ledger_attribution_is_a_pure_function_of_the_event_stream(
        spec_i in 0usize..4,
        policy_i in 0usize..5,
        seed in any::<u64>(),
        severity in 0.0f64..0.5,
        fault_seed in any::<u64>(),
    ) {
        let specs = [
            WorkloadSpec::mobile(),
            WorkloadSpec::mail_server(),
            WorkloadSpec::db_server(),
            WorkloadSpec::file_server(),
        ];
        let mut cfg = SsdConfig::tiny_for_tests();
        if severity >= 0.05 {
            cfg.ftl.faults = FaultConfig::storm(severity, fault_seed);
        }
        let policy = SanitizePolicy::ALL[policy_i];
        let logical = Emulator::new(cfg, policy).logical_pages();
        let trace = generate(&specs[spec_i], logical, 250, seed);
        let stream: Vec<&TraceOp> = trace.prefill.iter().chain(&trace.ops).collect();

        // Direct arm: VerTrace attached to the device, recorder tee'd in;
        // events are segmented per host op as they happen.
        let mut ssd = Emulator::new(cfg, policy);
        let mut direct = VerTrace::new(&cfg.ftl);
        let mut per_op: Vec<Vec<ObserverEvent>> = Vec::new();
        for op in &stream {
            let mut rec = Vec::new();
            direct.note_op(op);
            apply(&mut ssd, &mut Tee(&mut direct, &mut rec), op);
            per_op.push(rec);
        }

        // Replay arm: a fresh VerTrace fed only the host markers and the
        // recorded stream, never the device.
        let mut replayed = VerTrace::new(&cfg.ftl);
        for (op, events) in stream.iter().zip(&per_op) {
            replayed.note_op(op);
            events.iter().for_each(|&ev| replayed.on_event(ev));
        }

        prop_assert_eq!(
            ledger_bytes(&direct),
            ledger_bytes(&replayed),
            "serialized ledger state diverged between direct and replayed arms"
        );
        let cap = logical;
        prop_assert_eq!(
            direct.report(cap),
            replayed.report(cap),
            "attribution reports diverged between direct and replayed arms"
        );
    }
}
