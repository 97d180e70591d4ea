//! Crash-consistency properties: power-loss fault injection against every
//! sanitization policy.
//!
//! Each property case replays a random host trace twice: once undisturbed
//! to measure its simulated horizon, then again on a fresh device with a
//! power cut armed at a random fraction of that horizon. After
//! [`Emulator::recover`] the harness checks the crash contract:
//!
//! * **C1/C2 under crash** — no acknowledged-deleted or superseded secured
//!   tag is recoverable, even by de-soldering every chip;
//! * **durability** — every acknowledged write or trim survives intact;
//! * **atomicity** — pages under the one interrupted request read either
//!   their old content or nothing, never a half-written mix, and a
//!   vanished old secured version must have been sanitized, not merely
//!   unmapped;
//! * **orphan sealing** — secure payloads the host was never owed (torn
//!   mid-program) are sanitized during recovery;
//! * the device serves and acknowledges new work after recovery, and the
//!   recovery metrics reach the run summary.
//!
//! Alongside the properties sit the three hand-written worst cases from
//! the paper's recovery discussion: a cut mid-`pLock`, a cut mid-GC-copy,
//! and a cut mid-erase of a `bLock`ed block — plus a byte-for-byte
//! determinism check over a seeded `FaultPlan`.

use evanesco::core::chip::EvanescoChip;
use evanesco::ftl::observer::NullObserver;
use evanesco::ftl::SanitizePolicy;
use evanesco::nand::geometry::{BlockId, Ppa};
use evanesco::nand::timing::Nanos;
use evanesco::ssd::{Emulator, FaultPlan, SsdConfig};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// A host operation for crash testing.
#[derive(Debug, Clone)]
enum HostOp {
    Write { lpa: u64, n: u64, secure: bool },
    Trim { lpa: u64, n: u64 },
    Read { lpa: u64, n: u64 },
}

fn host_op(logical: u64) -> impl Strategy<Value = HostOp> {
    let max_run = 8u64;
    prop_oneof![
        4 => (0..logical - max_run, 1..=max_run, any::<bool>())
            .prop_map(|(lpa, n, secure)| HostOp::Write { lpa, n, secure }),
        2 => (0..logical - max_run, 1..=max_run).prop_map(|(lpa, n)| HostOp::Trim { lpa, n }),
        1 => (0..logical - max_run, 1..=max_run).prop_map(|(lpa, n)| HostOp::Read { lpa, n }),
    ]
}

fn issue(ssd: &mut Emulator, logical: u64, op: &HostOp) {
    match *op {
        HostOp::Write { lpa, n, secure } => {
            let _ = ssd.write_tracked(lpa % (logical - n), n, secure);
        }
        HostOp::Trim { lpa, n } => {
            let _ = ssd.trim_with(&mut NullObserver, lpa % (logical - n), n);
        }
        HostOp::Read { lpa, n } => {
            let _ = ssd.read(lpa % (logical - n), n);
        }
    }
}

/// Replays `ops` with a power cut at `cut_frac` of the trace's measured
/// horizon and checks the full crash contract for `policy`.
fn run_crash_check(policy: SanitizePolicy, ops: &[HostOp], cut_frac: f64) {
    run_crash_check_at(policy, ops, cut_frac, None);
}

/// [`run_crash_check`] with an optional campaign-style resume boundary:
/// at op index `resume_at` the device is serialized, torn down, and
/// rebuilt from the checkpoint bytes before the trace continues — and
/// the power cut is armed only then, so it lands in "segment 2" of the
/// chained run. The crash contract must not notice the boundary.
fn run_crash_check_at(
    policy: SanitizePolicy,
    ops: &[HostOp],
    cut_frac: f64,
    resume_at: Option<usize>,
) {
    let cfg = SsdConfig::tiny_for_tests();

    // Horizon run: same trace, no cut. Replays are deterministic, so the
    // crash run below is byte-identical up to the cut instant.
    let mut probe = Emulator::new(cfg, policy);
    let logical = probe.logical_pages();
    let mut t_resume = Nanos(0);
    for (i, op) in ops.iter().enumerate() {
        if resume_at == Some(i) {
            t_resume = probe.result().sim_time;
        }
        issue(&mut probe, logical, op);
    }
    let horizon = probe.result().sim_time;
    if horizon < Nanos(2) || horizon.0 <= t_resume.0 + 1 {
        return; // Nothing (left) to interrupt.
    }
    let cut = Nanos(
        (t_resume.0 + ((horizon.0 - t_resume.0) as f64 * cut_frac) as u64).max(t_resume.0 + 1),
    );

    let mut ssd = Emulator::new(cfg, policy);
    if resume_at.is_none() {
        ssd.power_cut_at(cut);
    }

    // Shadow of what the device owes the host.
    let mut current: HashMap<u64, (u64, bool)> = HashMap::new(); // acked tag + secure flag
    let mut dead_secure: HashSet<u64> = HashSet::new(); // acked-superseded/deleted secured tags
    let mut uncertain: HashSet<u64> = HashSet::new(); // lpas under the interrupted request
    let mut unacked_secure: HashSet<u64> = HashSet::new(); // secure payloads never owed

    // Advisory deletes: a trim of insecure data (or any trim under the
    // baseline policy) leaves no on-flash record, so the old version may
    // legitimately resurrect across a crash.
    let mut ghost: HashMap<u64, u64> = HashMap::new();

    for (i, op) in ops.iter().enumerate() {
        if resume_at == Some(i) {
            // The campaign boundary: only the checkpoint bytes survive
            // the process restart; the cut threatens the second segment.
            let bytes = ssd.save_checkpoint();
            ssd = Emulator::restore_checkpoint(&bytes).expect("mid-campaign checkpoint restores");
            ssd.power_cut_at(cut);
        }
        match *op {
            HostOp::Write { lpa, n, secure } => {
                let lpa = lpa % (logical - n);
                let live_before = !ssd.powered_off();
                let tracked = ssd.write_tracked(lpa, n, secure);
                let first_unacked = tracked.iter().position(|&(_, a)| !a);
                for (i, (tag, acked)) in tracked.into_iter().enumerate() {
                    let l = lpa + i as u64;
                    if acked {
                        // The new version's higher on-flash sequence number
                        // supersedes any resurrectable older one.
                        ghost.remove(&l);
                        if let Some((old, was_secure)) = current.insert(l, (tag, secure)) {
                            if was_secure {
                                dead_secure.insert(old);
                            }
                        }
                    } else if live_before && first_unacked == Some(i) {
                        // The one page whose submission the cut caught
                        // mid-flight; later pages were rejected outright
                        // and leave the shadow expectation unchanged.
                        uncertain.insert(l);
                        if secure {
                            unacked_secure.insert(tag);
                        }
                    }
                }
            }
            HostOp::Trim { lpa, n } => {
                let lpa = lpa % (logical - n);
                let live_before = !ssd.powered_off();
                let acked = ssd.trim_with(&mut NullObserver, lpa, n);
                if acked {
                    for i in 0..n {
                        let l = lpa + i;
                        if let Some((old, was_secure)) = current.remove(&l) {
                            if was_secure && policy.is_immediate() {
                                // Sanitized on flash: durably gone.
                                dead_secure.insert(old);
                            } else {
                                ghost.insert(l, old);
                            }
                        }
                    }
                } else if live_before {
                    // Interrupted trim: each page may or may not have been
                    // invalidated before the cut; the host must re-issue.
                    for i in 0..n {
                        uncertain.insert(lpa + i);
                    }
                }
            }
            HostOp::Read { lpa, n } => {
                let lpa = lpa % (logical - n);
                let live_before = !ssd.powered_off();
                let got = ssd.read(lpa, n);
                if live_before && !ssd.powered_off() {
                    // The whole read completed pre-cut: it must match the
                    // acked shadow exactly.
                    for (i, g) in got.into_iter().enumerate() {
                        let l = lpa + i as u64;
                        assert_eq!(
                            g,
                            current.get(&l).map(|&(t, _)| t),
                            "{policy}: pre-cut read mismatch at lpa {l}"
                        );
                    }
                }
            }
        }
    }

    let fired = ssd.powered_off();
    let report = ssd.recover();
    ssd.ftl().check_invariants();
    if !fired {
        // The cut landed in dead air after the last device command; the
        // scan must find a perfectly consistent device.
        assert_eq!(report.torn_writes, 0, "{policy}: torn write without a fired cut");
        assert!(uncertain.is_empty());
    }

    let recoverable = ssd.attacker_recoverable_tags();
    if policy.is_immediate() {
        // C1/C2 survive the crash: nothing the host deleted (and was
        // acked for) is recoverable, and neither is any secure payload
        // the host was never owed (a torn orphan).
        for t in &dead_secure {
            assert!(!recoverable.contains(t), "{policy}: stale secured tag {t} survived the crash");
        }
        for t in &unacked_secure {
            assert!(!recoverable.contains(t), "{policy}: unacked secure orphan {t} recoverable");
        }
    }

    // Durability + atomicity of the recovered mapping.
    let mut lpas: Vec<u64> = current
        .keys()
        .copied()
        .chain(uncertain.iter().copied())
        .chain(ghost.keys().copied())
        .collect();
    lpas.sort_unstable();
    lpas.dedup();
    for l in lpas {
        let got = ssd.read(l, 1)[0];
        let expect = current.get(&l).map(|&(t, _)| t);
        let resurrected = ghost.get(&l).copied(); // advisory delete may undo
        if uncertain.contains(&l) {
            assert!(
                got == expect || got.is_none() || (got.is_some() && got == resurrected),
                "{policy}: interrupted lpa {l} reads {got:?}, want {expect:?} or nothing"
            );
            if got.is_none() && policy.is_immediate() {
                if let Some(&(old, true)) = current.get(&l) {
                    // The interrupted request invalidated the old secured
                    // version before the cut: it must have been sanitized,
                    // not merely unmapped.
                    assert!(
                        !recoverable.contains(&old),
                        "{policy}: lpa {l} old secured tag {old} unmapped but recoverable"
                    );
                }
            }
        } else {
            assert!(
                got == expect || (expect.is_none() && got.is_some() && got == resurrected),
                "{policy}: acked state lost at lpa {l}: {got:?}, want {expect:?}"
            );
        }
    }

    // The device is serviceable again and the metrics made it out.
    assert!(ssd.write_tracked(0, 1, true)[0].1, "{policy}: device dead after recovery");
    ssd.ftl().check_invariants();
    let totals = ssd.result().recovery;
    assert_eq!(totals.recoveries, 1);
    assert_eq!(totals.report.scanned_pages, report.scanned_pages);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The core crash property, run per policy on every case (≥256 cases
    /// per policy): random traces, a cut at a random point, full contract.
    #[test]
    fn power_cut_anywhere_preserves_the_crash_contract(
        ops in proptest::collection::vec(host_op(2 * 16 * 24), 1..40),
        cut_frac in 0.02f64..0.98
    ) {
        for policy in SanitizePolicy::ALL {
            run_crash_check(policy, &ops, cut_frac);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// A campaign that checkpoints mid-trace, restarts the process from
    /// the bytes, and *then* loses power must satisfy the same crash
    /// contract as the never-checkpointed runs above: acked secure
    /// deletes stay unrecoverable, acked state is durable, interrupted
    /// requests are atomic — across the resume boundary, per policy.
    #[test]
    fn power_cut_after_resume_preserves_the_crash_contract(
        ops in proptest::collection::vec(host_op(2 * 16 * 24), 2..40),
        cut_frac in 0.02f64..0.98,
        resume_frac in 0.0f64..1.0,
    ) {
        let k = (((ops.len() as f64) * resume_frac) as usize).min(ops.len() - 1);
        for policy in SanitizePolicy::ALL {
            run_crash_check_at(policy, &ops, cut_frac, Some(k));
        }
    }
}

// ---------------------------------------------------------------------------
// Hand-written worst cases.
// ---------------------------------------------------------------------------

fn any_torn_page_flag(chip: &EvanescoChip) -> bool {
    let g = *chip.geometry();
    (0..g.blocks)
        .any(|b| (0..g.pages_per_block()).any(|p| chip.page_flag_state(Ppa::new(b, p)).is_torn()))
}

/// Worst case 1: the cut lands inside a `pLock` pulse. The half-charged
/// pAP cells decode with a degraded margin; recovery must detect the torn
/// flag and re-issue the lock before serving reads.
#[test]
fn worst_case_cut_mid_plock_is_relocked() {
    let policy = SanitizePolicy::evanesco();
    let cfg = SsdConfig::tiny_for_tests();

    // Probe: the trim of 2 pages (< block_min_plocks, so the pLock path)
    // opens its lock window at t0.
    let mut probe = Emulator::new(cfg, policy);
    probe.write(0, 8, true);
    let t0 = probe.result().sim_time;
    probe.trim(0, 2);
    let t1 = probe.result().sim_time;
    assert!(t1 > t0);

    // Scan cut instants across the window until one tears a lock pulse.
    let mut hit = None;
    let mut cut = t0 + Nanos::from_micros(10);
    while cut < t1 {
        let mut ssd = Emulator::new(cfg, policy);
        let tags = ssd.write(0, 8, true);
        ssd.power_cut_at(cut);
        let acked = ssd.trim_with(&mut NullObserver, 0, 2);
        if ssd.powered_off()
            && !acked
            && ssd.device_mut().chips_mut().iter().any(any_torn_page_flag)
        {
            hit = Some((ssd, tags));
            break;
        }
        cut += Nanos::from_micros(10);
    }
    let (mut ssd, tags) =
        hit.expect("a 10 µs scan across the trim window must land inside a 100 µs pLock pulse");

    let report = ssd.recover();
    ssd.ftl().check_invariants();
    assert!(report.relocked_pages >= 1, "torn pLock must be re-issued: {report:?}");

    // Each trimmed page is atomically gone-and-sealed or still current.
    let recoverable = ssd.attacker_recoverable_tags();
    let mut sealed = 0;
    for (i, &tag) in tags.iter().take(2).enumerate() {
        match ssd.read(i as u64, 1)[0] {
            None => {
                assert!(
                    !recoverable.contains(&tag),
                    "invalidated page {i} must be sanitized, not just unmapped"
                );
                sealed += 1;
            }
            Some(t) => assert_eq!(t, tag, "un-invalidated page {i} keeps its old content"),
        }
    }
    assert!(sealed >= 1, "the torn lock's page must be sealed after recovery");
    // Untouched neighbours and fresh work are unaffected.
    assert_eq!(ssd.read(2, 1)[0], Some(tags[2]));
    assert!(ssd.write_tracked(0, 1, true)[0].1);
}

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
}

/// Worst case 2: the cut lands inside a GC relocation copy. The torn copy
/// must lose the mapping contest to the still-valid original, so every
/// acknowledged page survives with its old content.
#[test]
fn worst_case_cut_mid_gc_copy_keeps_mapping_atomic() {
    let policy = SanitizePolicy::evanesco();
    let cfg = SsdConfig::tiny_for_tests();

    // Churn script: fill the logical space, then hammer a hot set until
    // garbage collection must relocate live pages.
    let logical = Emulator::new(cfg, policy).logical_pages();
    let mut script: Vec<u64> = (0..logical).collect();
    let mut x = 7u64;
    for _ in 0..600 {
        x = lcg(x);
        script.push(x % 64);
    }

    // Probe: find the first host write that triggers GC and its window.
    let mut probe = Emulator::new(cfg, policy);
    let mut window = None;
    for (i, &lpa) in script.iter().enumerate() {
        let g0 = probe.ftl().stats().gc_invocations;
        let t0 = probe.result().sim_time;
        probe.write(lpa, 1, true);
        if probe.ftl().stats().gc_invocations > g0 {
            window = Some((i, g0, t0, probe.result().sim_time));
            break;
        }
    }
    let (idx, gc_before, t0, t1) = window.expect("churn past capacity must trigger GC");
    assert!(t1 > t0);

    // Scan the early 60 % of the window (relocation copies run before the
    // victim erase and the host program) for a cut that tears a copy.
    let mut found = false;
    for k in 1..40u64 {
        let cut = Nanos(t0.0 + (t1.0 - t0.0) * 6 / 10 * k / 40);
        if cut <= t0 {
            continue;
        }
        let mut ssd = Emulator::new(cfg, policy);
        ssd.power_cut_at(cut);
        let mut current: HashMap<u64, u64> = HashMap::new();
        let mut uncertain = None;
        for &lpa in &script[..=idx] {
            let (tag, acked) = ssd.write_tracked(lpa, 1, true)[0];
            if acked {
                current.insert(lpa, tag);
            } else if uncertain.is_none() {
                uncertain = Some(lpa);
            }
        }
        if !ssd.powered_off() {
            continue;
        }
        let gc_started = ssd.ftl().stats().gc_invocations > gc_before;
        let report = ssd.recover();
        if !(gc_started && report.torn_writes >= 1) {
            continue;
        }
        // Confirmed: the cut interrupted a write while GC was copying.
        found = true;
        ssd.ftl().check_invariants();
        for (&lpa, &tag) in &current {
            let got = ssd.read(lpa, 1)[0];
            if uncertain == Some(lpa) {
                assert!(got == Some(tag) || got.is_none(), "interrupted lpa {lpa}: {got:?}");
            } else {
                assert_eq!(got, Some(tag), "acked lpa {lpa} lost across a torn GC copy");
            }
        }
        assert!(ssd.write_tracked(0, 1, true)[0].1);
        break;
    }
    assert!(found, "no scanned cut tore a GC relocation copy");
}

/// Worst case 3: the cut lands inside the 3.5 ms erase of a `bLock`ed
/// block — the paper's flag-decay hazard, where a torn erase can wipe the
/// lock flags before the data. Recovery must detect the torn erase by its
/// blank-check signature and re-erase (reseal) the block.
#[test]
fn worst_case_cut_mid_erase_of_locked_block_reseals_it() {
    let policy = SanitizePolicy::evanesco();
    let cfg = SsdConfig::tiny_for_tests();

    // A contiguous secure file spanning one full block per chip, trimmed:
    // enough pLocks per block that the policy escalates to bLock.
    let block_span = 2 * 24u64; // pages_per_block × chips
    let setup = |ssd: &mut Emulator| {
        ssd.write(0, block_span, true);
        ssd.trim(0, block_span);
    };
    let mut probe = Emulator::new(cfg, policy);
    let trimmed = probe.write(0, block_span, true);
    probe.trim(0, block_span);
    let locked: Vec<(usize, BlockId)> = probe
        .device_mut()
        .chips_mut()
        .iter()
        .enumerate()
        .flat_map(|(ci, chip)| {
            let blocks = chip.geometry().blocks;
            (0..blocks)
                .filter(|&b| chip.block_flag_state(BlockId(b)).reads_locked())
                .map(move |b| (ci, BlockId(b)))
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(!locked.is_empty(), "a fully trimmed secure block must be bLocked");
    let (chip_i, blk) = locked[0];
    let erases_before = probe.device_mut().chips_mut()[chip_i].erase_count(blk);

    // Churn until the dead locked block is reclaimed (lazily erased).
    let mut churn: Vec<u64> = Vec::new();
    let mut x = 11u64;
    for _ in 0..1600 {
        x = lcg(x);
        churn.push(block_span + x % 400);
    }
    let mut window = None;
    for (i, &lpa) in churn.iter().enumerate() {
        let t0 = probe.result().sim_time;
        probe.write(lpa, 1, true);
        if probe.device_mut().chips_mut()[chip_i].erase_count(blk) > erases_before {
            window = Some((i, t0, probe.result().sim_time));
            break;
        }
    }
    let (idx, t0, t1) = window.expect("churn must eventually reclaim the locked block");

    // Scan the window for a cut that tears that block's erase.
    let mut found = false;
    let mut cut = t0 + Nanos::from_micros(50);
    while cut < t1 {
        let mut ssd = Emulator::new(cfg, policy);
        setup(&mut ssd);
        ssd.power_cut_at(cut);
        for &lpa in &churn[..=idx] {
            if ssd.powered_off() {
                break;
            }
            ssd.write(lpa, 1, true);
        }
        cut += Nanos::from_micros(50);
        if !ssd.powered_off() {
            continue;
        }
        let torn =
            ssd.device_mut().chips_mut()[chip_i].block_torn_erase(blk).expect("block id in range");
        if !torn {
            continue;
        }
        found = true;

        let report = ssd.recover();
        ssd.ftl().check_invariants();
        assert!(report.resealed_blocks >= 1, "torn erase must be resealed: {report:?}");
        // The paper's hazard: even if the torn erase decayed the lock
        // flags before wiping the data, none of the block's previously
        // locked secured content is recoverable after recovery.
        let recoverable = ssd.attacker_recoverable_tags();
        for t in &trimmed {
            assert!(!recoverable.contains(t), "trimmed secured tag {t} leaked via torn erase");
        }
        assert!(ssd.verify_sanitized(0, block_span));
        assert!(ssd.write_tracked(0, 1, true)[0].1);
        break;
    }
    assert!(found, "no scanned cut landed inside the locked block's 3.5 ms erase");
}

// ---------------------------------------------------------------------------
// Determinism: same config, same trace, same FaultPlan → byte-identical run.
// ---------------------------------------------------------------------------

#[test]
fn identical_seeded_crash_runs_are_byte_identical() {
    let transcript = || {
        let cfg = SsdConfig::tiny_for_tests();
        let mut ssd = Emulator::new(cfg, SanitizePolicy::evanesco());
        let logical = ssd.logical_pages();
        let mut plan = FaultPlan::from_seed(0xC0FFEE, Nanos::from_micros(120_000), 3);
        let mut out = String::new();
        if let Some(c) = plan.next_cut() {
            ssd.power_cut_at(c);
        }
        let mut x = 1u64;
        for _ in 0..400 {
            x = lcg(x);
            let lpa = x % (logical - 4);
            match x % 8 {
                0..=4 => {
                    for (tag, acked) in ssd.write_tracked(lpa, 1 + x % 4, !x.is_multiple_of(3)) {
                        out.push_str(&format!("w{tag}:{acked};"));
                    }
                }
                5 => {
                    let acked = ssd.trim_with(&mut NullObserver, lpa, 1 + x % 4);
                    out.push_str(&format!("t{lpa}:{acked};"));
                }
                _ => {
                    for g in ssd.read(lpa, 1 + x % 4) {
                        out.push_str(&format!("r{g:?};"));
                    }
                }
            }
            if ssd.powered_off() {
                let report = ssd.recover();
                out.push_str(&format!("{report:?}"));
                if let Some(c) = plan.next_cut() {
                    ssd.power_cut_at(c);
                }
            }
        }
        let mut tags: Vec<u64> = ssd.attacker_recoverable_tags().into_iter().collect();
        tags.sort_unstable();
        out.push_str(&format!("{tags:?}{:?}", ssd.result()));
        out
    };
    let a = transcript();
    assert!(a.contains("recoveries: "), "at least one cut must fire: {a}");
    assert_eq!(a, transcript(), "two identical seeded crash runs diverged");
}

/// Mid-coalesce power cut: the lock-coalescing queue is RAM-only, so
/// `pLock`s deferred while a block drains toward a single `bLock` are
/// *lost* by a power cut — the superseded secured versions they were
/// meant to seal sit decodable on-flash when power returns. The recovery
/// scan's mapping contest must find every such stale secured version and
/// reseal it before the device serves the host again (PR 1's crash
/// contract extended to the coalescing pass of this PR).
#[test]
fn power_cut_with_deferred_coalesced_locks_is_resealed_by_recovery() {
    let mut cfg = SsdConfig::tiny_for_tests();
    cfg.ftl.lock_coalescing = true;
    // A window far wider than the trace: nothing ages out, every deferred
    // lock is still queued (unissued) when the power dies.
    cfg.ftl.coalesce_window = 1_000_000;
    let mut ssd = Emulator::new(cfg, SanitizePolicy::evanesco());

    // Fill one block per chip with secured data, then overwrite most of
    // it: the old versions become secured-invalid, and their pLocks are
    // deferred (queued toward a bLock promotion that never comes, since
    // neither block fully dies).
    let first = ssd.write(0, 48, true);
    ssd.write(0, 40, true);
    let queued = ssd.ftl().pending_coalesced_locks();
    assert_eq!(queued, 40, "all 40 superseded versions must be deferred, not locked");
    // The deferral is real: before any flush, a de-soldering attacker can
    // still read the superseded secured versions.
    let exposed = ssd.attacker_recoverable_tags();
    assert!(
        first.iter().take(40).all(|t| exposed.contains(t)),
        "deferred locks must not have sealed anything yet"
    );

    // Power dies with the queue pending; the write in flight is lost.
    let cut = ssd.result().sim_time + Nanos::from_micros(50);
    ssd.power_cut_at(cut);
    ssd.write_tracked(100, 8, true);
    assert!(ssd.powered_off(), "the cut must fire during the post-queue batch");

    let report = ssd.recover();
    ssd.ftl().check_invariants();
    assert_eq!(ssd.ftl().pending_coalesced_locks(), 0, "recovery clears the RAM queue");
    assert!(
        report.stale_secured >= 40,
        "every version the lost queue owed must be resealed by the scan: {report:?}"
    );

    // The crash contract holds: no superseded secured version survives
    // for the attacker...
    let recoverable = ssd.attacker_recoverable_tags();
    for (l, t) in first.iter().take(40).enumerate() {
        assert!(!recoverable.contains(t), "stale secured lpa {l} still attacker-readable");
    }
    assert!(ssd.verify_sanitized(0, 48));
    // ...current data is intact...
    let after = ssd.read(0, 48);
    for (l, got) in after.iter().enumerate().skip(40).take(8) {
        assert_eq!(*got, Some(first[l]), "untouched lpa {l} lost its content");
    }
    // ...and the device serves and acknowledges fresh work.
    assert!(ssd.write_tracked(0, 1, true)[0].1);
}

/// Mid-audit-scrub power cut: a corruption storm keeps the guard's
/// verify/repair/scrub machinery busy — the incremental audit scrubber
/// is mid-pass and repairs have already run recovery scans — when the
/// power dies. The crash contract must survive the combination: no
/// acked secure delete is attacker-recoverable after recovery, the
/// accounting identity still balances, and the device keeps serving.
#[test]
fn power_cut_mid_audit_scrub_keeps_acked_secure_deletes_sealed() {
    use evanesco::core::fault::CorruptionConfig;

    let cfg = SsdConfig::tiny_for_tests();
    let mut ssd = Emulator::new(cfg, SanitizePolicy::evanesco());
    ssd.enable_chaos(CorruptionConfig::storm(0.25, 0x5C4B));
    let span = 48u64;

    // Phase 1, fully acked before the cut: secure writes, then secure
    // deletes over the first third of the span.
    let mut dead_secure: HashSet<u64> = HashSet::new();
    let mut live: Vec<(u64, u64)> = Vec::new();
    for lpa in 0..span {
        for (tag, acked) in ssd.write_tracked(lpa, 1, true) {
            assert!(acked, "phase-1 write must be acked");
            live.push((lpa, tag));
        }
    }
    for lpa in 0..span / 3 {
        assert!(ssd.trim_with(&mut NullObserver, lpa, 1), "phase-1 trim must be acked");
        dead_secure.extend(live.iter().filter(|&&(l, _)| l == lpa).map(|&(_, t)| t));
    }
    let stats = ssd.ftl().stats();
    assert!(stats.audit_scrub_blocks > 0, "the audit scrubber must be mid-pass: {stats:?}");
    assert!(stats.meta_corruptions_injected > 0, "the storm must have fired: {stats:?}");

    // Phase 2: the cut lands while storm + scrub churn continues.
    let cut = ssd.result().sim_time + Nanos::from_micros(200);
    ssd.power_cut_at(cut);
    let mut x = 0xA5u64;
    let mut spins = 0;
    while !ssd.powered_off() && spins < 10_000 {
        x = lcg(x);
        ssd.write_tracked(span / 3 + x % span, 1, x.is_multiple_of(2));
        spins += 1;
    }
    assert!(ssd.powered_off(), "the cut must land inside phase 2");

    ssd.recover();
    ssd.ftl().check_invariants();
    let recoverable = ssd.attacker_recoverable_tags();
    for t in &dead_secure {
        assert!(!recoverable.contains(t), "acked secure delete {t} resurfaced after the cut");
    }
    assert!(ssd.verify_sanitized(0, span / 3));
    // Live pre-cut state survived and the device serves fresh work.
    for &(lpa, tag) in live.iter().filter(|&&(l, _)| l >= span / 3) {
        let got = ssd.read(lpa, 1)[0];
        assert!(got == Some(tag) || got.is_none(), "acked lpa {lpa}: {got:?}");
    }
    assert!(ssd.write_tracked(0, 1, true)[0].1, "device dead after recovery");
    ssd.chaos_finalize();
    let stats = ssd.ftl().stats();
    assert!(stats.meta_accounting_balanced(), "identity broken across the cut: {stats:?}");
}

/// Mid-salvage cut: a checkpoint whose FTL section is corrupt is
/// restored through the salvaging path (recovery-scan rebuild); the
/// power then dies during the first post-salvage writes. Acked secure
/// deletes from before the checkpoint must stay unrecoverable through
/// both ordeals — the salvage rebuild and the subsequent crash.
#[test]
fn salvaged_checkpoint_preserves_acked_secure_deletes_across_a_cut() {
    use evanesco::ssd::checkpoint::section;

    let cfg = SsdConfig::tiny_for_tests();
    let mut ssd = Emulator::new(cfg, SanitizePolicy::evanesco());
    let span = 48u64;
    let mut dead_secure: HashSet<u64> = HashSet::new();
    let mut live: Vec<(u64, u64)> = Vec::new();
    for lpa in 0..span {
        for (tag, acked) in ssd.write_tracked(lpa, 1, true) {
            assert!(acked);
            live.push((lpa, tag));
        }
    }
    for lpa in 0..span / 3 {
        assert!(ssd.trim_with(&mut NullObserver, lpa, 1));
        dead_secure.extend(live.iter().filter(|&&(l, _)| l == lpa).map(|&(_, t)| t));
    }
    let mut bytes = ssd.save_checkpoint();

    // Corrupt one byte inside the FTL section's payload (format 2:
    // 12-byte header, then framed sections [id][len:u64][crc:u32][..]).
    let mut at = 12usize;
    let ftl_payload = loop {
        assert!(at + 13 <= bytes.len(), "ftl section must exist");
        let id = bytes[at];
        let len = u64::from_le_bytes(bytes[at + 1..at + 9].try_into().expect("len bytes")) as usize;
        if id == section::FTL {
            break at + 13;
        }
        at += 13 + len;
    };
    bytes[ftl_payload] ^= 0x10;
    assert!(
        Emulator::restore_checkpoint(&bytes).is_err(),
        "strict restore must reject the damaged ftl section"
    );
    let (mut ssd, report) =
        Emulator::restore_checkpoint_salvaging(&bytes).expect("salvaging restore succeeds");
    assert!(report.salvaged.contains(&"ftl"), "the rebuilt section must be reported: {report:?}");

    // The salvage rebuild itself must not resurrect acked secure deletes.
    let recoverable = ssd.attacker_recoverable_tags();
    for t in &dead_secure {
        assert!(!recoverable.contains(t), "salvage resurrected acked secure delete {t}");
    }

    // Now the lights go out during the first post-salvage writes.
    let cut = ssd.result().sim_time + Nanos::from_micros(200);
    ssd.power_cut_at(cut);
    let mut x = 0x51u64;
    let mut spins = 0;
    while !ssd.powered_off() && spins < 10_000 {
        x = lcg(x);
        ssd.write_tracked(span / 3 + x % span, 1, x.is_multiple_of(2));
        spins += 1;
    }
    assert!(ssd.powered_off(), "the cut must land inside the post-salvage run");
    ssd.recover();
    ssd.ftl().check_invariants();
    let recoverable = ssd.attacker_recoverable_tags();
    for t in &dead_secure {
        assert!(!recoverable.contains(t), "secure delete {t} resurfaced after salvage + cut");
    }
    assert!(ssd.verify_sanitized(0, span / 3));
    assert!(ssd.write_tracked(0, 1, true)[0].1, "device dead after salvage + cut + recovery");
}
