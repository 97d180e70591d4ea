//! Golden pin for the whole sanitization-policy matrix.
//!
//! Every checked-in `BENCH_*.json` and the golden checkpoint run `secSSD`
//! or the baseline with faults off, so nothing byte-level watched
//! `secSSD_nobLock`, `erSSD` or `scrSSD`, the coalescing queue under a
//! window, or any policy under a fault storm and across a recovery. This
//! suite does: five policies × `lock_coalescing` {off, on, window 16} ×
//! faults {none, storm} each run one seeded overwrite / trim / GC-pressure
//! trace through [`Emulator`] with three mid-trace power cuts and recoveries, and
//! two FNV digests must equal the constants checked in under `tests/data/`:
//! one of everything the run left behind, and one of all of it but the
//! FTL's checkpoint bytes. A refactor of the FTL that changes one NAND
//! command, one counter or one decision-log line in any cell fails here;
//! one that changes only how the FTL stores its tables moves the first
//! column and leaves the second.
//!
//! Each cell also checks the security contract directly: after the final
//! flush no acknowledged-dead secured tag is recoverable from any chip,
//! `Emulator::verify_sanitized` agrees, and the FTL's invariants hold.

use evanesco::core::fault::FaultConfig;
use evanesco::ftl::observer::NullObserver;
use evanesco::ftl::{DecisionLevel, FtlStats, SanitizePolicy};
use evanesco::nand::math::{fnv1a, FNV1A_OFFSET, FNV1A_PRIME};
use evanesco::nand::snapshot::Enc;
use evanesco::nand::timing::Nanos;
use evanesco::ssd::{Emulator, SsdConfig};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/policy_matrix_golden.txt");

/// Host requests per cell after the prefill.
const OPS: u64 = 1400;
/// Request indices at which a power cut is armed.
const CUTS: [u64; 3] = [400, 700, 1000];

/// `(label, coalesce_window)`; `None` leaves lock coalescing off.
const COALESCING: [(&str, Option<u64>); 3] = [("off", None), ("on", Some(64)), ("w16", Some(16))];

/// Lock failures frequent enough to exhaust both retry budgets (and the
/// per-page budget inside a demoted `bLock`), program and erase failures
/// frequent enough to remap, retry and retire.
fn storm() -> FaultConfig {
    FaultConfig { erase_fail: 0.03, ..FaultConfig::storm(0.6, 0x5EED) }
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, b: &[u8]) {
        self.0 = fnv1a(self.0, b);
        // Length-delimit so adjacent fields cannot trade bytes.
        self.0 = (self.0 ^ b.len() as u64).wrapping_mul(FNV1A_PRIME);
    }
}

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// What the device owes the host: the acknowledged version of each logical
/// page, and every secured tag an acknowledged overwrite or trim killed.
#[derive(Default)]
struct Shadow {
    current: HashMap<u64, (u64, bool)>,
    dead_secure: HashSet<u64>,
}

impl Shadow {
    fn write(&mut self, lpa: u64, tracked: Vec<(u64, bool)>, secure: bool) {
        for (i, (tag, acked)) in tracked.into_iter().enumerate() {
            if !acked {
                continue;
            }
            if let Some((old, true)) = self.current.insert(lpa + i as u64, (tag, secure)) {
                self.dead_secure.insert(old);
            }
        }
    }

    fn trim(&mut self, lpa: u64, n: u64) {
        for l in lpa..lpa + n {
            if let Some((old, true)) = self.current.remove(&l) {
                self.dead_secure.insert(old);
            }
        }
    }
}

/// One host request of the seeded trace; a trim covers up to `trim.1`
/// pages of the first `trim.0` logical pages.
fn step(ssd: &mut Emulator, shadow: &mut Shadow, rng: &mut Lcg, span: u64, trim: (u64, u64)) {
    let hot = span / 4;
    match rng.next() % 20 {
        // Hot overwrites: the invalidation path, one to four pages.
        0..=11 => {
            let n = 1 + rng.next() % 4;
            let lpa = rng.next() % (hot - n);
            let secure = !rng.next().is_multiple_of(8);
            let tracked = ssd.write_tracked(lpa, n, secure);
            shadow.write(lpa, tracked, secure);
        }
        // Cold overwrites keep GC victims mixed.
        12..=14 => {
            let n = 1 + rng.next() % 8;
            let lpa = rng.next() % (span - n);
            let secure = !rng.next().is_multiple_of(4);
            let tracked = ssd.write_tracked(lpa, n, secure);
            shadow.write(lpa, tracked, secure);
        }
        15..=16 => {
            let n = 1 + rng.next() % trim.1;
            let lpa = rng.next() % (trim.0 - n);
            if ssd.trim_with(&mut NullObserver, lpa, n) {
                shadow.trim(lpa, n);
            }
        }
        _ => {
            let n = 1 + rng.next() % 8;
            let lpa = rng.next() % (span - n);
            let _ = ssd.read(lpa, n);
        }
    }
}

/// Runs one matrix cell and returns `((full-state digest, behaviour
/// digest), FtlStats, torn locks recovery completed)`: its `relocked_pages
/// + reissued_blocks`, the recovery-side rung (their retries and fallbacks
/// count in the `FtlStats` rungs).
fn run_cell(
    policy: SanitizePolicy,
    window: Option<u64>,
    faults: FaultConfig,
) -> ((u64, u64), FtlStats, u64) {
    let mut cfg = SsdConfig::tiny_for_tests();
    cfg.ftl.lock_coalescing = window.is_some();
    cfg.ftl.coalesce_window = window.unwrap_or(cfg.ftl.coalesce_window);
    cfg.ftl.faults = faults;
    // Recovery seals the open block and re-derives the reclaimable list
    // from flash; a two-block reserve can come back from the cut empty.
    cfg.ftl.gc_free_threshold = 4;
    let mut ssd = Emulator::new(cfg, policy);
    ssd.enable_decision_log(1 << 16, DecisionLevel::Info);
    let mut shadow = Shadow::default();
    let mut rng = Lcg(0xE7A9_E5C0);

    // Prefill 65 % of the logical space, one page in four insecure, so the
    // churn below runs against the GC threshold from the start.
    let span = ssd.logical_pages() * 65 / 100;
    for lpa in (0..span).step_by(8) {
        let n = 8.min(span - lpa);
        let secure = (lpa / 8) % 4 != 3;
        let tracked = ssd.write_tracked(lpa, n, secure);
        shadow.write(lpa, tracked, secure);
    }

    // Trimmed data that is insecure (or any, under the baseline) has no
    // on-flash tombstone and resurrects across a cut, so until the last
    // recovery trims stay small and inside the hot quarter, where the next
    // overwrite outranks the resurrected version: a 32-block device that
    // comes back with every reclaimable block live again has nothing to
    // collect into.
    let mut trim = (span / 4, 4);
    for i in 0..OPS {
        if CUTS.contains(&i) {
            // Arm the cut a fraction of a program into the future and keep
            // issuing requests until one is caught by it.
            ssd.power_cut_at(Nanos(ssd.result().sim_time.0 + 180_000 + rng.next() % 400_000));
            while !ssd.powered_off() {
                step(&mut ssd, &mut shadow, &mut rng, span, trim);
            }
            ssd.recover();
            if i == CUTS[CUTS.len() - 1] {
                trim = (span, 48);
            }
        }
        step(&mut ssd, &mut shadow, &mut rng, span, trim);
    }
    ssd.flush_coalesced_locks();

    ssd.ftl().check_invariants();
    let mut recoverable: Vec<u64> = ssd.attacker_recoverable_tags().into_iter().collect();
    recoverable.sort_unstable();
    if policy.is_immediate() {
        let leaked: Vec<u64> =
            recoverable.iter().copied().filter(|t| shadow.dead_secure.contains(t)).collect();
        assert!(leaked.is_empty(), "{policy}: dead secured tags recoverable: {leaked:?}");
    }

    let result = ssd.result();
    let mut state = Enc::new();
    ssd.ftl().encode_state(&mut state);
    let (state, log) = (state.into_bytes(), ssd.decision_log().render());
    // Everything the run left behind, and the same without the FTL's own
    // checkpoint bytes: a change to how the FTL stores its tables moves
    // only the first.
    let digest = |state: &[u8]| {
        let mut h = Fnv(FNV1A_OFFSET);
        h.bytes(format!("{:?}", result.ftl).as_bytes());
        h.bytes(format!("{:?}", result.recovery).as_bytes());
        h.bytes(&result.sim_time.0.to_le_bytes());
        if !state.is_empty() {
            h.bytes(state);
        }
        h.bytes(log.as_bytes());
        for t in &recoverable {
            h.bytes(&t.to_le_bytes());
        }
        h.0
    };
    // The flash-side verifier agrees with the shadow (after the digest: its
    // sweep reads every page again).
    if policy.is_immediate() {
        let logical = ssd.logical_pages();
        assert!(ssd.verify_sanitized(0, logical), "{policy}: verify_sanitized finds a leak");
    }
    let scans = result.recovery.report;
    ((digest(&state), digest(&[])), result.ftl, scans.relocked_pages + scans.reissued_blocks)
}

/// One line per cell, `policy coalescing faults full-state behaviour`.
fn run_matrix() -> String {
    let mut out = String::new();
    let mut rungs = [0u64; 9];
    for policy in SanitizePolicy::ALL {
        for (clabel, window) in COALESCING {
            for (flabel, faults) in [("none", FaultConfig::none()), ("storm", storm())] {
                // Shown only when the cell fails: names the one that panicked.
                eprintln!("cell {policy} {clabel} {flabel}");
                let ((full, behaviour), s, recovery_relocks) = run_cell(policy, window, faults);
                writeln!(out, "{policy} {clabel} {flabel} {full:016x} {behaviour:016x}").unwrap();
                assert!(s.copied_pages > 0, "{policy} {clabel} {flabel}: no relocation pressure");
                if flabel == "storm" {
                    for (sum, v) in rungs.iter_mut().zip([
                        s.plock_retries,
                        s.plock_escalations,
                        s.lock_scrub_fallbacks,
                        s.block_lock_retries,
                        s.block_lock_fallbacks,
                        s.program_fail_remaps,
                        s.erase_retries,
                        s.retired_blocks,
                        recovery_relocks,
                    ]) {
                        *sum += v;
                    }
                }
            }
        }
    }
    assert!(rungs.iter().all(|&v| v > 0), "the storm must reach every ladder rung: {rungs:?}");
    out
}

/// `cargo test --test policy_matrix_golden regen -- --ignored`
#[test]
#[ignore = "rewrites the golden digests; run only on a reviewed behaviour change"]
fn regen_policy_matrix_golden() {
    std::fs::write(GOLDEN, run_matrix()).expect("write golden digests");
}

#[test]
fn policy_matrix_matches_the_golden_digests() {
    let golden = std::fs::read_to_string(GOLDEN).expect("checked-in digests exist");
    let got = run_matrix();
    for (g, w) in got.lines().zip(golden.lines()) {
        assert_eq!(g, w, "cell diverged from the checked-in digests (got, want)");
    }
    assert_eq!(got.lines().count(), golden.lines().count(), "matrix shape changed");
}
