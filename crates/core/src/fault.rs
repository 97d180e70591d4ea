//! Runtime chip fault model: deterministic, seedable injection of the
//! failure modes the paper's characterization exposes (§4, §6.2).
//!
//! Evanesco's commands are not infallible. One-shot flag programming fails
//! at weak design corners (per-cell success as low as 47.3 % at
//! `(Vp1, 100 µs)`), program status can report FAIL after a marginal pulse,
//! erases wear out, and raw bit-error rates drift toward the ECC limit with
//! P/E cycling, retention, and read disturb. The FTL's reliability manager
//! (`evanesco-ftl`) must absorb all of these without ever weakening the
//! sanitization guarantee — this module is the hazard generator it is
//! tested against.
//!
//! Determinism contract: every draw is a pure hash of
//! `(seed, chip, op kind, block, page, per-location attempt ordinal)` —
//! **never** of global dispatch order. Two runs that issue the same
//! per-location command sequences see the same faults even if the commands
//! interleave differently across chips, which is what keeps the scheduler's
//! queue-depth equivalence guarantee intact with faults enabled.

use crate::calibration::DesignPoint;
use crate::chip::unit_draw;
use crate::pap::majority_failure_prob;
use evanesco_nand::ecc::EccModel;
use evanesco_nand::math::prob_above;
use std::collections::HashMap;

/// Status-register outcome of a chip operation (the NAND `READ STATUS`
/// model): every `program`/`erase`/`pLock`/`bLock` completes its bus/array
/// timing and then reports pass or fail.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OpStatus {
    /// The operation passed program/erase verify.
    #[default]
    Ok,
    /// The operation failed verify; its target is left in the documented
    /// failure state (torn flags, torn page, un-erased block).
    Failed,
}

impl OpStatus {
    /// Whether the operation passed.
    pub fn is_ok(self) -> bool {
        self == OpStatus::Ok
    }
}

/// Probabilities and knobs of the chip fault model. All probabilities are
/// per-command; zero disables that fault class entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Base seed; each chip salts it with its own id.
    pub seed: u64,
    /// Program-status failure probability per `program` command. The failed
    /// page is consumed and holds an unreliable partial program.
    pub program_fail: f64,
    /// Erase-status failure probability per `erase` command. A failed erase
    /// leaves data *and* lock flags intact.
    pub erase_fail: f64,
    /// One-shot `pLock` flag-program failure probability (the k-cell
    /// majority fails to reach the locked decode).
    pub plock_fail: f64,
    /// One-shot `bLock` SSL-program failure probability.
    pub block_lock_fail: f64,
    /// Probability that the first sense of a data read exceeds the ECC
    /// limit (uncorrectable), triggering the read-retry ladder.
    pub read_unc: f64,
    /// Multiplier applied to the failure probability on each reference-shift
    /// retry (retries re-sense with moved read references, so each attempt
    /// is easier than the last).
    pub read_retry_decay: f64,
    /// Reference-shift retries the chip firmware attempts before declaring
    /// the read uncorrectable and falling back to soft-decision recovery.
    pub read_retry_budget: u32,
}

impl FaultConfig {
    /// No faults: every command succeeds (the pre-reliability behavior).
    pub fn none() -> Self {
        FaultConfig {
            seed: 0,
            program_fail: 0.0,
            erase_fail: 0.0,
            plock_fail: 0.0,
            block_lock_fail: 0.0,
            read_unc: 0.0,
            read_retry_decay: 0.25,
            read_retry_budget: 4,
        }
    }

    /// A fault storm scaled by `severity` ∈ [0, 1]: lock failures dominate
    /// (they are the cheapest to trigger physically), program/erase status
    /// failures and uncorrectable reads ride along at lower rates.
    pub fn storm(severity: f64, seed: u64) -> Self {
        FaultConfig {
            seed,
            program_fail: severity * 0.25,
            erase_fail: severity * 0.25,
            plock_fail: severity,
            block_lock_fail: severity * 0.5,
            read_unc: severity * 0.1,
            read_retry_decay: 0.25,
            read_retry_budget: 4,
        }
    }

    /// Fault rates calibrated to the device models: `pLock` failure from
    /// the pAP majority curve at `point` (k = 9, day 0), `bLock` failure
    /// from the same per-cell physics across two independent SSL gates, and
    /// the uncorrectable-read rate from the RBER/ECC model via
    /// [`unc_probability`].
    pub fn calibrated(point: DesignPoint, rber: f64, seed: u64) -> Self {
        let plock = majority_failure_prob(point, 0.0, 9).clamp(0.0, 1.0);
        FaultConfig {
            seed,
            // Program/erase status failures are rare events on healthy
            // blocks; the grown-bad-block path is exercised by `storm`.
            program_fail: 1e-4,
            erase_fail: 1e-4,
            plock_fail: plock,
            block_lock_fail: (plock * plock).clamp(0.0, 1.0),
            read_unc: unc_probability(rber, &EccModel::new()),
            read_retry_decay: 0.25,
            read_retry_budget: 4,
        }
    }

    /// Whether any fault class is enabled.
    pub fn any(&self) -> bool {
        self.program_fail > 0.0
            || self.erase_fail > 0.0
            || self.plock_fail > 0.0
            || self.block_lock_fail > 0.0
            || self.read_unc > 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// Probability that a codeword at the given raw bit-error rate exceeds the
/// ECC correction limit (normal approximation of the binomial error-count
/// tail over the codeword bits).
pub fn unc_probability(rber: f64, ecc: &EccModel) -> f64 {
    if rber <= 0.0 {
        return 0.0;
    }
    let n = f64::from(ecc.codeword_bytes) * 8.0;
    let mean = n * rber;
    let sd = (n * rber * (1.0 - rber)).sqrt().max(1e-12);
    prob_above(mean, sd, f64::from(ecc.t_bits) + 0.5).clamp(0.0, 1.0)
}

evanesco_nand::counters! {
    /// Per-chip injected-failure counters. Every `true` returned by a
    /// [`FaultModel`] query is counted here, so the FTL's response counters
    /// can be audited against the hazards actually injected.
    FaultStats;
    /// Program commands that failed status.
    program_failures: "Injected program-status failures.",
    /// Erase commands that failed status.
    erase_failures: "Injected erase-status failures.",
    /// `pLock` commands that failed flag-program verify (including forced
    /// test-hook failures).
    plock_failures: "Injected pLock verify failures.",
    /// `bLock` commands that failed SSL-program verify (including forced
    /// test-hook failures).
    block_lock_failures: "Injected bLock verify failures.",
    /// Extra reference-shift read attempts performed by the retry ladder.
    read_retries: "Read-retry rounds performed.",
    /// Reads still uncorrectable after the full retry ladder (recovered via
    /// soft-decision fallback; counted as reliability events).
    unc_reads: "Uncorrectable reads after all retries.",
}

impl FaultStats {
    /// Accumulates another chip's counters into this one.
    pub fn absorb(&mut self, other: FaultStats) {
        let (sum, add) = (self.as_array(), other.as_array());
        *self = Self::from_array(std::array::from_fn(|i| sum[i] + add[i]));
    }

    /// Total injected command failures (excluding read events).
    pub fn command_failures(&self) -> u64 {
        self.program_failures + self.erase_failures + self.plock_failures + self.block_lock_failures
    }

    /// Field-wise difference `self − earlier` (counters accumulated since
    /// an earlier snapshot).
    pub fn since(&self, earlier: &FaultStats) -> FaultStats {
        let (now, then) = (self.as_array(), earlier.as_array());
        Self::from_array(std::array::from_fn(|i| now[i] - then[i]))
    }
}

/// Outcome of the read-retry ladder for one data read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadReliability {
    /// Reference-shift retries performed (0 = first sense decoded).
    pub retries: u32,
    /// The ladder was exhausted; the data was recovered by soft-decision
    /// decoding (slow path) and the event counted in
    /// [`FaultStats::unc_reads`].
    pub uncorrectable: bool,
}

const K_PLOCK: u8 = 1;
const K_BLOCK: u8 = 2;
const K_PROGRAM: u8 = 3;
const K_ERASE: u8 = 4;
const K_READ: u8 = 5;

/// Deterministic per-chip fault generator. Owned by each
/// [`crate::chip::EvanescoChip`]; queried once per fallible command.
#[derive(Debug, Clone)]
pub struct FaultModel {
    cfg: FaultConfig,
    chip_salt: u64,
    /// Unified test hook (formerly `forced_lock_failures` on the chip): the
    /// next N lock commands fail verify regardless of probabilities.
    forced_lock_failures: u32,
    stats: FaultStats,
    /// Per-(kind, block, page) attempt ordinals, so repeated commands on
    /// one location draw an independent hazard each time without depending
    /// on what other locations did in between.
    attempts: HashMap<(u8, u32, u32), u32>,
}

impl FaultModel {
    /// A model for one chip; `chip_id` decorrelates chips sharing a seed.
    pub fn new(cfg: FaultConfig, chip_id: u64) -> Self {
        FaultModel {
            cfg,
            chip_salt: cfg.seed ^ chip_id.wrapping_mul(0xA076_1D64_78BD_642F),
            forced_lock_failures: 0,
            stats: FaultStats::default(),
            attempts: HashMap::new(),
        }
    }

    /// A fault-free model (every query answers "no fault").
    pub fn disabled() -> Self {
        Self::new(FaultConfig::none(), 0)
    }

    /// The configuration in force.
    pub fn config(&self) -> FaultConfig {
        self.cfg
    }

    /// Injected-failure counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Forces the next `n` lock commands (`pLock` or `bLock`) to fail
    /// verify. Shared with the probabilistic path: forced failures are
    /// consumed one per lock command and counted in [`FaultStats`].
    pub fn force_lock_failures(&mut self, n: u32) {
        self.forced_lock_failures += n;
    }

    fn consume_forced(&mut self) -> bool {
        if self.forced_lock_failures > 0 {
            self.forced_lock_failures -= 1;
            true
        } else {
            false
        }
    }

    fn ordinal(&mut self, kind: u8, block: u32, page: u32) -> u32 {
        let n = self.attempts.entry((kind, block, page)).or_insert(0);
        let v = *n;
        *n += 1;
        v
    }

    fn draw(&self, kind: u8, block: u32, page: u32, ordinal: u32, extra: u32) -> f64 {
        unit_draw(
            self.chip_salt ^ (u64::from(kind) << 56),
            u64::from(block),
            u64::from(page),
            u64::from(ordinal) | (u64::from(extra) << 32),
        )
    }

    /// Does this `pLock` of `(block, page)` fail verify?
    pub fn plock_fails(&mut self, block: u32, page: u32) -> bool {
        if self.consume_forced() {
            self.stats.plock_failures += 1;
            return true;
        }
        if self.cfg.plock_fail <= 0.0 {
            return false;
        }
        let n = self.ordinal(K_PLOCK, block, page);
        let fail = self.draw(K_PLOCK, block, page, n, 0) < self.cfg.plock_fail;
        if fail {
            self.stats.plock_failures += 1;
        }
        fail
    }

    /// Does this `bLock` of `block` fail verify?
    pub fn block_lock_fails(&mut self, block: u32) -> bool {
        if self.consume_forced() {
            self.stats.block_lock_failures += 1;
            return true;
        }
        if self.cfg.block_lock_fail <= 0.0 {
            return false;
        }
        let n = self.ordinal(K_BLOCK, block, 0);
        let fail = self.draw(K_BLOCK, block, 0, n, 0) < self.cfg.block_lock_fail;
        if fail {
            self.stats.block_lock_failures += 1;
        }
        fail
    }

    /// Does this `program` of `(block, page)` fail status?
    pub fn program_fails(&mut self, block: u32, page: u32) -> bool {
        if self.cfg.program_fail <= 0.0 {
            return false;
        }
        let n = self.ordinal(K_PROGRAM, block, page);
        let fail = self.draw(K_PROGRAM, block, page, n, 0) < self.cfg.program_fail;
        if fail {
            self.stats.program_failures += 1;
        }
        fail
    }

    /// Does this `erase` of `block` fail status?
    pub fn erase_fails(&mut self, block: u32) -> bool {
        if self.cfg.erase_fail <= 0.0 {
            return false;
        }
        let n = self.ordinal(K_ERASE, block, 0);
        let fail = self.draw(K_ERASE, block, 0, n, 0) < self.cfg.erase_fail;
        if fail {
            self.stats.erase_failures += 1;
        }
        fail
    }

    /// Serializes the model's **dynamic** state — forced-failure hook,
    /// injected-failure counters, and per-location attempt ordinals — into
    /// a checkpoint stream. The configuration and chip salt are *not*
    /// stored: they are rebuilt from the device config on restore, keeping
    /// the hazard stream a pure function of `(config, state)`.
    pub fn encode_state(&self, e: &mut evanesco_nand::snapshot::Enc) {
        e.tag(0x20);
        e.u32(self.forced_lock_failures);
        self.stats.encode_snapshot(e);
        // HashMap iteration order is nondeterministic per-instance; sort the
        // keys so identical states serialize to identical bytes.
        let mut keys: Vec<_> = self.attempts.keys().copied().collect();
        keys.sort_unstable();
        e.usize(keys.len());
        for k in keys {
            e.u8(k.0);
            e.u32(k.1);
            e.u32(k.2);
            e.u32(self.attempts[&k]);
        }
    }

    /// Restores dynamic state written by [`FaultModel::encode_state`] into
    /// a freshly-constructed model (same config + chip id).
    ///
    /// # Errors
    ///
    /// Fails on truncation or structural corruption.
    pub fn decode_state(
        &mut self,
        d: &mut evanesco_nand::snapshot::Dec<'_>,
    ) -> Result<(), evanesco_nand::snapshot::SnapshotError> {
        d.expect_tag(0x20, "fault-model")?;
        self.forced_lock_failures = d.u32()?;
        self.stats = FaultStats::decode_snapshot(d)?;
        self.attempts.clear();
        let n = d.usize()?;
        for _ in 0..n {
            let k = (d.u8()?, d.u32()?, d.u32()?);
            let v = d.u32()?;
            self.attempts.insert(k, v);
        }
        Ok(())
    }

    /// Runs the read-retry ladder for one data read of `(block, page)`:
    /// draws the initial-sense hazard, then up to
    /// [`FaultConfig::read_retry_budget`] reference-shift retries with the
    /// failure probability decayed per attempt.
    pub fn read_outcome(&mut self, block: u32, page: u32) -> ReadReliability {
        if self.cfg.read_unc <= 0.0 {
            return ReadReliability::default();
        }
        let n = self.ordinal(K_READ, block, page);
        let mut p = self.cfg.read_unc;
        for attempt in 0..=self.cfg.read_retry_budget {
            if self.draw(K_READ, block, page, n, attempt) >= p {
                self.stats.read_retries += u64::from(attempt);
                return ReadReliability { retries: attempt, uncorrectable: false };
            }
            p *= self.cfg.read_retry_decay;
        }
        self.stats.read_retries += u64::from(self.cfg.read_retry_budget);
        self.stats.unc_reads += 1;
        ReadReliability { retries: self.cfg.read_retry_budget, uncorrectable: true }
    }
}

const K_CORRUPT: u8 = 6;

/// splitmix64 finalizer: the integer-valued companion of
/// [`crate::chip::unit_draw`], used where a corruption draw needs raw bits
/// (cell index, bit position) rather than a unit-interval probability.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FTL RAM structure targeted by one injected metadata corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptTarget {
    /// The logical-to-physical mapping table.
    L2pMap,
    /// Per-block live/invalid counters and the per-chip running totals.
    Counters,
    /// The lock-coalescing queue (deferred `pLock` intent).
    CoalesceQueue,
    /// The grown-bad-block table (retired marks).
    BadBlockTable,
    /// The GC victim index (live-count buckets).
    VictimIndex,
}

impl CorruptTarget {
    /// Every target, in draw order.
    pub const ALL: [CorruptTarget; 5] = [
        CorruptTarget::L2pMap,
        CorruptTarget::Counters,
        CorruptTarget::CoalesceQueue,
        CorruptTarget::BadBlockTable,
        CorruptTarget::VictimIndex,
    ];

    /// Stable label (metrics, reports).
    pub fn label(self) -> &'static str {
        match self {
            CorruptTarget::L2pMap => "l2p_map",
            CorruptTarget::Counters => "counters",
            CorruptTarget::CoalesceQueue => "coalesce_queue",
            CorruptTarget::BadBlockTable => "bad_block_table",
            CorruptTarget::VictimIndex => "victim_index",
        }
    }

    fn index(self) -> usize {
        match self {
            CorruptTarget::L2pMap => 0,
            CorruptTarget::Counters => 1,
            CorruptTarget::CoalesceQueue => 2,
            CorruptTarget::BadBlockTable => 3,
            CorruptTarget::VictimIndex => 4,
        }
    }
}

/// Knobs of the metadata-corruption injector. Like [`FaultConfig`], zero
/// disables injection entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionConfig {
    /// Seed of the keyed draw stream.
    pub seed: u64,
    /// Per-host-op-boundary probability that one corruption is injected.
    pub rate: f64,
}

impl CorruptionConfig {
    /// No corruption: the guard machinery runs but nothing is injected.
    pub fn none() -> Self {
        CorruptionConfig { seed: 0, rate: 0.0 }
    }

    /// A corruption storm at `rate` per host-op boundary.
    pub fn storm(rate: f64, seed: u64) -> Self {
        CorruptionConfig { seed, rate }
    }

    /// Whether injection is enabled at all.
    pub fn any(&self) -> bool {
        self.rate > 0.0
    }
}

impl Default for CorruptionConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// Injected-corruption counters, per target structure. The FTL guard's
/// detected/repaired counters must reconcile exactly against these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorruptionStats {
    /// Total corruptions injected.
    pub injected: u64,
    /// Injections per [`CorruptTarget`] (indexed as [`CorruptTarget::ALL`]).
    pub per_target: [u64; 5],
}

/// One corruption event: which structure to damage and raw key material
/// for picking the cell and bit inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptionHit {
    /// Structure the draw selected (the applier may fall through to
    /// [`CorruptTarget::L2pMap`] when the drawn structure is empty; it
    /// reports the target actually damaged via
    /// [`CorruptionModel::note_injected`]).
    pub target: CorruptTarget,
    /// Well-mixed key material for cell/bit selection.
    pub salt: u64,
}

/// Deterministic metadata-corruption generator.
///
/// Determinism contract (mirrors [`FaultModel`]): every draw is a pure
/// hash of `(seed, op-ordinal)` where the ordinal counts completed
/// host-op boundaries — **never** global dispatch order or wall clock —
/// so a queue-depth-1 run and a queue-depth-8 run of the same workload
/// inject the same corruption stream.
#[derive(Debug, Clone)]
pub struct CorruptionModel {
    cfg: CorruptionConfig,
    ordinal: u64,
    stats: CorruptionStats,
}

impl CorruptionModel {
    /// A model drawing from `cfg`'s keyed stream.
    pub fn new(cfg: CorruptionConfig) -> Self {
        CorruptionModel { cfg, ordinal: 0, stats: CorruptionStats::default() }
    }

    /// The configuration in force.
    pub fn config(&self) -> CorruptionConfig {
        self.cfg
    }

    /// Injected-corruption counters so far.
    pub fn stats(&self) -> CorruptionStats {
        self.stats
    }

    /// Host-op boundaries consumed so far.
    pub fn boundaries(&self) -> u64 {
        self.ordinal
    }

    /// Draws the corruption decision for the next host-op boundary. The
    /// ordinal advances whether or not a hit fires, keeping the stream a
    /// pure function of the boundary count.
    pub fn next_boundary(&mut self) -> Option<CorruptionHit> {
        let n = self.ordinal;
        self.ordinal += 1;
        if self.cfg.rate <= 0.0 {
            return None;
        }
        let key = self.cfg.seed ^ (u64::from(K_CORRUPT) << 56);
        if unit_draw(key, n, 0, 0) >= self.cfg.rate {
            return None;
        }
        let pick = unit_draw(key, n, 1, 0) * CorruptTarget::ALL.len() as f64;
        let target = CorruptTarget::ALL[(pick as usize).min(CorruptTarget::ALL.len() - 1)];
        Some(CorruptionHit { target, salt: mix64(key ^ n.wrapping_mul(0x2545_F491_4F6C_DD1D)) })
    }

    /// Records the corruption actually applied (the applier may have fallen
    /// through from an empty drawn structure to the always-present L2P map).
    pub fn note_injected(&mut self, target: CorruptTarget) {
        self.stats.injected += 1;
        self.stats.per_target[target.index()] += 1;
    }
}

/// Flips one keyed-drawn bit of a serialized checkpoint: the
/// checkpoint-bytes leg of the corruption injector. Returns the damaged
/// `(offset, bit)` so the caller can report it; `None` for an empty blob.
pub fn corrupt_checkpoint_bytes(seed: u64, ordinal: u64, bytes: &mut [u8]) -> Option<(usize, u8)> {
    if bytes.is_empty() {
        return None;
    }
    let h =
        mix64(seed ^ (u64::from(K_CORRUPT) << 56) ^ ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let offset = (h % bytes.len() as u64) as usize;
    let bit = ((h >> 56) % 8) as u8;
    bytes[offset] ^= 1 << bit;
    Some((offset, bit))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_model_never_fails() {
        let mut m = FaultModel::disabled();
        for b in 0..8 {
            for p in 0..8 {
                assert!(!m.plock_fails(b, p));
                assert!(!m.program_fails(b, p));
                assert_eq!(m.read_outcome(b, p), ReadReliability::default());
            }
            assert!(!m.block_lock_fails(b));
            assert!(!m.erase_fails(b));
        }
        assert_eq!(m.stats(), FaultStats::default());
    }

    #[test]
    fn draws_are_deterministic_and_location_keyed() {
        let cfg = FaultConfig::storm(0.5, 42);
        let mut a = FaultModel::new(cfg, 3);
        let mut b = FaultModel::new(cfg, 3);
        // Same per-location sequences in different global orders.
        let mut outcomes_a = Vec::new();
        for blk in 0..4 {
            for attempt in 0..3 {
                let _ = attempt;
                outcomes_a.push(a.plock_fails(blk, 1));
            }
        }
        let mut outcomes_b = vec![false; 12];
        for attempt in 0..3 {
            let _ = attempt;
            for blk in (0..4).rev() {
                let n = b.attempts.get(&(K_PLOCK, blk, 1)).copied().unwrap_or(0);
                outcomes_b[(blk * 3 + n) as usize] = b.plock_fails(blk, 1);
            }
        }
        assert_eq!(outcomes_a, outcomes_b);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn chips_with_same_seed_are_decorrelated() {
        let cfg = FaultConfig::storm(0.5, 7);
        let mut a = FaultModel::new(cfg, 0);
        let mut b = FaultModel::new(cfg, 1);
        let oa: Vec<bool> = (0..64).map(|i| a.plock_fails(i % 8, i / 8)).collect();
        let ob: Vec<bool> = (0..64).map(|i| b.plock_fails(i % 8, i / 8)).collect();
        assert_ne!(oa, ob);
    }

    #[test]
    fn forced_failures_consume_one_per_lock_command() {
        let mut m = FaultModel::disabled();
        m.force_lock_failures(2);
        assert!(m.plock_fails(0, 0));
        assert!(m.block_lock_fails(1));
        assert!(!m.plock_fails(0, 0));
        let s = m.stats();
        assert_eq!(s.plock_failures, 1);
        assert_eq!(s.block_lock_failures, 1);
    }

    #[test]
    fn failure_rate_tracks_configured_probability() {
        let cfg = FaultConfig { plock_fail: 0.3, ..FaultConfig::none() };
        let mut m = FaultModel::new(FaultConfig { seed: 9, ..cfg }, 0);
        let trials = 4000u32;
        let fails = (0..trials).filter(|&i| m.plock_fails(i % 64, i / 64)).count();
        let rate = fails as f64 / f64::from(trials);
        assert!((rate - 0.3).abs() < 0.05, "observed {rate}");
        assert_eq!(m.stats().plock_failures, fails as u64);
    }

    #[test]
    fn read_ladder_decays_and_counts() {
        let cfg = FaultConfig {
            read_unc: 1.0,
            read_retry_decay: 0.0,
            read_retry_budget: 4,
            ..FaultConfig::none()
        };
        let mut m = FaultModel::new(cfg, 0);
        // First sense always fails (p = 1.0); first retry always succeeds
        // (p decayed to 0).
        let out = m.read_outcome(0, 0);
        assert_eq!(out, ReadReliability { retries: 1, uncorrectable: false });
        assert_eq!(m.stats().read_retries, 1);
        assert_eq!(m.stats().unc_reads, 0);

        let cfg = FaultConfig { read_retry_decay: 1.0, ..cfg };
        let mut m = FaultModel::new(cfg, 0);
        let out = m.read_outcome(0, 0);
        assert!(out.uncorrectable);
        assert_eq!(out.retries, 4);
        assert_eq!(m.stats().unc_reads, 1);
    }

    #[test]
    fn snapshot_resumes_hazard_stream_exactly() {
        use evanesco_nand::snapshot::{Dec, Enc};
        let cfg = FaultConfig::storm(0.6, 77);
        let mut live = FaultModel::new(cfg, 2);
        live.force_lock_failures(3);
        for i in 0..40u32 {
            let _ = live.plock_fails(i % 5, i % 7);
            let _ = live.program_fails(i % 5, i % 7);
            let _ = live.read_outcome(i % 5, i % 7);
        }
        let mut e = Enc::new();
        live.encode_state(&mut e);
        let bytes = e.into_bytes();
        let mut restored = FaultModel::new(cfg, 2);
        restored.decode_state(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(restored.stats(), live.stats());
        // Both continue with identical draws — no lost or repeated ordinals.
        for i in 0..60u32 {
            assert_eq!(restored.plock_fails(i % 5, i % 7), live.plock_fails(i % 5, i % 7));
            assert_eq!(restored.erase_fails(i % 5), live.erase_fails(i % 5));
            assert_eq!(restored.read_outcome(i % 5, i % 7), live.read_outcome(i % 5, i % 7));
        }
        assert_eq!(restored.stats(), live.stats());
    }

    #[test]
    fn calibrated_weak_corner_fails_about_half_the_time() {
        // (Vp1, 100µs): 47.3 % per-cell success -> the k = 9 majority fails
        // roughly half the time, the acceptance corner for the escalation
        // ladder.
        let cfg = FaultConfig::calibrated(DesignPoint::new(1, 100), 0.0, 1);
        assert!(cfg.plock_fail > 0.4 && cfg.plock_fail < 0.7, "plock_fail {}", cfg.plock_fail);
        // The paper's selected point is effectively fault-free.
        let good = FaultConfig::calibrated(DesignPoint::new(4, 100), 0.0, 1);
        assert!(good.plock_fail < 1e-6);
    }

    #[test]
    fn corruption_stream_is_deterministic_and_ordinal_keyed() {
        let cfg = CorruptionConfig::storm(0.4, 99);
        let mut a = CorruptionModel::new(cfg);
        let mut b = CorruptionModel::new(cfg);
        let ha: Vec<_> = (0..200).map(|_| a.next_boundary()).collect();
        let hb: Vec<_> = (0..200).map(|_| b.next_boundary()).collect();
        assert_eq!(ha, hb, "same seed, same boundary stream");
        let fired = ha.iter().filter(|h| h.is_some()).count();
        let rate = fired as f64 / 200.0;
        assert!((rate - 0.4).abs() < 0.15, "observed {rate}");
        // Every target is eventually drawn.
        for t in CorruptTarget::ALL {
            assert!(ha.iter().flatten().any(|h| h.target == t), "target {} never drawn", t.label());
        }
    }

    #[test]
    fn corruption_disabled_never_fires_but_ordinal_advances() {
        let mut m = CorruptionModel::new(CorruptionConfig::none());
        assert!(!m.config().any());
        for _ in 0..50 {
            assert_eq!(m.next_boundary(), None);
        }
        assert_eq!(m.boundaries(), 50);
        assert_eq!(m.stats(), CorruptionStats::default());
    }

    #[test]
    fn note_injected_attributes_per_target() {
        let mut m = CorruptionModel::new(CorruptionConfig::storm(1.0, 5));
        m.note_injected(CorruptTarget::L2pMap);
        m.note_injected(CorruptTarget::L2pMap);
        m.note_injected(CorruptTarget::VictimIndex);
        let s = m.stats();
        assert_eq!(s.injected, 3);
        assert_eq!(s.per_target[CorruptTarget::L2pMap.index()], 2);
        assert_eq!(s.per_target[CorruptTarget::VictimIndex.index()], 1);
        assert_eq!(s.per_target.iter().sum::<u64>(), s.injected);
    }

    #[test]
    fn checkpoint_byte_corruption_is_keyed_and_flips_one_bit() {
        let original = vec![0u8; 64];
        let mut a = original.clone();
        let mut b = original.clone();
        let hit_a = corrupt_checkpoint_bytes(7, 3, &mut a).unwrap();
        let hit_b = corrupt_checkpoint_bytes(7, 3, &mut b).unwrap();
        assert_eq!(hit_a, hit_b);
        assert_eq!(a, b);
        let flipped: Vec<_> = a.iter().zip(&original).filter(|(x, y)| x != y).collect();
        assert_eq!(flipped.len(), 1, "exactly one byte damaged");
        assert_eq!(a[hit_a.0] ^ original[hit_a.0], 1 << hit_a.1);
        // A different ordinal lands elsewhere (with overwhelming odds).
        let mut c = original.clone();
        let hit_c = corrupt_checkpoint_bytes(7, 4, &mut c).unwrap();
        assert_ne!(hit_a, hit_c);
        assert_eq!(corrupt_checkpoint_bytes(7, 0, &mut []), None);
    }

    #[test]
    fn unc_probability_tracks_ecc_limit() {
        let ecc = EccModel::new();
        assert_eq!(unc_probability(0.0, &ecc), 0.0);
        assert!(unc_probability(ecc.limit_rber() * 0.5, &ecc) < 1e-9);
        assert!(unc_probability(ecc.limit_rber() * 1.5, &ecc) > 0.99);
    }
}
