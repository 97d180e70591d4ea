//! Bounded, leveled FTL decision log.
//!
//! Answers "why did the FTL do that?" for the decisions that matter to
//! sanitization behaviour: GC victim selection (with the score that won),
//! the lock-coalescing queue lifecycle (enqueue / bLock promotion / aged
//! flush / erase supersession), the reliability escalation ladder, and
//! degraded-mode transitions. Every record carries the simulated timestamp
//! and the host logical tick at which the decision was taken, so entries
//! line up with the timeseries windows and VerTrace timelines.
//!
//! The log is observational only: recording reads the executor clock but
//! never issues a command or advances time, so enabled vs disabled runs
//! produce byte-identical simulated results (the same guarantee tracing
//! makes). It is disabled (zero capacity) by default and bounded when on —
//! the ring keeps the most recent `capacity` records and counts the rest
//! in [`DecisionLog::dropped`]. Records are stored packed in an
//! [`Arena`] ring, so the log never holds more than its capacity plus one
//! chunk.

use crate::ftl::DegradedMode;
use evanesco_nand::arena::{Arena, PackedNanos};
use evanesco_nand::timing::Nanos;

/// Severity of a logged decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum DecisionLevel {
    /// Routine policy decisions (GC victim picks, coalescing traffic).
    #[default]
    Info,
    /// Reliability escalations: the preferred mechanism failed and a
    /// stronger rung took over.
    Warn,
    /// Permanent state loss: block retirement, degraded-mode transitions.
    Error,
}

impl DecisionLevel {
    /// Stable lowercase label for exports.
    pub fn label(self) -> &'static str {
        match self {
            DecisionLevel::Info => "info",
            DecisionLevel::Warn => "warn",
            DecisionLevel::Error => "error",
        }
    }
}

/// The rung of the lock-failure escalation ladder that fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EscalationRung {
    /// A page's `pLock` retry budget ran out; block-level escalation began.
    PlockExhausted,
    /// A `bLock` settle failed its verify; demoted to per-page locks.
    BlockLockDemoted,
    /// A page's terminal `pLock` rung failed; in-place scrub destroyed it.
    ScrubFallback,
    /// Even the `bLock` after relocation failed; the block was erased on
    /// the spot (the erSSD fallback).
    SanitizeErase,
}

impl EscalationRung {
    /// Stable lowercase label for exports.
    pub fn label(self) -> &'static str {
        match self {
            EscalationRung::PlockExhausted => "plock_exhausted",
            EscalationRung::BlockLockDemoted => "block_lock_demoted",
            EscalationRung::ScrubFallback => "scrub_fallback",
            EscalationRung::SanitizeErase => "sanitize_erase",
        }
    }
}

/// One loggable FTL decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// GC picked `block` as the victim; `score` is the value that won the
    /// selection (invalid count for greedy, the cost-benefit ratio
    /// otherwise).
    GcVictim { chip: usize, block: u32, live: u32, invalid: u32, score: f64 },
    /// `pages` deferred `pLock`s joined the coalescing queue for `block`.
    CoalesceEnqueue { chip: usize, block: u32, pages: usize },
    /// A queue entry settled as one `bLock` covering `pages` locks.
    CoalescePromote { chip: usize, block: u32, pages: usize },
    /// A queue entry settled as `pages` individual `pLock`s (block not
    /// dead, or the batch was below the promotion threshold).
    CoalesceFlush { chip: usize, block: u32, pages: usize },
    /// A physical erase superseded `pages` locks still queued for `block`.
    CoalesceSupersede { chip: usize, block: u32, pages: usize },
    /// A reliability-escalation rung fired on `block`.
    Escalation { chip: usize, block: u32, rung: EscalationRung },
    /// `block` was retired as grown-bad.
    BlockRetired { chip: usize, block: u32 },
    /// The drive's service level degraded.
    DegradedTransition { from: DegradedMode, to: DegradedMode },
}

impl Decision {
    /// The severity this decision is logged at.
    pub fn level(&self) -> DecisionLevel {
        match self {
            Decision::GcVictim { .. }
            | Decision::CoalesceEnqueue { .. }
            | Decision::CoalescePromote { .. }
            | Decision::CoalesceFlush { .. }
            | Decision::CoalesceSupersede { .. } => DecisionLevel::Info,
            Decision::Escalation { .. } => DecisionLevel::Warn,
            Decision::BlockRetired { .. } | Decision::DegradedTransition { .. } => {
                DecisionLevel::Error
            }
        }
    }

    /// Stable kind label for exports.
    pub fn kind(&self) -> &'static str {
        match self {
            Decision::GcVictim { .. } => "gc_victim",
            Decision::CoalesceEnqueue { .. } => "coalesce_enqueue",
            Decision::CoalescePromote { .. } => "coalesce_promote",
            Decision::CoalesceFlush { .. } => "coalesce_flush",
            Decision::CoalesceSupersede { .. } => "coalesce_supersede",
            Decision::Escalation { .. } => "escalation",
            Decision::BlockRetired { .. } => "block_retired",
            Decision::DegradedTransition { .. } => "degraded_transition",
        }
    }
}

/// One record in the log: a decision plus when it was taken.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionRecord {
    /// Monotone sequence number across the whole run (survives ring
    /// eviction: `seq` of the oldest retained record tells how far back
    /// the window reaches).
    pub seq: u64,
    /// Simulated time of the decision.
    pub at: Nanos,
    /// Host logical tick (accepted host page writes so far).
    pub tick: u64,
    /// What was decided.
    pub decision: Decision,
}

impl DecisionRecord {
    /// Human-readable one-line rendering.
    pub fn render(&self) -> String {
        let head = format!(
            "[{}] t={}ns tick={} {}",
            self.decision.level().label(),
            self.at.0,
            self.tick,
            self.decision.kind()
        );
        let tail = match self.decision {
            Decision::GcVictim { chip, block, live, invalid, score } => {
                format!("chip={chip} block={block} live={live} invalid={invalid} score={score:.2}")
            }
            Decision::CoalesceEnqueue { chip, block, pages }
            | Decision::CoalescePromote { chip, block, pages }
            | Decision::CoalesceFlush { chip, block, pages }
            | Decision::CoalesceSupersede { chip, block, pages } => {
                format!("chip={chip} block={block} pages={pages}")
            }
            Decision::Escalation { chip, block, rung } => {
                format!("chip={chip} block={block} rung={}", rung.label())
            }
            Decision::BlockRetired { chip, block } => format!("chip={chip} block={block}"),
            Decision::DegradedTransition { from, to } => format!("{from:?} -> {to:?}"),
        };
        format!("{head} {tail}")
    }
}

/// Every rung and every degraded mode, in declaration order: a packed
/// record stores one as its discriminant.
const RUNGS: [EscalationRung; 4] = [
    EscalationRung::PlockExhausted,
    EscalationRung::BlockLockDemoted,
    EscalationRung::ScrubFallback,
    EscalationRung::SanitizeErase,
];
const MODES: [DegradedMode; 3] =
    [DegradedMode::Normal, DegradedMode::SpareLow, DegradedMode::ReadOnly];

/// A [`DecisionRecord`] as the ring stores it: 44 bytes (56 unpacked).
/// The sequence number is the record's ring position; chips, blocks and
/// page counts take 32 bits.
#[derive(Debug, Clone, Copy)]
struct PackedRecord {
    at: PackedNanos,
    tick: [u32; 2],
    /// A GC victim's score, as `f64` bits.
    score: [u32; 2],
    /// `[chip, block, live or pages, invalid]`, as the decision has them.
    words: [u32; 4],
    /// The variant, in declaration order.
    variant: u8,
    /// A rung's index, or a transition's `[from, to]` modes.
    detail: [u8; 2],
}

fn halves(v: u64) -> [u32; 2] {
    [v as u32, (v >> 32) as u32]
}

fn whole([lo, hi]: [u32; 2]) -> u64 {
    u64::from(hi) << 32 | u64::from(lo)
}

impl PackedRecord {
    /// # Panics
    ///
    /// Panics if a chip index or a page count needs more than 32 bits.
    fn pack(at: Nanos, tick: u64, decision: Decision) -> Self {
        let narrow = |v: usize| u32::try_from(v).expect("a logged chip or page count fits 32 bits");
        let (variant, words, score, detail) = match decision {
            Decision::GcVictim { chip, block, live, invalid, score } => {
                (0, [narrow(chip), block, live, invalid], score.to_bits(), [0; 2])
            }
            Decision::CoalesceEnqueue { chip, block, pages } => {
                (1, [narrow(chip), block, narrow(pages), 0], 0, [0; 2])
            }
            Decision::CoalescePromote { chip, block, pages } => {
                (2, [narrow(chip), block, narrow(pages), 0], 0, [0; 2])
            }
            Decision::CoalesceFlush { chip, block, pages } => {
                (3, [narrow(chip), block, narrow(pages), 0], 0, [0; 2])
            }
            Decision::CoalesceSupersede { chip, block, pages } => {
                (4, [narrow(chip), block, narrow(pages), 0], 0, [0; 2])
            }
            Decision::Escalation { chip, block, rung } => {
                (5, [narrow(chip), block, 0, 0], 0, [rung as u8, 0])
            }
            Decision::BlockRetired { chip, block } => (6, [narrow(chip), block, 0, 0], 0, [0; 2]),
            Decision::DegradedTransition { from, to } => (7, [0; 4], 0, [from as u8, to as u8]),
        };
        PackedRecord {
            at: at.into(),
            tick: halves(tick),
            score: halves(score),
            words,
            variant,
            detail,
        }
    }

    fn unpack(&self, seq: u64) -> DecisionRecord {
        let [chip, block, third, invalid] = self.words;
        let (chip, pages) = (chip as usize, third as usize);
        let decision = match self.variant {
            0 => Decision::GcVictim {
                chip,
                block,
                live: third,
                invalid,
                score: f64::from_bits(whole(self.score)),
            },
            1 => Decision::CoalesceEnqueue { chip, block, pages },
            2 => Decision::CoalescePromote { chip, block, pages },
            3 => Decision::CoalesceFlush { chip, block, pages },
            4 => Decision::CoalesceSupersede { chip, block, pages },
            5 => Decision::Escalation { chip, block, rung: RUNGS[usize::from(self.detail[0])] },
            6 => Decision::BlockRetired { chip, block },
            _ => Decision::DegradedTransition {
                from: MODES[usize::from(self.detail[0])],
                to: MODES[usize::from(self.detail[1])],
            },
        };
        DecisionRecord { seq, at: self.at.into(), tick: whole(self.tick), decision }
    }
}

/// Most records one chunk of the ring holds (44 KiB).
const CHUNK: usize = 1024;

/// The bounded, leveled ring of [`DecisionRecord`]s.
///
/// `capacity == 0` means disabled: recording is a no-op and nothing is
/// counted. When enabled, records below `min_level` are filtered out
/// (not counted as dropped), and the ring evicts oldest-first once full.
#[derive(Debug, Clone)]
pub struct DecisionLog {
    capacity: usize,
    min_level: DecisionLevel,
    ring: Arena<PackedRecord>,
    /// Records evicted from the ring because it was full.
    pub dropped: u64,
    /// Total records accepted (retained + dropped), by level
    /// `[info, warn, error]`.
    pub counts: [u64; 3],
}

impl Default for DecisionLog {
    fn default() -> Self {
        DecisionLog::disabled()
    }
}

impl DecisionLog {
    /// A disabled log (the default state of a fresh FTL).
    pub fn disabled() -> Self {
        DecisionLog::new(0, DecisionLevel::default())
    }

    /// An enabled log keeping at most `capacity` records at `min_level`+.
    /// Allocates nothing until the first record.
    pub fn new(capacity: usize, min_level: DecisionLevel) -> Self {
        let ring = Arena::for_ring(capacity.max(1), CHUNK);
        DecisionLog { capacity, min_level, ring, dropped: 0, counts: [0; 3] }
    }

    /// Whether recording does anything.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Appends a record (no-op when disabled or below the level filter).
    pub fn record(&mut self, at: Nanos, tick: u64, decision: Decision) {
        if self.capacity == 0 || decision.level() < self.min_level {
            return;
        }
        self.counts[decision.level() as usize] += 1;
        let record = PackedRecord::pack(at, tick, decision);
        self.dropped += u64::from(self.ring.push_evicting(self.capacity, record));
    }

    /// The retained records, oldest first, unpacked.
    pub fn records(&self) -> impl Iterator<Item = DecisionRecord> + '_ {
        self.ring.iter().zip(self.ring.released()..).map(|(r, seq)| r.unpack(seq))
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total records accepted over the run (retained + dropped).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Renders the retained records as text, one line each.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.dropped > 0 {
            out.push_str(&format!("... {} older records dropped ...\n", self.dropped));
        }
        for r in self.records() {
            out.push_str(&r.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(log: &mut DecisionLog, i: u64, d: Decision) {
        log.record(Nanos(i * 10), i, d);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = DecisionLog::disabled();
        rec(&mut log, 1, Decision::BlockRetired { chip: 0, block: 3 });
        assert!(!log.enabled());
        assert_eq!(log.len(), 0);
        assert_eq!(log.total(), 0);
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let mut log = DecisionLog::new(2, DecisionLevel::Info);
        for i in 0..5 {
            rec(&mut log, i, Decision::CoalesceEnqueue { chip: 0, block: i as u32, pages: 1 });
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped, 3);
        assert_eq!(log.total(), 5);
        let seqs: Vec<u64> = log.records().map(|r| r.seq).collect();
        assert_eq!(seqs, [3, 4]);
    }

    #[test]
    fn level_filter_drops_below_min() {
        let mut log = DecisionLog::new(8, DecisionLevel::Warn);
        rec(&mut log, 0, Decision::GcVictim { chip: 0, block: 1, live: 2, invalid: 3, score: 3.0 });
        rec(
            &mut log,
            1,
            Decision::Escalation { chip: 0, block: 1, rung: EscalationRung::ScrubFallback },
        );
        rec(&mut log, 2, Decision::BlockRetired { chip: 0, block: 1 });
        assert_eq!(log.len(), 2);
        assert_eq!(log.counts, [0, 1, 1]);
    }

    #[test]
    fn every_decision_round_trips_its_packed_record() {
        assert_eq!(std::mem::size_of::<DecisionRecord>(), 56);
        assert_eq!(std::mem::size_of::<PackedRecord>(), 44);
        for (i, rung) in RUNGS.into_iter().enumerate() {
            assert_eq!(rung as usize, i, "{rung:?} is out of declaration order");
        }
        for (i, mode) in MODES.into_iter().enumerate() {
            assert_eq!(mode as usize, i, "{mode:?} is out of declaration order");
        }
        let (chip, block, pages) = (u32::MAX as usize, u32::MAX, u32::MAX as usize);
        let mut decisions = vec![
            Decision::GcVictim { chip, block, live: 7, invalid: 9, score: -0.1 },
            Decision::GcVictim { chip: 0, block: 0, live: 0, invalid: 0, score: f64::NAN },
            Decision::CoalesceEnqueue { chip, block, pages },
            Decision::CoalescePromote { chip, block, pages },
            Decision::CoalesceFlush { chip, block, pages },
            Decision::CoalesceSupersede { chip, block, pages },
            Decision::BlockRetired { chip, block },
        ];
        decisions.extend(RUNGS.map(|rung| Decision::Escalation { chip, block, rung }));
        for from in MODES {
            decisions.extend(MODES.map(|to| Decision::DegradedTransition { from, to }));
        }
        for (seq, d) in (0..).zip(decisions) {
            let (at, tick) = (Nanos(u64::MAX - seq), u64::MAX / 3 + seq);
            let got = PackedRecord::pack(at, tick, d).unpack(seq);
            // NaN scores compare unequal: compare the rendering and the bits.
            assert_eq!(got.render(), DecisionRecord { seq, at, tick, decision: d }.render());
            if let (Decision::GcVictim { score: a, .. }, Decision::GcVictim { score: b, .. }) =
                (got.decision, d)
            {
                assert_eq!(a.to_bits(), b.to_bits());
            } else {
                assert_eq!(got, DecisionRecord { seq, at, tick, decision: d });
            }
        }
    }

    #[test]
    fn a_log_fed_three_times_its_capacity_holds_one_chunk_more() {
        for capacity in [CHUNK * 4, 3000, 5] {
            let mut log = DecisionLog::new(capacity, DecisionLevel::Info);
            for i in 0..3 * capacity as u64 {
                rec(&mut log, i, Decision::BlockRetired { chip: 1, block: i as u32 });
            }
            assert_eq!((log.len(), log.dropped), (capacity, 2 * capacity as u64));
            assert_eq!(log.records().next().map(|r| r.seq), Some(2 * capacity as u64));
            let chunk = log.ring.chunk_len();
            let bound = capacity.next_multiple_of(chunk) + chunk;
            assert!(log.ring.slots() <= bound, "{} slots for {capacity}", log.ring.slots());
        }
    }

    #[test]
    fn render_is_one_line_per_record() {
        let mut log = DecisionLog::new(4, DecisionLevel::Info);
        rec(
            &mut log,
            7,
            Decision::GcVictim { chip: 1, block: 9, live: 0, invalid: 24, score: 24.0 },
        );
        rec(
            &mut log,
            8,
            Decision::DegradedTransition { from: DegradedMode::Normal, to: DegradedMode::SpareLow },
        );
        let text = log.render();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("gc_victim"), "{text}");
        assert!(text.contains("[error]"), "{text}");
        assert!(text.contains("tick=7"), "{text}");
    }
}
