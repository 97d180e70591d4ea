//! Differential test of the flat page store.
//!
//! `nand::Chip` keeps a chip's pages as one state byte, one content tag
//! and one packed three-word spare-area record per page, `core::EvanescoChip` its pAP flags as one
//! byte column, both indexed `block * pages_per_block + page`; every read
//! is one sense-and-gate followed by a view. None of that may be visible.
//! The model below is the obvious thing instead — a `Vec<Vec<PageContent>>`
//! and nested `bool` flags — and random command sequences (in and out of
//! range, legal and illegal, tagged and with byte payloads) must leave the
//! real chips and the model agreeing on every result, every read view of
//! every page, the raw dump, the probes and the counters, with the
//! checkpoint stream re-encoding to identical bytes.

use evanesco::core::chip::{EvanescoChip, LockStats, ReadResult};
use evanesco::core::EvanescoError;
use evanesco::nand::cell::CellTech;
use evanesco::nand::chip::{Chip, ChipStats, PageContent, PageData, PageOob};
use evanesco::nand::geometry::{BlockId, Geometry, Ppa};
use evanesco::nand::snapshot::{Dec, Enc};
use evanesco::nand::timing::Nanos;
use evanesco::nand::NandError;
use proptest::prelude::*;

const BLOCKS: u32 = 4;
const PPB: u32 = 6;

fn geom() -> Geometry {
    Geometry {
        tech: CellTech::Tlc,
        blocks: BLOCKS,
        wordlines_per_block: PPB / 3,
        page_bytes: 64,
        spare_bytes: 8,
    }
}

#[derive(Debug, Clone)]
enum Op {
    Program(Ppa, PageData),
    TornProgram(Ppa, PageData, f64),
    Erase(BlockId),
    TornErase(BlockId, f64),
    Destroy(Ppa),
    TornScrub(Ppa, f64),
    PLock(Ppa),
    BLock(BlockId),
}

// ---- the model ---------------------------------------------------------

struct Model {
    pages: Vec<Vec<PageContent>>,
    next: Vec<u32>,
    pap: Vec<Vec<bool>>,
    bap: Vec<bool>,
    torn_erase: Vec<bool>,
    /// `reads` stays zero: the harness counts the reads it issues.
    stats: ChipStats,
    locks: LockStats,
}

impl Model {
    fn new() -> Self {
        Model {
            pages: vec![vec![PageContent::Erased; PPB as usize]; BLOCKS as usize],
            next: vec![0; BLOCKS as usize],
            pap: vec![vec![false; PPB as usize]; BLOCKS as usize],
            bap: vec![false; BLOCKS as usize],
            torn_erase: vec![false; BLOCKS as usize],
            stats: ChipStats::default(),
            locks: LockStats::default(),
        }
    }

    fn page(&self, ppa: Ppa) -> Result<(usize, usize), EvanescoError> {
        if ppa.block.0 < BLOCKS && ppa.page.0 < PPB {
            Ok((ppa.block.0 as usize, ppa.page.0 as usize))
        } else {
            Err(NandError::BadAddress { ppa }.into())
        }
    }

    fn block(&self, block: BlockId) -> Result<usize, EvanescoError> {
        if block.0 < BLOCKS {
            Ok(block.0 as usize)
        } else {
            Err(EvanescoError::BadBlock { block })
        }
    }

    fn store(&mut self, ppa: Ppa, content: PageContent) -> Result<(), EvanescoError> {
        let (b, p) = self.page(ppa)?;
        if self.pages[b][p] != PageContent::Erased {
            return Err(NandError::ProgramOnProgrammedPage { ppa }.into());
        }
        if ppa.page.0 != self.next[b] {
            return Err(NandError::OutOfOrderProgram { ppa, expected: self.next[b] }.into());
        }
        self.pages[b][p] = content;
        self.next[b] += 1;
        Ok(())
    }

    fn destroy(&mut self, ppa: Ppa) -> Result<(), EvanescoError> {
        let (b, p) = self.page(ppa)?;
        self.pages[b][p] = PageContent::Destroyed;
        self.next[b] = self.next[b].max(ppa.page.0 + 1);
        Ok(())
    }

    fn apply(&mut self, op: &Op) -> Result<(), EvanescoError> {
        match op {
            Op::Program(ppa, data) => {
                self.store(*ppa, PageContent::Data(data.clone()))?;
                self.stats.programs += 1;
            }
            Op::TornProgram(ppa, data, fraction) => {
                let data = (*fraction >= 0.5).then(|| data.clone());
                self.store(*ppa, PageContent::Torn { data })?;
                self.stats.torn_programs += 1;
            }
            Op::Erase(block) => {
                let b = self.block(*block)?;
                self.pages[b].fill(PageContent::Erased);
                self.pap[b].fill(false);
                self.bap[b] = false;
                self.next[b] = 0;
                self.torn_erase[b] = false;
                self.stats.erases += 1;
            }
            // The harness draws only fractions whose flag outcome needs no
            // cell draw: 0.0 keeps every flag decoding as it did, 0.2 and
            // 0.8 are past the flag-wipe point (0.15).
            Op::TornErase(block, fraction) => {
                let b = self.block(*block)?;
                if *fraction >= 0.25 {
                    for page in self.pages[b].iter_mut().filter(|p| **p != PageContent::Erased) {
                        *page = PageContent::Destroyed;
                    }
                }
                if *fraction >= 0.15 {
                    self.pap[b].fill(false);
                    self.bap[b] = false;
                }
                self.torn_erase[b] = true;
                self.stats.torn_erases += 1;
            }
            Op::Destroy(ppa) => {
                self.destroy(*ppa)?;
                self.stats.scrubs += 1;
            }
            Op::TornScrub(ppa, fraction) => {
                self.page(*ppa)?;
                if *fraction >= 0.5 {
                    self.destroy(*ppa)?;
                }
            }
            Op::PLock(ppa) => {
                let (b, p) = self.page(*ppa)?;
                if self.pages[b][p] == PageContent::Erased {
                    return Err(EvanescoError::LockOnUnwrittenPage { ppa: *ppa });
                }
                self.pap[b][p] = true;
                self.locks.plocks += 1;
            }
            Op::BLock(block) => {
                let b = self.block(*block)?;
                self.bap[b] = true;
                self.locks.blocks += 1;
            }
        }
        Ok(())
    }
}

// ---- the harness -------------------------------------------------------

/// The NAND-level error a raw chip reports where the Evanesco chip reports
/// `e` (`None` for the lock-only error).
fn nand_error(e: EvanescoError) -> Option<NandError> {
    match e {
        EvanescoError::Nand(e) => Some(e),
        EvanescoError::BadBlock { block } => Some(NandError::BadBlock { block }),
        _ => None,
    }
}

fn apply_ev(ev: &mut EvanescoChip, op: &Op) -> Result<(), EvanescoError> {
    match op.clone() {
        Op::Program(ppa, data) => ev.program(ppa, data).map(drop),
        Op::TornProgram(ppa, data, f) => ev.interrupt_program(ppa, data, f),
        Op::Erase(block) => ev.erase(block, Nanos(7)).map(drop),
        Op::TornErase(block, f) => ev.interrupt_erase(block, f, 99),
        Op::Destroy(ppa) => ev.destroy_page(ppa).map(drop),
        Op::TornScrub(ppa, f) => ev.interrupt_scrub(ppa, f),
        Op::PLock(ppa) => ev.p_lock(ppa).map(drop),
        Op::BLock(block) => ev.b_lock(block).map(drop),
    }
}

fn apply_raw(raw: &mut Chip, op: &Op) -> Result<(), NandError> {
    match op.clone() {
        Op::Program(ppa, data) => raw.program(ppa, data).map(drop),
        Op::TornProgram(ppa, data, f) => raw.interrupt_program(ppa, data, f),
        Op::Erase(block) => raw.erase(block, Nanos(7)).map(drop),
        Op::TornErase(block, f) => raw.interrupt_erase(block, f),
        Op::Destroy(ppa) => raw.destroy_page(ppa).map(drop),
        Op::TornScrub(ppa, f) => raw.interrupt_scrub(ppa, f),
        Op::PLock(_) | Op::BLock(_) => Ok(()),
    }
}

/// What a data read serves of `d`: its tag and payload, without the spare
/// area (the harness makes every payload with `with_payload`, whose tag is
/// the payload's hash).
fn data_area(d: &PageData) -> PageData {
    d.payload().map_or(PageData::tagged(d.tag()), PageData::with_payload)
}

fn reencodes_identically(raw: &Chip, ev: &EvanescoChip) {
    let mut e = Enc::new();
    raw.encode_state(&mut e);
    let bytes = e.into_bytes();
    let mut d = Dec::new(&bytes);
    let mut back = Chip::new(geom());
    back.decode_state(&mut d).expect("own stream decodes");
    d.finish().expect("fully consumed");
    let mut e = Enc::new();
    back.encode_state(&mut e);
    assert_eq!(e.into_bytes(), bytes, "nand chip stream is not a fixed point");

    let mut e = Enc::new();
    ev.encode_state(&mut e);
    let bytes = e.into_bytes();
    let mut back = EvanescoChip::new(geom());
    back.decode_state(&mut Dec::new(&bytes)).expect("own stream decodes");
    let mut e = Enc::new();
    back.encode_state(&mut e);
    assert_eq!(e.into_bytes(), bytes, "evanesco chip stream is not a fixed point");
}

fn run(ops: &[Op]) {
    let mut model = Model::new();
    let mut raw = Chip::new(geom());
    let mut ev = EvanescoChip::new(geom());
    let (mut raw_reads, mut ev_reads) = (0u64, 0u64);

    for op in ops {
        let want = model.apply(op);
        assert_eq!(apply_ev(&mut ev, op), want, "{op:?}");
        if !matches!(op, Op::PLock(_) | Op::BLock(_)) {
            assert_eq!(apply_raw(&mut raw, op).err(), want.clone().err().and_then(nand_error));
        }

        // Every page, every view, after every command.
        for b in 0..BLOCKS {
            let block = BlockId(b);
            assert_eq!(raw.raw_block_dump(block), model.pages[b as usize], "{op:?}");
            assert_eq!(raw.next_program_index(block), model.next[b as usize]);
            assert_eq!(ev.next_program_index(block), model.next[b as usize]);
            assert_eq!(raw.block_torn_erase(block), Ok(model.torn_erase[b as usize]));
            assert_eq!(ev.block_torn_erase(block), Ok(model.torn_erase[b as usize]));
            assert_eq!(ev.is_block_locked(block), model.bap[b as usize]);
            for p in 0..PPB {
                let ppa = Ppa::new(b, p);
                let content = &model.pages[b as usize][p as usize];
                let locked = model.bap[b as usize] || model.pap[b as usize][p as usize];
                // A data read serves the data area: the spare area is
                // `oob_at`'s and `content_at`'s.
                let served = match content {
                    PageContent::Data(d) => Some(data_area(d)),
                    _ => None,
                };

                // The raw chip: the public view and the hot-path views.
                assert_eq!(raw.read(ppa).expect("in range").content, *content, "{op:?} {ppa}");
                let i = raw.sense(ppa).expect("in range");
                raw_reads += 2;
                assert_eq!(raw.data_at(i), served);
                assert_eq!(raw.content_at(i), *content);
                assert_eq!(raw.oob_at(i), content.data().and_then(PageData::oob));
                assert_eq!(raw.holds_data_at(i), served.is_some());

                // The gated chip: the same three views behind the locks.
                let want =
                    if locked { ReadResult::Locked } else { ReadResult::Content(content.clone()) };
                assert_eq!(ev.read(ppa).expect("in range").result, want, "{op:?} {ppa}");
                assert_eq!(
                    ev.read_data(ppa).expect("in range"),
                    served.filter(|_| !locked),
                    "{op:?} {ppa}"
                );
                let oob = content.data().and_then(PageData::oob).filter(|_| !locked);
                assert_eq!(ev.read_oob(ppa).expect("in range"), oob, "{op:?} {ppa}");
                ev_reads += 3;
                assert_eq!(ev.is_access_blocked(ppa), locked);
                assert_eq!(ev.is_page_locked(ppa), model.pap[b as usize][p as usize]);

                let written = *content != PageContent::Erased;
                assert_eq!(raw.page_is_written(ppa), Ok(written));
                assert_eq!(ev.page_is_written(ppa), Ok(written));
                assert_eq!(raw.page_is_torn(ppa), Ok(content.is_torn()));
                assert_eq!(ev.page_is_torn(ppa), Ok(content.is_torn()));
            }
        }
        // One past each edge is an error on every path, never a neighbour.
        for bad in [Ppa::new(0, PPB), Ppa::new(BLOCKS, 0)] {
            assert_eq!(raw.read(bad), Err(NandError::BadAddress { ppa: bad }));
            assert!(raw.sense(bad).is_err() && raw.page_is_written(bad).is_err());
            assert_eq!(ev.read(bad), Err(NandError::BadAddress { ppa: bad }.into()));
            assert!(ev.read_data(bad).is_err() && ev.read_oob(bad).is_err());
        }
        assert_eq!(raw.stats(), ChipStats { reads: raw_reads, ..model.stats });
        assert_eq!(ev.nand_stats(), ChipStats { reads: ev_reads, ..model.stats });
        assert_eq!(ev.lock_stats(), model.locks);
    }
    reencodes_identically(&raw, &ev);
}

fn page_data() -> impl Strategy<Value = PageData> {
    let oob = (0u64..50, any::<bool>(), 0u64..1000).prop_map(|(lpa, secure, seq)| PageOob {
        lpa,
        secure,
        seq,
    });
    let body = prop_oneof![
        3 => any::<u64>().prop_map(PageData::tagged),
        1 => proptest::collection::vec(any::<u8>(), 0..12)
            .prop_map(|bytes| PageData::with_payload(&bytes)),
    ];
    (body, any::<bool>(), oob)
        .prop_map(|(data, stamped, oob)| if stamped { data.with_oob(oob) } else { data })
}

/// Addresses one past either edge appear on purpose.
fn any_ppa() -> impl Strategy<Value = Ppa> {
    (0..=BLOCKS, 0..=PPB).prop_map(|(b, p)| Ppa::new(b, p))
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // A program names its block and how far off the in-order pointer it
    // lands (mostly zero); the pointer is filled in while replaying.
    #[derive(Debug, Clone)]
    enum Draft {
        Next(u32, u32, PageData, Option<f64>),
        Op(Op),
    }
    let fraction3 = || prop_oneof![Just(0.0), Just(0.2), Just(0.8)];
    let draft = prop_oneof![
        8 => (0..BLOCKS, prop_oneof![9 => Just(0u32), 1 => 0..PPB], page_data(),
              prop_oneof![6 => Just(None), 1 => Just(Some(0.2)), 1 => Just(Some(0.9))])
            .prop_map(|(b, skew, d, f)| Draft::Next(b, skew, d, f)),
        1 => (any_ppa(), page_data()).prop_map(|(p, d)| Draft::Op(Op::Program(p, d))),
        2 => (0..=BLOCKS).prop_map(|b| Draft::Op(Op::Erase(BlockId(b)))),
        1 => (0..=BLOCKS, fraction3()).prop_map(|(b, f)| Draft::Op(Op::TornErase(BlockId(b), f))),
        2 => any_ppa().prop_map(|p| Draft::Op(Op::Destroy(p))),
        1 => (any_ppa(), prop_oneof![Just(0.3), Just(0.7)])
            .prop_map(|(p, f)| Draft::Op(Op::TornScrub(p, f))),
        4 => any_ppa().prop_map(|p| Draft::Op(Op::PLock(p))),
        1 => (0..=BLOCKS).prop_map(|b| Draft::Op(Op::BLock(BlockId(b)))),
    ];
    proptest::collection::vec(draft, 1..60).prop_map(|drafts| {
        let mut shadow = Model::new();
        drafts
            .into_iter()
            .map(|draft| {
                let op = match draft {
                    Draft::Op(op) => op,
                    Draft::Next(b, skew, data, torn) => {
                        let ppa = Ppa::new(b, shadow.next[b as usize] + skew);
                        match torn {
                            Some(f) => Op::TornProgram(ppa, data, f),
                            None => Op::Program(ppa, data),
                        }
                    }
                };
                let _ = shadow.apply(&op);
                op
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn flat_store_matches_the_nested_model(ops in ops()) {
        run(&ops);
    }
}

/// Every slot state under every lock state, spelled out: the case table the
/// random sequences above sample from.
#[test]
fn every_slot_state_under_every_lock_state() {
    let oob = PageOob { lpa: 3, secure: true, seq: 8 };
    // Tag-only chips take the erase-by-`fill` path, payload chips the
    // pool-releasing one.
    for (lock, payloads) in (0..4).flat_map(|lock| [(lock, false), (lock, true)]) {
        let data = |t: u64| {
            let body = if payloads {
                PageData::with_payload(&t.to_le_bytes())
            } else {
                PageData::tagged(t)
            };
            body.with_oob(oob)
        };
        let mut ops = vec![
            Op::Program(Ppa::new(1, 0), data(1)),
            Op::TornProgram(Ppa::new(1, 1), data(2), 0.9),
            Op::TornProgram(Ppa::new(1, 2), data(3), 0.1),
            Op::Program(Ppa::new(1, 3), PageData::tagged(4)),
            Op::Destroy(Ppa::new(1, 3)),
            Op::Destroy(Ppa::new(1, 5)),
        ];
        if lock & 1 != 0 {
            ops.extend((0..PPB).map(|p| Op::PLock(Ppa::new(1, p))));
        }
        if lock & 2 != 0 {
            ops.push(Op::BLock(BlockId(1)));
        }
        ops.push(Op::TornErase(BlockId(1), 0.0));
        ops.push(Op::TornErase(BlockId(1), 0.2));
        ops.push(Op::Erase(BlockId(1)));
        run(&ops);
    }
}

/// Both executors' page read is the controller's data read: the tag (and
/// payload), never the spare area, while the recovery scan's `read_oob` and
/// the attacker's interface read still return the OOB of the same page.
#[test]
fn an_executor_read_carries_no_oob_while_the_spare_area_views_do() {
    use evanesco::ftl::executor::{MemExecutor, NandExecutor};
    use evanesco::ftl::GlobalPpa;
    use evanesco::ssd::device::TimedExecutor;
    use evanesco::ssd::SsdConfig;

    let oob = PageOob { lpa: 11, secure: true, seq: 5 };
    let at = GlobalPpa::new(0, Ppa::new(0, 0));
    let cfg = SsdConfig::tiny_for_tests();
    let mut mem = MemExecutor::new(cfg.ftl.geometry, cfg.n_chips());
    let mut timed = TimedExecutor::new(&cfg);
    for data in [PageData::tagged(42), PageData::with_payload(b"record")] {
        let stamped = data.clone().with_oob(oob);
        let executors: [&mut dyn NandExecutor; 2] = [&mut mem, &mut timed];
        for ex in executors {
            ex.erase(0, BlockId(0));
            ex.program(at, stamped.clone());
            let got = ex.read(at).expect("a programmed, exposed page");
            assert_eq!((got.oob(), &got), (None, &data), "the read serves the data area only");
        }
        for chip in [&mut mem.chips_mut()[0], &mut timed.chips_mut()[0]] {
            assert_eq!(chip.read_oob(at.ppa).expect("in range"), Some(oob));
            let content = chip.read(at.ppa).expect("in range").result;
            assert_eq!(content, ReadResult::Content(PageContent::Data(stamped.clone())));
        }
    }
}
