//! Checkpoint codec: every dynamic table of the FTL to and from the
//! snapshot stream, byte for byte (section 0x30).

use super::*;
use evanesco_nand::snapshot::{Dec, Enc, SnapshotError, SnapshotError::Corrupt};

/// Wire codes: an enum value travels as its index in its table, so the
/// tables are checkpoint format — append to them, never reorder.
const PAGE_STATUS: [PageStatus; 4] =
    [PageStatus::Free, PageStatus::Valid, PageStatus::Secured, PageStatus::Invalid];
const BLOCK_STATE: [BlockState; 5] = [
    BlockState::Free,
    BlockState::Open,
    BlockState::Full,
    BlockState::Reclaimable,
    BlockState::Retired,
];
const DEGRADED_MODE: [DegradedMode; 3] =
    [DegradedMode::Normal, DegradedMode::SpareLow, DegradedMode::ReadOnly];

fn encode_code<T: PartialEq>(e: &mut Enc, table: &[T], v: T) {
    e.u8(table.iter().position(|x| *x == v).expect("every variant is in its table") as u8);
}

/// A length-prefixed list of block ids.
fn encode_u32s<'a>(e: &mut Enc, ids: impl ExactSizeIterator<Item = &'a u32>) {
    e.usize(ids.len());
    ids.for_each(|&b| e.u32(b));
}

fn decode_code<T: Copy>(d: &mut Dec<'_>, table: &[T], what: &str) -> Result<T, SnapshotError> {
    let code = d.u8()?;
    table
        .get(usize::from(code))
        .copied()
        .ok_or_else(|| Corrupt(format!("unknown {what} {code:#04x}")))
}

impl Ftl {
    /// Serializes every dynamic table of the FTL — the L2P map, per-chip
    /// page/block state (including the free/reclaimable queue *orders*,
    /// which affect future allocation choices),
    /// the write frontier, counters, sequence number, coalescing queue, and
    /// degraded mode — into a checkpoint stream.
    ///
    /// The decision log is observational only and not checkpointed.
    pub fn encode_state(&self, e: &mut Enc) {
        e.tag(0x30);
        for lpa in 0..self.l2p.len() {
            e.opt(&self.l2p.get(lpa), encode_gppa);
        }
        for c in &self.chips {
            for idx in 0..c.p2l.len() {
                e.opt(&c.lpa_at(idx), |e, lpa| e.u64(*lpa));
            }
            for &s in &c.status {
                encode_code(e, &PAGE_STATUS, s);
            }
            for b in &c.blocks {
                encode_code(e, &BLOCK_STATE, b.state);
                e.u32(b.live);
                e.u32(b.invalid);
                e.u32(b.written);
                e.u64(b.closed_at);
            }
            encode_u32s(e, c.free.iter());
            encode_u32s(e, c.reclaimable.iter());
            e.opt(&c.active, |e, a| {
                e.u32(a.id);
                e.u32(a.next_page);
            });
            let mut gc = c.gc_in_progress.clone();
            gc.sort_unstable();
            encode_u32s(e, gc.iter());
            e.u64(c.live_total);
            e.u64(c.invalid_total);
            e.u32(c.retired);
        }
        for &c in &self.chip_order {
            e.usize(c);
        }
        e.usize(self.next_chip);
        self.stats.encode_snapshot(e);
        e.u64(self.seq);
        e.usize(self.pending_locks.len());
        for entry in self.pending_locks.iter() {
            e.usize(entry.chip);
            e.u32(entry.block);
            e.usize(entry.pages.len());
            for p in entry.addresses() {
                e.u32(p.ppa.page.0);
            }
            e.u64(entry.since);
        }
        encode_code(e, &DEGRADED_MODE, self.mode);
    }

    /// Restores state written by [`Ftl::encode_state`] into an FTL built
    /// with the same configuration and policy, whose tables fix every
    /// length the stream does not state.
    ///
    /// # Errors
    ///
    /// Fails on truncation or corruption (an address or LPA off the
    /// device).
    pub fn decode_state(&mut self, d: &mut Dec<'_>) -> Result<(), SnapshotError> {
        d.expect_tag(0x30, "ftl")?;
        let geom = self.cfg.geometry;
        for lpa in 0..self.l2p.len() {
            let at = d.opt(decode_gppa)?;
            if at.is_some_and(|at| at.chip >= self.chips.len() || !geom.contains(at.ppa)) {
                return Err(Corrupt(format!("L2P entry of lpa {lpa} outside the device")));
            }
            self.l2p.set(lpa, at);
        }
        let logical = self.l2p.len() as u64;
        for c in &mut self.chips {
            for slot in &mut c.p2l {
                *slot = match d.opt(|d| d.u64())? {
                    None => 0,
                    Some(lpa) if lpa < logical => lpa as u32 + 1,
                    Some(lpa) => return Err(Corrupt(format!("P2L entry names lpa {lpa}"))),
                };
            }
            for s in &mut c.status {
                *s = decode_code(d, &PAGE_STATUS, "page status")?;
            }
            for b in &mut c.blocks {
                b.state = decode_code(d, &BLOCK_STATE, "block state")?;
                b.live = d.u32()?;
                b.invalid = d.u32()?;
                b.written = d.u32()?;
                b.closed_at = d.u64()?;
            }
            c.free.clear();
            for _ in 0..d.usize()? {
                c.free.push_back(d.u32()?);
            }
            c.reclaimable.clear();
            for _ in 0..d.usize()? {
                c.reclaimable.push_back(d.u32()?);
            }
            c.active = d.opt(|d| Ok(ActiveBlock { id: d.u32()?, next_page: d.u32()? }))?;
            c.gc_in_progress.clear();
            for _ in 0..d.usize()? {
                let b = d.u32()?;
                if b >= geom.blocks || c.gc_in_progress.last().is_some_and(|&prev| prev >= b) {
                    return Err(Corrupt(format!(
                        "GC-in-progress block {b} out of range or out of order"
                    )));
                }
                c.gc_in_progress.push(b);
            }
            c.live_total = d.u64()?;
            c.invalid_total = d.u64()?;
            c.retired = d.u32()?;
        }
        for c in &mut self.chip_order {
            *c = d.usize()?;
        }
        self.next_chip = d.usize()?;
        self.stats = FtlStats::decode_snapshot(d)?;
        self.seq = d.u64()?;
        self.pending_locks.clear();
        for _ in 0..d.usize()? {
            let chip = d.usize()?;
            let block = d.u32()?;
            if chip >= self.chips.len() || block >= geom.blocks {
                return Err(Corrupt(format!(
                    "coalesce entry out of range: chip {chip}, block {block}"
                )));
            }
            let n = d.usize()?;
            // Cap the pre-allocation: a corrupted length prefix must surface
            // as a decode error downstream, not an OOM abort here.
            let mut pages = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let at = GlobalPpa { chip, ppa: Ppa::new(block, d.u32()?) };
                if !geom.contains(at.ppa) {
                    return Err(Corrupt(format!("queued page {at} outside its block")));
                }
                pages.push(at);
            }
            let since = d.u64()?;
            self.pending_locks.enqueue(chip, block, &pages, since);
        }
        self.mode = decode_code(d, &DEGRADED_MODE, "degraded mode")?;
        Ok(())
    }
}

fn encode_gppa(e: &mut Enc, at: &GlobalPpa) {
    e.usize(at.chip);
    e.u32(at.ppa.block.0);
    e.u32(at.ppa.page.0);
}

fn decode_gppa(d: &mut Dec<'_>) -> Result<GlobalPpa, SnapshotError> {
    let chip = d.usize()?;
    let block = d.u32()?;
    let page = d.u32()?;
    Ok(GlobalPpa { chip, ppa: Ppa { block: BlockId(block), page: PageId(page) } })
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;

    #[test]
    fn snapshot_roundtrip_resumes_ftl_exactly() {
        use evanesco_nand::snapshot::{Dec, Enc};
        let cfg = FtlConfig::tiny_for_tests();
        let (mut ftl, mut ex) = setup_with(cfg, SanitizePolicy::evanesco());
        // Drive enough traffic to populate GC structures and the queues.
        let logical = cfg.logical_pages();
        for round in 0..6u64 {
            for lpa in 0..logical / 2 {
                ftl.write(&mut ex, &mut NullObserver, lpa, lpa % 3 == 0, round * 1000 + lpa);
            }
            ftl.trim(
                &mut ex,
                &mut NullObserver,
                &(0..logical / 8).map(|i| i * 4).collect::<Vec<_>>(),
            );
        }
        ftl.check_invariants();

        let mut e = Enc::new();
        ftl.encode_state(&mut e);
        let bytes = e.into_bytes();
        let mut restored = Ftl::new(cfg, SanitizePolicy::evanesco());
        restored.decode_state(&mut Dec::new(&bytes)).unwrap();
        let mut d = Dec::new(&bytes);
        restored.check_invariants();
        // decode_state consumed its own stream exactly.
        Ftl::new(cfg, SanitizePolicy::evanesco()).decode_state(&mut d).unwrap();
        d.finish().unwrap();

        assert_eq!(restored.stats(), ftl.stats());
        assert_eq!(restored.degraded(), ftl.degraded());
        // Continue both in lockstep against identical executors.
        let mut ex2 = ex.clone();
        for lpa in 0..logical / 2 {
            ftl.write(&mut ex, &mut NullObserver, lpa, lpa % 2 == 0, 9000 + lpa);
            restored.write(&mut ex2, &mut NullObserver, lpa, lpa % 2 == 0, 9000 + lpa);
        }
        assert_eq!(restored.stats(), ftl.stats());
        for lpa in 0..logical {
            assert_eq!(restored.mapped(lpa), ftl.mapped(lpa), "mapping diverged at lpa {lpa}");
        }
        let mut ea = Enc::new();
        let mut eb = Enc::new();
        ftl.encode_state(&mut ea);
        restored.encode_state(&mut eb);
        assert_eq!(ea.into_bytes(), eb.into_bytes(), "post-resume state diverged");
    }
}
