//! VerTrace — the paper's data-versioning measurement tool (§3).
//!
//! VerTrace annotates every physical page with the file it belongs to and
//! tracks, per file and over logical time, the number of valid pages
//! `N_valid(f, t)` and invalid (stale but physically present) pages
//! `N_invalid(f, t)`. From these it derives the paper's two metrics:
//!
//! * **VAF** (version amplification factor) = `max_t N_invalid / max_t
//!   N_valid` — how many stale versions accumulate;
//! * **T_insecure** = total logical time with `N_invalid > 0`, normalized
//!   to the number of writes that fill the SSD capacity.
//!
//! Files are classified **uni-version (UV)** if their content only ever
//! grows (no overwrite, no delete), else **multi-version (MV)**.
//!
//! Logical time advances by one tick per host page write (the paper uses
//! one tick per 4-KiB write; ours is per 16-KiB page — a constant factor
//! absorbed by the normalization).
//!
//! VerTrace is an [`FtlObserver`] riding the run it measures; the replayer
//! tells it which file each host op belongs to ([`VerTrace::note_op`])
//! before the device sees the op. Beyond Table 1 it records:
//!
//! * **retirement-path attribution** — which invalidation path retired
//!   each page (host update vs trim vs GC copy; [`InvalidateCause`]),
//!   split by secured / exposed;
//! * **exposure-window histogram** — for every invalidated page, the
//!   logical-time window from invalidation until its content became
//!   unrecoverable (zero when the policy sanitized on the spot, the
//!   wait-for-erase window otherwise; still-open windows are
//!   right-censored at [`VerTrace::finalize`]);
//! * optionally, each file's `(tick, valid, invalid)` timeline (Figure 4).

use crate::trace::{FileId, TraceOp};
use evanesco_ftl::observer::{FtlObserver, InvalidateCause};
use evanesco_ftl::{FtlConfig, GlobalPpa, Lpa};
use evanesco_nand::snapshot::{Dec, Enc, SnapshotError};
use evanesco_ssd::VersionCounts;
use std::collections::{BTreeMap, HashMap};

/// Log2-bucketed histogram of exposure windows, in logical ticks.
///
/// Bucket 0 holds zero-tick windows (sanitized at invalidation); bucket
/// `k > 0` holds windows in `[2^(k-1), 2^k)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExposureHistogram {
    /// Window counts per log2 bucket.
    pub buckets: [u64; 34],
    /// Total windows recorded.
    pub count: u64,
    /// Sum of all windows (ticks).
    pub sum: u64,
    /// Largest window (ticks).
    pub max: u64,
}

impl Default for ExposureHistogram {
    fn default() -> Self {
        ExposureHistogram { buckets: [0; 34], count: 0, sum: 0, max: 0 }
    }
}

impl ExposureHistogram {
    fn bucket_of(ticks: u64) -> usize {
        ((u64::BITS - ticks.leading_zeros()) as usize).min(33)
    }

    /// Records one exposure window of `ticks`.
    pub fn record(&mut self, ticks: u64) {
        self.buckets[Self::bucket_of(ticks)] += 1;
        self.count += 1;
        self.sum += ticks;
        self.max = self.max.max(ticks);
    }

    /// Mean window in ticks (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fraction of windows that were zero (sanitized immediately).
    pub fn zero_fraction(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.buckets[0] as f64 / self.count as f64
        }
    }

    /// Merges `other` into `self`.
    pub fn absorb(&mut self, other: &ExposureHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    fn encode(&self, e: &mut Enc) {
        for &b in &self.buckets {
            e.u64(b);
        }
        e.u64(self.count);
        e.u64(self.sum);
        e.u64(self.max);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        let mut h = ExposureHistogram::default();
        for b in h.buckets.iter_mut() {
            *b = d.u64()?;
        }
        h.count = d.u64()?;
        h.sum = d.u64()?;
        h.max = d.u64()?;
        Ok(h)
    }
}

/// Per-cause page-retirement counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CauseCounts {
    /// All invalidations by cause `[host_update, trim, gc_copy]`.
    pub total: [u64; 3],
    /// Secured-page subset.
    pub secured: [u64; 3],
    /// Secured pages left *exposed* (not sanitized at invalidation).
    pub exposed: [u64; 3],
}

impl CauseCounts {
    fn note(&mut self, cause: InvalidateCause, secure: bool, sanitized: bool) {
        let i = match cause {
            InvalidateCause::HostUpdate => 0,
            InvalidateCause::Trim => 1,
            InvalidateCause::GcCopy => 2,
        };
        self.total[i] += 1;
        if secure {
            self.secured[i] += 1;
            if !sanitized {
                self.exposed[i] += 1;
            }
        }
    }

    fn absorb(&mut self, other: &CauseCounts) {
        for i in 0..3 {
            self.total[i] += other.total[i];
            self.secured[i] += other.secured[i];
            self.exposed[i] += other.exposed[i];
        }
    }

    fn encode(&self, e: &mut Enc) {
        for arr in [&self.total, &self.secured, &self.exposed] {
            for &v in arr {
                e.u64(v);
            }
        }
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        let mut c = CauseCounts::default();
        for arr in [&mut c.total, &mut c.secured, &mut c.exposed] {
            for v in arr.iter_mut() {
                *v = d.u64()?;
            }
        }
        Ok(c)
    }
}

/// Per-file versioning statistics.
#[derive(Debug, Clone, Default)]
pub struct FileVersionStats {
    /// Live and stale pages now, their peaks, and the insecure ticks.
    pub versions: VersionCounts,
    /// Whether the file was ever overwritten or deleted (multi-version).
    pub multi_version: bool,
    /// Which paths retired this file's pages.
    pub causes: CauseCounts,
    /// Exposure windows of this file's invalidated pages.
    pub exposure: ExposureHistogram,
    /// `(tick, valid, invalid)` after every change, when recording
    /// ([`VerTrace::with_timelines`]; Figure 4).
    pub timeline: Vec<(u64, u64, u64)>,
}

impl FileVersionStats {
    fn note_change(&mut self, tick: u64, record_timeline: bool) {
        self.versions.note_change(tick);
        if record_timeline {
            self.timeline.push((tick, self.versions.valid, self.versions.invalid));
        }
    }
}

/// Aggregated statistics for one file class (UV or MV).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassStats {
    /// Number of files in the class.
    pub n_files: u64,
    /// Mean VAF.
    pub vaf_avg: f64,
    /// Max VAF.
    pub vaf_max: f64,
    /// Mean normalized T_insecure.
    pub tinsec_avg: f64,
    /// Max normalized T_insecure.
    pub tinsec_max: f64,
    /// Retirement paths across the class's files.
    pub causes: CauseCounts,
    /// Exposure windows across the class's files.
    pub exposure: ExposureHistogram,
}

/// The Table-1 style report, with attribution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VerTraceReport {
    /// Uni-version files.
    pub uv: ClassStats,
    /// Multi-version files.
    pub mv: ClassStats,
    /// Device-wide retirement paths (files with no live peak included).
    pub device_causes: CauseCounts,
}

/// One tracked physical page: owning file, liveness, and — when invalid
/// and still recoverable — when it became exposed.
#[derive(Debug, Clone, Copy)]
struct PageEntry {
    file: FileId,
    live: bool,
    exposed_since: Option<u64>,
}

/// Sentinel for "this LPA maps to no tracked file" in the dense LPA
/// table. Workload file ids are small sequential integers; `u32::MAX`
/// is never a real id.
const NO_FILE: FileId = FileId::MAX;

/// Dense per-block page table: indexed by page id, `None` = untracked.
type BlockPages = Vec<Option<PageEntry>>;

/// The VerTrace observer.
///
/// A sanitized invalidation never counts as an invalid version; an erase
/// removes every tracked page of the block; logical time is one tick per
/// accepted host page write. The `secure` flag does not affect version
/// counting — it drives the per-cause secured/exposed split only.
///
/// The observer hooks fire once per physical page event, so the per-page
/// state is dense: the LPA→file map is a flat vector indexed by LPA, and
/// each tracked block is a flat page vector recycled through a spare pool
/// on erase (no per-page hashing or allocation in steady state).
#[derive(Debug, Clone, Default)]
pub struct VerTrace {
    tick: u64,
    record_timelines: bool,
    /// LPA → owning file; [`NO_FILE`] = unmapped. Grows to the highest
    /// LPA the workload touches.
    lpa_file: Vec<FileId>,
    /// `(chip, block)` → dense page table.
    phys: HashMap<(usize, u32), BlockPages>,
    /// Cleared page tables recycled by [`VerTrace::on_erase`].
    spare: Vec<BlockPages>,
    /// Scratch list of files touched by an erase (reused across calls).
    touched: Vec<FileId>,
    /// By id: sums over files and the checkpoint stream run in one order.
    files: BTreeMap<FileId, FileVersionStats>,
    device_causes: CauseCounts,
}

impl VerTrace {
    /// Creates a VerTrace logger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables per-file `(tick, valid, invalid)` timeline recording
    /// (memory-proportional to the number of page-state changes).
    pub fn with_timelines() -> Self {
        VerTrace { record_timelines: true, ..Self::default() }
    }

    /// Replayer hook, called before the device executes `op`: a write maps
    /// its LPAs to its file (an in-place update makes the file
    /// multi-version), a trim unmaps them (and makes the file
    /// multi-version), a read changes nothing.
    pub fn note_op(&mut self, op: &TraceOp) {
        match *op {
            TraceOp::Write { file, lpa, npages, overwrite, .. } => {
                let hi = (lpa + npages) as usize;
                if self.lpa_file.len() < hi {
                    self.lpa_file.resize(hi, NO_FILE);
                }
                self.lpa_file[lpa as usize..hi].fill(file);
                let f = self.files.entry(file).or_default();
                if overwrite {
                    f.multi_version = true;
                }
            }
            TraceOp::Trim { file, lpa, npages } => {
                self.files.entry(file).or_default().multi_version = true;
                let lo = (lpa as usize).min(self.lpa_file.len());
                let hi = ((lpa + npages) as usize).min(self.lpa_file.len());
                self.lpa_file[lo..hi].fill(NO_FILE);
            }
            TraceOp::Read { .. } => {}
        }
    }

    /// All per-file statistics.
    pub fn files(&self) -> &BTreeMap<FileId, FileVersionStats> {
        &self.files
    }

    /// Closes open insecure intervals and right-censors still-open
    /// exposure windows at the current tick (pages whose stale content
    /// was never destroyed during the run).
    pub fn finalize(&mut self) {
        let tick = self.tick;
        for f in self.files.values_mut() {
            f.versions.close(tick);
        }
        for block in self.phys.values_mut() {
            for entry in block.iter_mut().filter_map(Option::as_mut) {
                if let Some(since) = entry.exposed_since.take() {
                    if let Some(f) = self.files.get_mut(&entry.file) {
                        f.exposure.record(tick - since);
                    }
                }
            }
        }
    }

    /// Builds the Table-1 report, normalizing T_insecure by
    /// `capacity_pages` (writes needed to fill the SSD).
    pub fn report(&mut self, capacity_pages: u64) -> VerTraceReport {
        self.finalize();
        let mut uv: Vec<&FileVersionStats> = Vec::new();
        let mut mv: Vec<&FileVersionStats> = Vec::new();
        for f in self.files.values() {
            if f.versions.max_valid == 0 {
                continue;
            }
            if f.multi_version {
                mv.push(f);
            } else {
                uv.push(f);
            }
        }
        let agg = |class: &[&FileVersionStats]| {
            let mut out = ClassStats::default();
            if class.is_empty() {
                return out;
            }
            let n = class.len() as f64;
            let vafs: Vec<f64> = class.iter().map(|f| f.versions.vaf()).collect();
            let tins: Vec<f64> = class
                .iter()
                .map(|f| f.versions.insecure_ticks as f64 / capacity_pages as f64)
                .collect();
            out.n_files = class.len() as u64;
            out.vaf_avg = vafs.iter().sum::<f64>() / n;
            out.vaf_max = vafs.iter().copied().fold(0.0, f64::max);
            out.tinsec_avg = tins.iter().sum::<f64>() / n;
            out.tinsec_max = tins.iter().copied().fold(0.0, f64::max);
            for f in class {
                out.causes.absorb(&f.causes);
                out.exposure.absorb(&f.exposure);
            }
            out
        };
        VerTraceReport { uv: agg(&uv), mv: agg(&mv), device_causes: self.device_causes }
    }

    /// The file with the largest peak invalid count in the given class,
    /// for the Figure 4 timeplots; the lowest `FileId` on a tie.
    pub fn worst_file(&self, multi_version: bool) -> Option<(FileId, &FileVersionStats)> {
        self.files
            .iter()
            .filter(|(_, f)| f.multi_version == multi_version && f.versions.max_valid > 0)
            .max_by_key(|&(&id, f)| (f.versions.max_invalid, std::cmp::Reverse(id)))
            .map(|(&id, f)| (id, f))
    }

    /// Serializes everything but the timelines — logical clock, LPA→file
    /// map, tracked physical pages with their open exposure windows,
    /// per-file accounting, and device-wide cause counters — into a
    /// checkpoint stream (all maps in sorted key order for a canonical
    /// byte stream).
    pub fn encode_state(&self, e: &mut Enc) {
        e.tag(0x60);
        e.u64(self.tick);
        e.usize(self.lpa_file.iter().filter(|&&f| f != NO_FILE).count());
        for (l, &f) in self.lpa_file.iter().enumerate() {
            if f != NO_FILE {
                e.u64(l as u64);
                e.u32(f);
            }
        }
        let mut blocks: Vec<(usize, u32)> = self.phys.keys().copied().collect();
        blocks.sort_unstable();
        e.usize(blocks.len());
        for key in blocks {
            e.usize(key.0);
            e.u32(key.1);
            let pages = &self.phys[&key];
            e.usize(pages.iter().filter(|s| s.is_some()).count());
            for (p, entry) in pages.iter().enumerate().filter_map(|(p, s)| Some((p, s.as_ref()?))) {
                e.u32(p as u32);
                e.u32(entry.file);
                e.bool(entry.live);
                e.opt(&entry.exposed_since, |e, &t| e.u64(t));
            }
        }
        e.usize(self.files.len());
        for (&id, f) in &self.files {
            e.u32(id);
            f.versions.encode(e);
            e.bool(f.multi_version);
            f.causes.encode(e);
            f.exposure.encode(e);
            f.versions.encode_open(e);
        }
        self.device_causes.encode(e);
    }

    /// Reconstructs a VerTrace for the device `cfg` describes from a
    /// stream written by [`VerTrace::encode_state`]. Timelines are not
    /// checkpointed: the decoded VerTrace records none.
    ///
    /// # Errors
    ///
    /// Fails on truncation or structural corruption, and — the tables are
    /// bounded by `cfg`, never by the stream — on an LPA outside the
    /// logical space, a chip, block or page outside the device, an LPA,
    /// block, page or file listed twice, or a window or interval that
    /// opens after the stream's clock.
    pub fn decode_state(cfg: &FtlConfig, d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        let corrupt = |what: String| SnapshotError::Corrupt(format!("vertrace: {what}"));
        d.expect_tag(0x60, "vertrace")?;
        let mut vt = VerTrace { tick: d.u64()?, ..Self::default() };
        let logical = cfg.logical_pages();
        let n_lpas = d.usize()?;
        if n_lpas as u64 > logical {
            return Err(corrupt(format!("{n_lpas} LPAs listed of {logical}")));
        }
        for _ in 0..n_lpas {
            let (lpa, file) = (d.u64()?, d.u32()?);
            if lpa >= logical || file == NO_FILE {
                return Err(corrupt(format!("LPA {lpa} (file {file}) outside the device")));
            }
            let l = lpa as usize;
            if vt.lpa_file.len() <= l {
                vt.lpa_file.resize(l + 1, NO_FILE);
            }
            if vt.lpa_file[l] != NO_FILE {
                return Err(corrupt(format!("LPA {lpa} listed twice")));
            }
            vt.lpa_file[l] = file;
        }
        let (chips, blocks, ppb) =
            (cfg.n_chips, cfg.geometry.blocks, cfg.geometry.pages_per_block());
        let n_blocks = d.usize()?;
        if n_blocks > chips * blocks as usize {
            return Err(corrupt(format!(
                "{n_blocks} blocks listed of {}",
                chips * blocks as usize
            )));
        }
        for _ in 0..n_blocks {
            let (chip, block) = (d.usize()?, d.u32()?);
            if chip >= chips || block >= blocks {
                return Err(corrupt(format!("chip {chip} block {block} outside the device")));
            }
            let n_pages = d.usize()?;
            if n_pages > ppb as usize {
                return Err(corrupt(format!(
                    "chip {chip} block {block} lists {n_pages} pages of {ppb}"
                )));
            }
            let mut pages = BlockPages::new();
            for _ in 0..n_pages {
                let (page, file, live) = (d.u32()?, d.u32()?, d.bool()?);
                let exposed_since = d.opt(|d| d.u64())?;
                if page >= ppb {
                    return Err(corrupt(format!(
                        "chip {chip} block {block} page {page} outside the device"
                    )));
                }
                if let Some(since) = exposed_since.filter(|&since| since > vt.tick) {
                    return Err(corrupt(format!(
                        "chip {chip} block {block} page {page} exposed at tick {since}, after \
                         the clock's {}",
                        vt.tick
                    )));
                }
                let p = page as usize;
                if pages.len() <= p {
                    pages.resize(p + 1, None);
                }
                if pages[p].is_some() {
                    return Err(corrupt(format!(
                        "chip {chip} block {block} page {page} listed twice"
                    )));
                }
                pages[p] = Some(PageEntry { file, live, exposed_since });
            }
            if vt.phys.insert((chip, block), pages).is_some() {
                return Err(corrupt(format!("chip {chip} block {block} listed twice")));
            }
        }
        for _ in 0..d.usize()? {
            let id = d.u32()?;
            let mut versions = VersionCounts::decode(d)?;
            let multi_version = d.bool()?;
            let causes = CauseCounts::decode(d)?;
            let exposure = ExposureHistogram::decode(d)?;
            versions.decode_open(d, vt.tick)?;
            let f =
                FileVersionStats { versions, multi_version, causes, exposure, timeline: vec![] };
            if vt.files.insert(id, f).is_some() {
                return Err(corrupt(format!("file {id} listed twice")));
            }
        }
        vt.device_causes = CauseCounts::decode(d)?;
        Ok(vt)
    }
}

impl FtlObserver for VerTrace {
    fn on_program(&mut self, lpa: Lpa, at: GlobalPpa, _relocation: bool, _secure: bool) {
        let file = match self.lpa_file.get(lpa as usize) {
            Some(&f) if f != NO_FILE => f,
            _ => return,
        };
        let spare = &mut self.spare;
        let pages = self
            .phys
            .entry((at.chip, at.ppa.block.0))
            .or_insert_with(|| spare.pop().unwrap_or_default());
        let idx = at.ppa.page.0 as usize;
        if pages.len() <= idx {
            pages.resize(idx + 1, None);
        }
        pages[idx] = Some(PageEntry { file, live: true, exposed_since: None });
        let f = self.files.entry(file).or_default();
        f.versions.valid += 1;
        f.note_change(self.tick, self.record_timelines);
    }

    fn on_invalidate(
        &mut self,
        at: GlobalPpa,
        secure: bool,
        sanitized: bool,
        cause: InvalidateCause,
    ) {
        self.device_causes.note(cause, secure, sanitized);
        let Some(block) = self.phys.get_mut(&(at.chip, at.ppa.block.0)) else { return };
        let idx = at.ppa.page.0 as usize;
        let Some(entry) = block.get_mut(idx).and_then(Option::as_mut) else { return };
        let (file, was_live) = (entry.file, entry.live);
        if sanitized {
            block[idx] = None;
        } else {
            entry.live = false;
            entry.exposed_since = Some(self.tick);
        }
        let f = self.files.entry(file).or_default();
        if was_live {
            // Saturating: counters decoded from a checkpoint are not
            // cross-checked against the page entries.
            f.versions.valid = f.versions.valid.saturating_sub(1);
        }
        f.causes.note(cause, secure, sanitized);
        if sanitized {
            // Content immediately unrecoverable: a zero exposure window,
            // and never an invalid version.
            f.exposure.record(0);
        } else {
            f.versions.invalid += 1;
        }
        f.note_change(self.tick, self.record_timelines);
    }

    fn on_erase(&mut self, chip: usize, block: evanesco_nand::geometry::BlockId) {
        let Some(mut entries) = self.phys.remove(&(chip, block.0)) else { return };
        let tick = self.tick;
        let mut touched = std::mem::take(&mut self.touched);
        touched.clear();
        for entry in entries.iter().filter_map(Option::as_ref) {
            let f = self.files.entry(entry.file).or_default();
            if entry.live {
                f.versions.valid = f.versions.valid.saturating_sub(1);
            } else {
                f.versions.invalid = f.versions.invalid.saturating_sub(1);
            }
            if let Some(since) = entry.exposed_since {
                // The erase finally destroyed this stale version: close
                // its exposure window.
                f.exposure.record(tick - since);
            }
            touched.push(entry.file);
        }
        // Peaks and timelines see the block's net effect, once per page.
        for &file in &touched {
            self.files.entry(file).or_default().note_change(tick, self.record_timelines);
        }
        self.touched = touched;
        // Recycle the page table: the next program to a fresh block reuses
        // the allocation instead of growing a new one.
        entries.clear();
        if self.spare.len() < 64 {
            self.spare.push(entries);
        }
    }

    fn on_host_tick(&mut self) {
        self.tick += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evanesco_nand::geometry::{BlockId, Ppa};

    fn at(chip: usize, block: u32, page: u32) -> GlobalPpa {
        GlobalPpa::new(chip, Ppa::new(block, page))
    }

    fn write(vt: &mut VerTrace, file: FileId, lpa: Lpa, npages: u64, overwrite: bool) {
        vt.note_op(&TraceOp::Write { file, lpa, npages, secure: true, overwrite });
    }

    fn counts(vt: &VerTrace, file: FileId) -> (u64, u64) {
        let v = &vt.files()[&file].versions;
        (v.valid, v.invalid)
    }

    #[test]
    fn trims_unmap_and_make_files_multi_version() {
        let mut vt = VerTrace::new();
        write(&mut vt, 1, 0, 2, false);
        vt.note_op(&TraceOp::Trim { file: 1, lpa: 1, npages: 5 });
        vt.on_program(0, at(0, 0, 0), false, true);
        vt.on_program(1, at(0, 0, 1), false, true);
        assert_eq!(counts(&vt, 1), (1, 0), "the trimmed LPA belongs to no file");
        assert!(vt.files()[&1].multi_version);
    }

    #[test]
    fn causes_split_secured_from_exposed_and_sanitized_pages_never_count() {
        let mut vt = VerTrace::new();
        write(&mut vt, 1, 0, 3, false);
        for p in 0..3 {
            vt.on_program(u64::from(p), at(0, 0, p), false, true);
        }
        vt.on_invalidate(at(0, 0, 0), true, true, InvalidateCause::HostUpdate);
        vt.on_invalidate(at(0, 0, 1), true, false, InvalidateCause::Trim);
        vt.on_invalidate(at(0, 0, 2), false, false, InvalidateCause::GcCopy);
        let f = &vt.files()[&1];
        assert_eq!(f.causes.total, [1, 1, 1]);
        assert_eq!(f.causes.secured, [1, 1, 0]);
        assert_eq!(f.causes.exposed, [0, 1, 0]);
        assert_eq!(vt.device_causes.total, [1, 1, 1]);
        // The sanitized page is no invalid version, and a zero-tick window.
        assert_eq!(counts(&vt, 1), (0, 2));
        assert_eq!((f.exposure.count, f.exposure.buckets[0]), (1, 1));
    }

    #[test]
    fn an_erase_clears_versions_and_closes_insecure_time_and_windows() {
        let mut vt = VerTrace::new();
        write(&mut vt, 1, 0, 1, false);
        vt.on_program(0, at(0, 3, 0), false, true);
        for _ in 0..10 {
            vt.on_host_tick();
        }
        vt.on_invalidate(at(0, 3, 0), true, false, InvalidateCause::HostUpdate); // exposed from tick 10
        assert_eq!(counts(&vt, 1), (0, 1));
        for _ in 0..5 {
            vt.on_host_tick();
        }
        vt.on_erase(0, BlockId(3)); // destroyed at tick 15
        for _ in 0..100 {
            vt.on_host_tick();
        }
        vt.finalize();
        let f = &vt.files()[&1];
        assert_eq!(counts(&vt, 1), (0, 0));
        assert_eq!(f.versions.insecure_ticks, 5);
        assert_eq!((f.exposure.count, f.exposure.sum, f.exposure.max), (1, 5, 5));
        // Bucket: 5 ∈ [4, 8) → bucket 3.
        assert_eq!(f.exposure.buckets[3], 1);
    }

    /// A UV file that only grows, and an MV file with one exposed stale
    /// version.
    fn uv_and_mv() -> VerTrace {
        let mut vt = VerTrace::new();
        write(&mut vt, 1, 0, 2, false);
        vt.on_host_tick();
        vt.on_program(0, at(0, 0, 0), false, true);
        vt.on_program(1, at(0, 0, 1), false, true);
        write(&mut vt, 2, 10, 1, false);
        vt.on_program(10, at(0, 1, 0), false, true);
        write(&mut vt, 2, 10, 1, true);
        vt.on_host_tick();
        vt.on_program(10, at(0, 1, 1), false, true);
        vt.on_invalidate(at(0, 1, 0), true, false, InvalidateCause::HostUpdate);
        vt
    }

    #[test]
    fn versions_count_and_the_report_classifies_uv_and_mv() {
        let mut vt = uv_and_mv();
        assert_eq!((counts(&vt, 1), counts(&vt, 2)), ((2, 0), (1, 1)));
        assert!(vt.files()[&2].multi_version);
        assert_eq!(vt.files()[&2].versions.max_invalid, 1);
        let report = vt.report(1000);
        assert_eq!((report.uv.n_files, report.mv.n_files), (1, 1));
        assert_eq!(report.uv.vaf_max, 0.0);
        assert!(report.mv.vaf_max > 0.0);
        assert_eq!(report.mv.causes.exposed, [1, 0, 0]);
        assert_eq!(report.mv.exposure.count, 1);
    }

    #[test]
    fn finalize_right_censors_open_windows() {
        // File 2's stale page has been exposed since tick 2.
        let mut vt = uv_and_mv();
        for _ in 0..7 {
            vt.on_host_tick();
        }
        vt.finalize();
        let f = &vt.files()[&2];
        assert_eq!((f.exposure.count, f.exposure.sum), (1, 7));
        assert_eq!(f.versions.insecure_ticks, 7);
        // Idempotent: a second finalize records nothing new.
        vt.finalize();
        assert_eq!(vt.files()[&2].exposure.count, 1);
    }

    #[test]
    fn timelines_record_when_enabled() {
        let mut vt = VerTrace::with_timelines();
        write(&mut vt, 1, 0, 1, false);
        vt.on_program(0, at(0, 0, 0), false, true);
        vt.on_host_tick();
        vt.on_invalidate(at(0, 0, 0), true, false, InvalidateCause::HostUpdate);
        assert_eq!(vt.files()[&1].timeline, [(0, 1, 0), (1, 0, 1)]);
        assert!(uv_and_mv().files()[&1].timeline.is_empty(), "off by default");
    }

    #[test]
    fn worst_file_selection() {
        let mut vt = VerTrace::new();
        for (file, n) in [(1u32, 2u32), (2, 5)] {
            let lpa = u64::from(file) * 100;
            write(&mut vt, file, lpa, 1, false);
            vt.on_program(lpa, at(0, file, 0), false, true);
            for i in 0..n {
                write(&mut vt, file, lpa, 1, true);
                vt.on_program(lpa, at(0, file, i + 1), false, true);
                vt.on_invalidate(at(0, file, i), true, false, InvalidateCause::HostUpdate);
            }
        }
        let (id, stats) = vt.worst_file(true).unwrap();
        assert_eq!((id, stats.versions.max_invalid), (2, 5));
        assert!(vt.worst_file(false).is_none());
    }

    /// Nothing depends on insertion order: files tied on their peak invalid
    /// count, inserted in either order, name the lowest id worst, and the
    /// reports (float sums over unequal VAFs) agree to the bit.
    #[test]
    fn ties_and_sums_do_not_depend_on_insertion_order() {
        let build = |files: &[u32]| {
            let mut vt = VerTrace::new();
            for &file in files {
                // `file + 1` pages, three of them overwritten: VAF 3 / (file + 2).
                let (lpa, valid) = (u64::from(file) * 100, file + 1);
                write(&mut vt, file, lpa, u64::from(valid), false);
                for p in 0..valid {
                    vt.on_program(lpa + u64::from(p), at(0, file, p), false, true);
                }
                for p in 0..3 {
                    write(&mut vt, file, lpa + u64::from(p), 1, true);
                    vt.on_program(lpa + u64::from(p), at(0, file, valid + p), false, true);
                    vt.on_invalidate(at(0, file, p), true, false, InvalidateCause::HostUpdate);
                }
            }
            vt
        };
        let files = [3u32, 5, 8, 13, 21, 34];
        let reversed: Vec<u32> = files.iter().rev().copied().collect();
        let (mut a, mut b) = (build(&files), build(&reversed));
        assert_eq!(a.worst_file(true).map(|(id, f)| (id, f.versions.max_invalid)), Some((3, 3)));
        assert_eq!(b.worst_file(true).map(|(id, _)| id), Some(3));
        assert_eq!(a.report(1000), b.report(1000));
    }

    // ---- Checkpoint stream ----

    fn cfg() -> FtlConfig {
        FtlConfig::tiny_for_tests()
    }

    fn bytes(vt: &VerTrace) -> Vec<u8> {
        let mut e = Enc::new();
        vt.encode_state(&mut e);
        e.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<VerTrace, SnapshotError> {
        let mut d = Dec::new(bytes);
        let vt = VerTrace::decode_state(&cfg(), &mut d)?;
        d.finish()?;
        Ok(vt)
    }

    #[test]
    fn snapshot_roundtrip_preserves_state_and_report() {
        let mut vt = uv_and_mv();
        let mut back = decode(&bytes(&vt)).unwrap();
        // Continue both in lockstep: closing the open exposure window via
        // an erase must land identically.
        for v in [&mut vt, &mut back] {
            for _ in 0..4 {
                v.on_host_tick();
            }
            v.on_erase(0, BlockId(1));
        }
        assert_eq!(vt.report(1000), back.report(1000));
        // A restored VerTrace re-encodes byte-identically.
        assert_eq!(bytes(&vt), bytes(&back));
    }

    /// Page entry as the stream lists it: `(page, file, live, exposed_since)`.
    type Entry = (u32, u32, bool, Option<u64>);

    /// A `0x60` stream at tick 9 with the given LPA map, blocks and files
    /// (all counters zero), well-formed as far as the framing goes.
    fn stream(lpas: &[(u64, u32)], blocks: &[(usize, u32, &[Entry])], files: &[Entry]) -> Vec<u8> {
        let mut e = Enc::new();
        e.tag(0x60);
        e.u64(9);
        e.usize(lpas.len());
        for &(lpa, file) in lpas {
            e.u64(lpa);
            e.u32(file);
        }
        e.usize(blocks.len());
        for &(chip, block, pages) in blocks {
            e.usize(chip);
            e.u32(block);
            e.usize(pages.len());
            for &(page, file, live, since) in pages {
                e.u32(page);
                e.u32(file);
                e.bool(live);
                e.opt(&since, |e, &t| e.u64(t));
            }
        }
        e.usize(files.len());
        for &(id, _, multi_version, since) in files {
            e.u32(id);
            VersionCounts::default().encode(&mut e);
            e.bool(multi_version);
            CauseCounts::default().encode(&mut e);
            ExposureHistogram::default().encode(&mut e);
            e.opt(&since, |e, &t| e.u64(t));
        }
        CauseCounts::default().encode(&mut e);
        e.into_bytes()
    }

    fn corrupt(bytes: &[u8], needle: &str) {
        match decode(bytes) {
            Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("expected Corrupt(.. {needle} ..), got {other:?}"),
        }
    }

    #[test]
    fn a_well_formed_stream_decodes_and_every_truncation_is_typed() {
        let good = bytes(&uv_and_mv());
        assert!(decode(&good).is_ok());
        for cut in 0..good.len() {
            assert!(
                matches!(decode(&good[..cut]), Err(SnapshotError::Truncated { .. })),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn addresses_outside_the_configured_device_are_rejected() {
        // tiny_for_tests: 614 logical pages; chips 0..2, blocks 0..16, pages 0..24.
        let live: &[Entry] = &[(0, 1, true, None)];
        for lpa in [614, 1 << 40, u64::MAX] {
            corrupt(&stream(&[(lpa, 1)], &[], &[]), "outside the device");
        }
        corrupt(&stream(&[(0, NO_FILE)], &[], &[]), "outside the device");
        corrupt(&stream(&[], &[(2, 0, live)], &[]), "outside the device");
        corrupt(&stream(&[], &[(usize::MAX, 0, live)], &[]), "outside the device");
        corrupt(&stream(&[], &[(0, 16, live)], &[]), "outside the device");
        for page in [24, 1 << 30, u32::MAX] {
            corrupt(&stream(&[], &[(0, 0, &[(page, 1, true, None)])], &[]), "outside the device");
        }
    }

    #[test]
    fn duplicates_are_rejected() {
        corrupt(&stream(&[(5, 1), (5, 2)], &[], &[]), "LPA 5 listed twice");
        let two: &[Entry] = &[(3, 1, true, None), (3, 1, false, Some(2))];
        corrupt(&stream(&[], &[(0, 1, two)], &[]), "page 3 listed twice");
        let one: &[Entry] = &[(0, 1, true, None)];
        corrupt(&stream(&[], &[(1, 4, one), (1, 4, &[])], &[]), "block 4 listed twice");
        corrupt(
            &stream(&[], &[], &[(6, 0, false, None), (6, 0, true, None)]),
            "file 6 listed twice",
        );
    }

    #[test]
    fn windows_and_intervals_opening_after_the_clock_are_rejected() {
        corrupt(&stream(&[], &[(0, 0, &[(0, 1, false, Some(10))])], &[]), "after the clock");
        corrupt(&stream(&[], &[], &[(1, 0, true, Some(u64::MAX))]), "after the clock");
        assert!(decode(&stream(&[], &[(0, 0, &[(0, 1, false, Some(9))])], &[])).is_ok());
    }

    #[test]
    fn huge_counts_are_refused_without_allocating() {
        let header = |tail: &dyn Fn(&mut Enc)| {
            let mut e = Enc::new();
            e.tag(0x60);
            e.u64(9);
            tail(&mut e);
            e.into_bytes()
        };
        corrupt(&header(&|e| e.usize(usize::MAX)), "LPAs listed of");
        corrupt(&header(&|e| e.usize(615)), "LPAs listed of");
        corrupt(
            &header(&|e| {
                e.usize(0);
                e.usize(usize::MAX);
            }),
            "blocks listed of",
        );
        corrupt(
            &header(&|e| {
                e.usize(0);
                e.usize(1);
                e.usize(0);
                e.u32(0);
                e.usize(usize::MAX);
            }),
            "lists",
        );
        // A file count the stream cannot back ends in truncation.
        let files = header(&|e| {
            e.usize(0);
            e.usize(0);
            e.usize(usize::MAX);
        });
        assert!(matches!(decode(&files), Err(SnapshotError::Truncated { .. })));
    }
}
