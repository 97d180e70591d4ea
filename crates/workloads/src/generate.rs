//! The trace-generation engine: turns a [`WorkloadSpec`] into a concrete,
//! seeded, replayable [`Trace`].
//!
//! Methodology follows the paper's §3/§7 setup: prefill the device to the
//! target utilization, then generate write events per the workload's mix
//! until the measured phase has written the requested volume, interleaving
//! reads at the workload's read:write ratio and keeping utilization around
//! the target with watermark-driven deletions.

use crate::fs::{FileInfo, FileModel};
use crate::spec::{WorkloadSpec, TARGET_UTILIZATION};
use crate::trace::{Trace, TraceOp};
use evanesco_ftl::Lpa;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// High watermark above which the generator deletes files down to the
/// target utilization.
const HIGH_WATERMARK_SLACK: f64 = 0.05;

/// Generates a trace for `spec` over a logical space of `logical_pages`,
/// writing `main_write_pages` in the measured phase.
///
/// Deterministic for a given `(spec, logical_pages, main_write_pages,
/// seed)`.
pub fn generate(
    spec: &WorkloadSpec,
    logical_pages: u64,
    main_write_pages: u64,
    seed: u64,
) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    // Reads draw from their own stream so the number of interleaved read
    // bursts (which varies with the read:write ratio) cannot perturb the
    // write-side event sequence.
    let mut read_rng = StdRng::seed_from_u64(seed ^ 0x5245_4144); // "READ"
    let mut fs = FileModel::new(logical_pages);
    let mut trace = Trace { name: spec.name.to_string(), ..Default::default() };

    // ---- Prefill to target utilization with file creations.
    while fs.utilization() < TARGET_UTILIZATION {
        let size = sample_range(&mut rng, spec.file_pages).min(fs.free_pages()).max(1);
        if fs.free_pages() == 0 {
            break;
        }
        let secure = rng.gen::<f64>() < spec.secure_fraction;
        let f = fs.create(size, secure).expect("space checked");
        emit_runs(&mut trace.prefill, f.id, &f.lpas, f.secure, false);
    }

    // ---- Measured phase.
    let mut written = 0u64;
    let mut read_credit = 0.0f64;
    let mut guard = 0u64;
    while written < main_write_pages {
        guard += 1;
        assert!(
            guard < main_write_pages * 64 + 1_000_000,
            "generator failed to make progress for {}",
            spec.name
        );
        // Watermark deletions keep utilization near target.
        while fs.utilization() > TARGET_UTILIZATION + HIGH_WATERMARK_SLACK {
            let Some(pos) = fs.random_file(&mut rng) else { break };
            emit_delete(&mut trace.ops, &mut fs, pos);
        }
        let ev = pick_event(&mut rng, spec);
        let pages = match ev {
            Event::Create => {
                let size = sample_range(&mut rng, spec.file_pages);
                if fs.free_pages() < size {
                    // Make room first.
                    if let Some(pos) = fs.random_file(&mut rng) {
                        emit_delete(&mut trace.ops, &mut fs, pos);
                    }
                    continue;
                }
                let secure = rng.gen::<f64>() < spec.secure_fraction;
                let f = fs.create(size, secure).expect("space checked");
                emit_runs(&mut trace.ops, f.id, &f.lpas, f.secure, false)
            }
            Event::Append => {
                let Some(pos) = fs.random_file(&mut rng) else { continue };
                let n = sample_range(&mut rng, spec.write_pages);
                if fs.free_pages() < n {
                    continue;
                }
                let &FileInfo { id, secure, .. } = fs.file(pos);
                let new = fs.append(pos, n).expect("space checked");
                emit_runs(&mut trace.ops, id, new, secure, false)
            }
            Event::Overwrite => {
                let Some(pos) = fs.random_file(&mut rng) else { continue };
                let n = sample_range(&mut rng, spec.write_pages);
                let Some(pages) = fs.overwrite_range(&mut rng, pos, n) else { continue };
                let f = fs.file(pos);
                emit_runs(&mut trace.ops, f.id, pages, f.secure, true)
            }
            Event::Delete => {
                let Some(pos) = fs.random_file(&mut rng) else { continue };
                emit_delete(&mut trace.ops, &mut fs, pos);
                0
            }
        };
        written += pages;

        // Interleave reads by volume ratio.
        read_credit += pages as f64 * spec.reads_per_write;
        while read_credit >= 1.0 {
            let Some(pos) = fs.random_file(&mut read_rng) else { break };
            let lpas = &fs.file(pos).lpas;
            // Cap the burst at the outstanding credit: otherwise a single
            // large-file read (Mobile reads up to 512 pages against a 0.02
            // ratio) overshoots the requested read volume by orders of
            // magnitude.
            let n = sample_range(&mut read_rng, spec.write_pages)
                .min(read_credit.ceil() as u64)
                .min(lpas.len() as u64)
                .max(1);
            let start = read_rng.gen_range(0..lpas.len() - (n as usize - 1));
            let runs = FileModel::contiguous_runs(&lpas[start..start + n as usize]);
            trace.ops.extend(runs.map(|(lpa, npages)| TraceOp::Read { lpa, npages }));
            read_credit -= n as f64;
        }
    }
    trace
}

enum Event {
    Create,
    Append,
    Overwrite,
    Delete,
}

fn pick_event(rng: &mut StdRng, spec: &WorkloadSpec) -> Event {
    let total = spec.mix.total();
    let mut x = rng.gen_range(0..total);
    if x < spec.mix.create {
        return Event::Create;
    }
    x -= spec.mix.create;
    if x < spec.mix.append {
        return Event::Append;
    }
    x -= spec.mix.append;
    if x < spec.mix.overwrite {
        return Event::Overwrite;
    }
    Event::Delete
}

fn sample_range(rng: &mut StdRng, (lo, hi): (u64, u64)) -> u64 {
    rng.gen_range(lo..=hi)
}

fn emit_runs(
    ops: &mut Vec<TraceOp>,
    file: u32,
    lpas: &[Lpa],
    secure: bool,
    overwrite: bool,
) -> u64 {
    let runs = FileModel::contiguous_runs(lpas);
    ops.extend(runs.map(|(lpa, npages)| TraceOp::Write { file, lpa, npages, secure, overwrite }));
    lpas.len() as u64
}

fn emit_delete(ops: &mut Vec<TraceOp>, fs: &mut FileModel, pos: usize) {
    let f = fs.delete(pos);
    let runs = FileModel::contiguous_runs(&f.lpas);
    ops.extend(runs.map(|(lpa, npages)| TraceOp::Trim { file: f.id, lpa, npages }));
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOGICAL: u64 = 4096;

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::mail_server();
        let a = generate(&spec, LOGICAL, 2000, 7);
        let b = generate(&spec, LOGICAL, 2000, 7);
        assert_eq!(a.ops.len(), b.ops.len());
        assert_eq!(a.prefill.len(), b.prefill.len());
        assert_eq!(a.ops, b.ops);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = WorkloadSpec::mail_server();
        let a = generate(&spec, LOGICAL, 2000, 7);
        let b = generate(&spec, LOGICAL, 2000, 8);
        assert_ne!(a.ops, b.ops);
    }

    #[test]
    fn main_phase_reaches_requested_volume() {
        for spec in WorkloadSpec::table2() {
            let t = generate(&spec, LOGICAL, 3000, 1);
            assert!(
                t.main_write_pages() >= 3000,
                "{}: only {} pages",
                spec.name,
                t.main_write_pages()
            );
            // Prefill roughly hits the target utilization.
            assert!(
                t.prefill_write_pages() as f64 >= 0.74 * LOGICAL as f64,
                "{}: prefill {}",
                spec.name,
                t.prefill_write_pages()
            );
        }
    }

    #[test]
    fn read_volume_tracks_ratio() {
        for spec in WorkloadSpec::table2() {
            let t = generate(&spec, LOGICAL, 5000, 3);
            let written = t.main_write_pages() as f64;
            let read: u64 = t
                .ops
                .iter()
                .map(|op| match op {
                    TraceOp::Read { npages, .. } => *npages,
                    _ => 0,
                })
                .sum();
            let ratio = read as f64 / written;
            assert!(
                (ratio - spec.reads_per_write).abs() < 0.25 * spec.reads_per_write.max(0.05),
                "{}: read ratio {ratio} vs spec {}",
                spec.name,
                spec.reads_per_write
            );
        }
    }

    #[test]
    fn addresses_stay_in_bounds() {
        for spec in WorkloadSpec::table2() {
            let t = generate(&spec, LOGICAL, 2000, 5);
            for op in t.prefill.iter().chain(&t.ops) {
                let (lpa, n) = match *op {
                    TraceOp::Write { lpa, npages, .. } => (lpa, npages),
                    TraceOp::Read { lpa, npages } => (lpa, npages),
                    TraceOp::Trim { lpa, npages, .. } => (lpa, npages),
                };
                assert!(lpa + n <= LOGICAL, "{}: op out of bounds", spec.name);
                assert!(n > 0);
            }
        }
    }

    #[test]
    fn db_server_emits_overwrites_mobile_does_not() {
        let db = generate(&WorkloadSpec::db_server(), LOGICAL, 3000, 1);
        let mobile = generate(&WorkloadSpec::mobile(), LOGICAL, 3000, 1);
        let count_ow = |t: &Trace| {
            t.ops.iter().filter(|op| matches!(op, TraceOp::Write { overwrite: true, .. })).count()
        };
        assert!(count_ow(&db) > 0);
        assert_eq!(count_ow(&mobile), 0);
        // Mobile deletes whole (large) files.
        assert!(db.ops.iter().any(|op| matches!(op, TraceOp::Trim { .. })));
    }

    #[test]
    fn secure_fraction_zero_marks_nothing_secure() {
        let spec = WorkloadSpec::file_server().with_secure_fraction(0.0);
        let t = generate(&spec, LOGICAL, 2000, 2);
        for op in t.prefill.iter().chain(&t.ops) {
            if let TraceOp::Write { secure, .. } = op {
                assert!(!secure);
            }
        }
    }

    /// Logical pages of the paper's 8-chip, 576-page-block, 12.5 %
    /// over-provisioned device at `blocks` blocks per chip.
    fn paper_logical_pages(blocks: u64) -> u64 {
        blocks * 576 * 8 * 7 / 8
    }

    /// Wall time per emitted op, and the op count, of MailServer — the spec
    /// with the most live files — at the paper's ratios (75 % prefill,
    /// 2 × logical written) at `blocks` blocks per chip.
    fn mail_server_ns_per_op(blocks: u64) -> (f64, usize) {
        let logical = paper_logical_pages(blocks);
        let t0 = std::time::Instant::now();
        let t = generate(&WorkloadSpec::mail_server(), logical, 2 * logical, 42);
        let ops = t.prefill.len() + t.ops.len();
        (t0.elapsed().as_secs_f64() * 1e9 / ops as f64, ops)
    }

    /// The best ns/op, and the op count, of up to five rounds at `blocks`
    /// blocks per chip, each on a thread the test waits on for at most
    /// `budget` (a cut round's thread is left to finish on its own and
    /// counts as infinity); stops at the first round under `enough`.
    fn best_round(blocks: u64, budget: std::time::Duration, enough: f64) -> (f64, usize) {
        let mut best = (f64::INFINITY, 0);
        for _ in 0..5 {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || tx.send(mail_server_ns_per_op(blocks)));
            if let Ok(round) = rx.recv_timeout(budget) {
                best = if round.0 < best.0 { round } else { best };
            }
            if best.0 < enough {
                break;
            }
        }
        best
    }

    /// Whole budget of one round at `blocks` blocks per chip at the bound:
    /// 2.5× the `small` side's ns/op over its op count scaled by the size
    /// ratio.
    fn budget_at_bound(small: (f64, usize), small_blocks: u64, blocks: u64) -> std::time::Duration {
        let ops = small.1 as f64 * blocks as f64 / small_blocks as f64;
        std::time::Duration::from_secs_f64(2.5 * small.0 * ops / 1e9)
    }

    /// MailServer ns/op grows by less than 2.5× in two steps: from 8 to 32
    /// blocks per chip (4×), then from 32 to 342 (10.7×), where both sizes
    /// outgrow the caches (at 12 blocks the smaller one read anywhere from
    /// 46 to 99 ns/op with the allocator's state alone). Each side is the
    /// best of up to five rounds, a larger side's rounds cut at the smaller
    /// side's whole budget at the bound. The small step comes first, so a
    /// quadratic generator fails there in seconds (a per-delete scan of the
    /// live files took 24 minutes a round at 342 blocks) without a
    /// 342-block round ever starting. The 32-block side runs all five
    /// rounds, as it is the next step's small side; the first 342-block
    /// round under the bound passes, and a stall from a test running beside
    /// this one must hit all five to fail it.
    #[test]
    fn generation_cost_per_op_does_not_grow_with_the_device() {
        let tiny = best_round(8, std::time::Duration::MAX, 0.0);
        let small = best_round(32, budget_at_bound(tiny, 8, 32), 0.0);
        println!("MailServer ns/op: {:.0} at 8 blocks per chip, {:.0} at 32", tiny.0, small.0);
        assert!(
            small.0 < 2.5 * tiny.0,
            "ns/op grew {:.0} -> {:.0} from 8 to 32 blocks (inf: every round ran past the \
             8-block side's budget at the bound)",
            tiny.0,
            small.0
        );
        let budget = budget_at_bound(small, 32, 342);
        let large = best_round(342, budget, 2.5 * small.0);
        println!("MailServer ns/op: {:.0} at 342 blocks per chip", large.0);
        // A per-delete scan of the live files reads ≈ 9× here; what is left
        // is the working set outgrowing the caches further.
        assert!(
            large.0 < 2.5 * small.0,
            "ns/op grew {:.0} -> {:.0} from 32 to 342 blocks (inf: every round ran past \
             {budget:?}, the small side's budget at the bound)",
            small.0,
            large.0
        );
    }

    #[test]
    #[ignore = "paper geometry: 9.4 M ops, release only (CI runs it with --release -- --ignored)"]
    fn paper_geometry_mail_server_generates_in_seconds() {
        let logical = paper_logical_pages(428);
        let t0 = std::time::Instant::now();
        let t = generate(&WorkloadSpec::mail_server(), logical, 2 * logical, 42);
        let wall = t0.elapsed().as_secs_f64();
        assert!(t.main_write_pages() >= 2 * logical);
        assert!(wall < 5.0, "MailServer at 428 blocks per chip took {wall:.1} s");
    }
}
