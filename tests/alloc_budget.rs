//! Allocation budget of being observed.
//!
//! The trace ring and the latency anatomy store everything in chunked
//! arenas and recycle their working buffers, so a traced + anatomized run
//! allocates per *chunk*, not per request, and dropping the recorders
//! frees a block per chunk. A counting global allocator pins both: the
//! observed run may allocate (and its drop may free) no more than the
//! same run unobserved plus two blocks per arena chunk its volume fills.
//! The `Vec`-per-trace ring and the pending-window anatomy spent 21 889
//! extra allocations on these 5 000 requests and freed 17 061 blocks on
//! drop; the arenas and occupancy rings spend 77 and free 69.
//!
//! The bare run has a budget of its own: its result vectors and a constant.
//! So has the NAND data path under it: a locked read builds nothing, and a
//! serialized scrSSD replay allocates a constant that does not grow with
//! the trace.
//!
//! Counts are process-wide: a traced scheduled run records on a thread of
//! its own, whose arena chunks a per-thread count would miss. The file's
//! tests therefore run one at a time behind one lock, each starting once
//! the process has fallen quiet, and the runs are deterministic, so this
//! gates. The observed run spends 125 allocations beyond the bare one and
//! frees 68 more blocks on drop, for 84 chunks (budget 168): the rings'
//! chunks, allocated on the request thread and shipped with each batch
//! (up to one per ring arena per batch in flight), the recorders' working
//! buffers, and the recorder thread, its two channels and its two spare
//! batches, a fixed cost per call. With segments still stored in a third
//! arena the same run spent 120 and freed 70 for 91 chunks. One
//! allocation per request on the recorder thread reads 4 626 here, where a
//! per-thread count read 40 and passed.

use evanesco::ftl::SanitizePolicy;
use evanesco::ssd::anatomy::interference_of;
use evanesco::ssd::trace::TraceEvent;
use evanesco::ssd::{Emulator, HostOp, SsdConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, PoisonError};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards to `System` with its arguments unchanged,
// so `System`'s contract is this allocator's; the counters are atomics
// touched before the forwarded call, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth in place of an alloc + free pair: counted as both.
        ALLOCS.fetch_add(1, Relaxed);
        FREES.fetch_add(1, Relaxed);
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s
        // size contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

fn frees() -> u64 {
    FREES.load(Relaxed)
}

/// Serializes the file's tests.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes the file's lock, then waits until no allocation or free happens
/// anywhere in the process for 20 ms: the test harness's bookkeeping for
/// the test that just finished (its thread's teardown, the next test's
/// spawn) must not land in this one's counts.
fn exclusive() -> MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let mut seen = (allocs(), frees());
    loop {
        std::thread::sleep(std::time::Duration::from_millis(20));
        let now = (allocs(), frees());
        if now == seen {
            return guard;
        }
        seen = now;
    }
}

/// A deterministic mixed workload: secure and insecure writes, reads and
/// trims over the whole logical range.
fn mixed_ops(logical: u64, n: usize, seed: u64) -> Vec<HostOp> {
    let mut x = seed | 1;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x >> 33
    };
    (0..n)
        .map(|_| {
            let npages = 1 + step() % 6;
            let lpa = step() % (logical - npages);
            match step() % 10 {
                0..=4 => HostOp::Write { lpa, npages, secure: step() % 3 != 0 },
                5..=7 => HostOp::Read { lpa, npages },
                _ => HostOp::Trim { lpa, npages },
            }
        })
        .collect()
}

const REQUESTS: usize = 5_000;

/// What one run cost the allocator, and what the observers recorded.
struct Cost {
    /// Allocations during the measured requests (warm-up excluded).
    run_allocs: u64,
    /// Blocks freed by dropping the emulator.
    drop_frees: u64,
    /// Arena chunks the recorded volume fills, restating the recorders'
    /// chunk sizes (1 024 headers and rows; 8 192 events; 4 096 chain
    /// links) plus one open chunk per arena, and the blocks of each
    /// resource's occupancy ring (grown by doubling from 4 slots to its
    /// bound of 4 096: at most 12).
    chunks: u64,
}

fn run(observed: bool, qd: usize) -> Cost {
    let cfg = SsdConfig::tiny_for_tests();
    let logical = cfg.ftl.logical_pages();
    let warm_up = mixed_ops(logical, 500, 0xC0FFEE);
    let ops = mixed_ops(logical, REQUESTS, 0xA110C);
    let mut ssd = Emulator::new(cfg, SanitizePolicy::evanesco());
    if observed {
        ssd.enable_anatomy(warm_up.len() + ops.len(), 8);
    }
    // The warm-up grows every recycled buffer and opens the first chunks.
    ssd.run_scheduled(&warm_up, qd);
    let before = allocs();
    ssd.run_scheduled(&ops, qd);
    let run_allocs = allocs() - before;

    let mut chunks = 0;
    if let (Some(tr), Some(an)) = (ssd.trace(), ssd.anatomy()) {
        assert_eq!(tr.dropped() + an.dropped(), 0, "rings sized to the run");
        assert!(tr.recorded() as usize > REQUESTS * 3 / 4, "most requests leave a trace");
        let mut events = 0u64;
        let mut interfering = std::collections::BTreeSet::new();
        for t in tr.traces() {
            events += t.events().len() as u64;
            let blamable = |e: &TraceEvent| interference_of(e.kind, e.cause).is_some();
            interfering.extend(t.events().filter(blamable).map(|e| e.resource));
        }
        let links: u64 = an.rows().map(|r| r.chain().len() as u64).sum();
        let (arenas, rings) = (4, 12 * interfering.len() as u64);
        chunks = 2 * tr.recorded() / 1024 + events / 8192 + links / 4096 + arenas + rings;
    }
    let before = frees();
    drop(ssd);
    Cost { run_allocs, drop_frees: frees() - before, chunks }
}

#[test]
fn being_observed_allocates_per_chunk_not_per_request() {
    let _serial = exclusive();
    let bare = run(false, 8);
    let observed = run(true, 8);
    assert!(observed.chunks > 10, "the run must fill several chunks");
    let budget = 2 * observed.chunks;
    let extra_allocs = observed.run_allocs.saturating_sub(bare.run_allocs);
    let extra_frees = observed.drop_frees.saturating_sub(bare.drop_frees);
    println!(
        "bare: {} allocations; observed: +{extra_allocs} during the run, +{extra_frees} blocks \
         freed on drop; {} chunks, budget {budget}",
        bare.run_allocs, observed.chunks
    );
    assert!(
        extra_allocs <= budget,
        "tracing + anatomy allocated {extra_allocs} times over {REQUESTS} requests \
         (budget {budget} = 2 per arena chunk): an observer path allocates per request again"
    );
    assert!(
        extra_frees <= budget,
        "dropping the recorders freed {extra_frees} blocks (budget {budget}): \
         the rings hold per-request allocations again"
    );
}

/// The bare run's own budget: the vector each non-empty write or read hands
/// back through `SchedRun::results`, and nothing else that scales with the
/// request count — not in the scoreboard (fixed slots), not in the driver
/// loop, not in GC (its buffers are recycled, and victim choice scans the
/// block table). What remains is the run's fixed tables (15 scoreboard
/// arrays, 3 per-request columns) and the doubling growth of a few logs:
/// 20 and 19 blocks here (22 and 23 while the driver kept a per-call tag
/// vector and collected its results from a second one, 38 and 40 while
/// each chip kept a bucketed GC victim index, 42 and 44 while the
/// scoreboard also kept a per-LPA dependency table). Before the slots and
/// the recycled GC buffer the same runs allocated 5 172 and 5 089.
#[test]
fn a_bare_scheduled_run_allocates_its_results_and_a_constant() {
    let _serial = exclusive();
    let cfg = SsdConfig::tiny_for_tests();
    let ops = mixed_ops(cfg.ftl.logical_pages(), REQUESTS, 0xA110C);
    let returned = ops.iter().filter(|op| !matches!(op, HostOp::Trim { .. })).count() as u64;
    for qd in [8, 32] {
        let allocs = run(false, qd).run_allocs;
        println!(
            "qd {qd}: {allocs} allocations, {returned} of {REQUESTS} requests return a vector"
        );
        assert!(
            allocs <= returned + 20,
            "qd {qd}: {allocs} allocations for {returned} result vectors: the scoreboard or the \
             driver loop allocates per request again"
        );
    }
}

/// Reading a locked page builds nothing: the gate is tested before any
/// content is materialised (it used to copy the pooled payload into a fresh
/// `Box` and then drop it). The read is still a read — counted, and as slow
/// as any other.
#[test]
fn a_locked_read_allocates_nothing() {
    let _serial = exclusive();
    use evanesco::core::chip::{EvanescoChip, ReadResult};
    use evanesco::nand::chip::PageData;
    use evanesco::nand::geometry::{BlockId, Geometry, Ppa};

    let mut chip = EvanescoChip::new(Geometry::small_tlc());
    let (plocked, blocked, open) = (Ppa::new(0, 0), Ppa::new(1, 0), Ppa::new(2, 0));
    for ppa in [plocked, blocked, open] {
        chip.program(ppa, PageData::with_payload(&[0xA5; 512])).expect("in-order program");
    }
    chip.p_lock(plocked).expect("programmed page");
    chip.b_lock(BlockId(1)).expect("in-range block");
    let t_read = chip.timing().t_read;

    let (reads, before) = (chip.nand_stats().reads, allocs());
    for ppa in [plocked, blocked] {
        let out = chip.read(ppa).expect("in range");
        assert_eq!(out.result, ReadResult::Locked);
        assert_eq!(out.latency, t_read);
        assert_eq!(chip.read_data(ppa).expect("in range"), None);
    }
    assert_eq!(allocs() - before, 0, "a locked read materialised the page it was hiding");
    assert_eq!(chip.nand_stats().reads, reads + 4, "a locked read still senses the array");
    // The exposed neighbour pays for exactly its payload copy.
    let before = allocs();
    assert!(chip.read_data(open).expect("in range").is_some());
    assert_eq!(allocs() - before, 1);
}

/// The Figure-14 path under scrSSD — the relocation-heaviest policy: every
/// secure invalidation reads, reprograms and scrubs the page's wordline
/// siblings (8 NAND programs per host write here). The NAND data path
/// moves page records by value and allocates nothing, the replay's host
/// calls hand back nothing (a write returns its tag range, a read feeds a
/// sink), and GC keeps no victim index, so a serialized replay allocates a
/// constant: 29 blocks on this device, the same for half the trace as for
/// all of it (4 636 beyond a vector per request while each chip's GC victim
/// buckets grew to their high-water capacity).
#[test]
fn a_serialized_scrub_replay_allocates_its_results_and_a_constant() {
    let _serial = exclusive();
    use evanesco::workloads::replay::replay;
    use evanesco::workloads::trace::{Trace, TraceOp};
    use evanesco::workloads::WorkloadSpec;

    let cfg = SsdConfig::scaled(12);
    let logical = cfg.ftl.logical_pages();
    let spec = &WorkloadSpec::table2()[0];
    let full = evanesco::workloads::generate::generate(spec, logical, logical * 2, 42);
    // Allocations of replaying `ops` after the prefill.
    let spent = |ops: &[TraceOp]| {
        let mut ssd = Emulator::new(cfg, SanitizePolicy::scrub());
        let trace = Trace { name: full.name.clone(), prefill: full.prefill.clone(), ops: vec![] };
        replay(&mut ssd, &trace);
        let trace = Trace { name: full.name.clone(), prefill: vec![], ops: ops.to_vec() };
        let before = allocs();
        let r = replay(&mut ssd, &trace);
        let spent = allocs() - before;
        assert!(r.ftl.scrubs > 0 && r.ftl.copied_pages > 0, "the run must relocate");
        println!("{} ops, {} NAND programs: {spent} allocations", ops.len(), r.ftl.nand_programs);
        spent
    };
    let half = spent(&full.ops[..full.ops.len() / 2]);
    let whole = spent(&full.ops);
    assert!(half <= 29, "{half} allocations: the constant grew");
    assert!(
        whole <= half + 64,
        "{whole} allocations for the whole trace, {half} for half of it: the replay, GC or the \
         NAND data path allocates per request again"
    );
}
