//! Microbenchmarks of the Evanesco lock mechanism: `pLock`/`bLock`
//! execution, lock-gated reads, the majority decoder and the physical
//! flag simulation (program = two stores, decode = k keyed cell draws).

use criterion::{criterion_group, criterion_main, Criterion};
use evanesco_core::chip::EvanescoChip;
use evanesco_core::device_flags::FlagDeviceSim;
use evanesco_core::majority::majority;
use evanesco_nand::chip::PageData;
use evanesco_nand::geometry::{BlockId, Geometry, Ppa};
use evanesco_nand::timing::Nanos;
use std::hint::black_box;

fn bench_locks(c: &mut Criterion) {
    let geom = Geometry::paper_tlc_with_blocks(8);
    let ppb = geom.pages_per_block();
    let mut g = c.benchmark_group("evanesco_locks");

    g.bench_function("p_lock", |b| {
        let mut chip = EvanescoChip::new(geom);
        for p in 0..ppb {
            chip.program(Ppa::new(0, p), PageData::tagged(p as u64)).unwrap();
        }
        let mut i = 0u64;
        b.iter(|| {
            chip.p_lock(Ppa::new(0, (i % ppb as u64) as u32)).unwrap();
            i += 1;
        });
    });

    g.bench_function("b_lock_plus_erase_cycle", |b| {
        let mut chip = EvanescoChip::new(geom);
        chip.program(Ppa::new(0, 0), PageData::tagged(1)).unwrap();
        b.iter(|| {
            chip.b_lock(BlockId(0)).unwrap();
            chip.erase(BlockId(0), Nanos::ZERO).unwrap();
            chip.program(Ppa::new(0, 0), PageData::tagged(1)).unwrap();
        });
    });

    g.bench_function("gated_read_locked", |b| {
        let mut chip = EvanescoChip::new(geom);
        chip.program(Ppa::new(0, 0), PageData::tagged(1)).unwrap();
        chip.p_lock(Ppa::new(0, 0)).unwrap();
        b.iter(|| black_box(chip.read(Ppa::new(0, 0)).unwrap()));
    });

    g.bench_function("majority_9", |b| {
        let bits = [true, true, false, true, true, false, true, false, true];
        b.iter(|| black_box(majority(black_box(&bits))));
    });

    g.bench_function("flag_sim_program_page_flag", |b| {
        let mut sim = FlagDeviceSim::paper(1, geom.blocks, ppb);
        let mut i = 0u32;
        b.iter(|| {
            sim.program_page_flag(Ppa::new(0, i % ppb));
            i = i.wrapping_add(1);
        });
    });

    g.bench_function("flag_sim_page_reads_locked_aged", |b| {
        let mut sim = FlagDeviceSim::paper(1, geom.blocks, ppb);
        for p in 0..ppb {
            sim.program_page_flag(Ppa::new(0, p));
        }
        sim.age(365.0).unwrap();
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(sim.page_reads_locked(Ppa::new(0, i % ppb)))
        });
    });
    g.finish();
}

criterion_group!(benches, bench_locks);
criterion_main!(benches);
