//! Criterion microbenches of the A1 free-index structures: the wall-clock
//! complement of the deterministic step-count cost model (soft arrows of
//! Figure 2: best/exact fit want the size-ordered tree).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use dmm_core::heap::block::Span;
use dmm_core::heap::index::{FreeIndex, PoolIndex};
use dmm_core::heap::tiling::BlockRef;
use dmm_core::space::trees::{BlockStructure, FitAlgorithm};

fn index_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_insert_find_remove");
    group.sample_size(20);
    for structure in BlockStructure::ALL {
        group.bench_function(BenchmarkId::from_parameter(format!("{structure}")), |b| {
            b.iter(|| {
                let mut idx = PoolIndex::new(structure);
                let mut steps = 0u64;
                for i in 0..512usize {
                    idx.insert(
                        Span::new(i * 128, 16 + (i % 31) * 8),
                        BlockRef::from_index(i as u32),
                        &mut steps,
                    );
                }
                let mut found = 0usize;
                for i in 0..512usize {
                    if let Some(f) = idx.find(FitAlgorithm::BestFit, 16 + (i % 29) * 8, &mut steps)
                    {
                        idx.remove(f.token, f.span, &mut steps);
                        idx.insert(f.span, f.block, &mut steps);
                        found += 1;
                    }
                }
                (found, steps)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, index_ops);
criterion_main!(benches);
