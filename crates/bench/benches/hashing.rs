//! Hash-family evaluation costs: the paper's tabulation-vs-k-wise choice
//! (Appendix B) is a constant-factor question answered here, next to the
//! per-example hash-fill layer the sketch learners actually pay for.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wmsketch_datagen::SyntheticClassification;
use wmsketch_hashing::{
    murmur3_32, splitmix64, CoordPlan, HashFamilyKind, PolyHash, RowHashers, TabulationHash,
};

fn bench_families(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash_families");
    let tab = TabulationHash::new(1);
    group.bench_function("tabulation", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(1);
            black_box(tab.hash(black_box(k)))
        })
    });
    for deg in [2usize, 4, 16] {
        let poly = PolyHash::new(deg, 1);
        group.bench_function(format!("poly_k{deg}"), |b| {
            let mut k = 0u64;
            b.iter(|| {
                k = k.wrapping_add(1);
                black_box(poly.hash(black_box(k)))
            })
        });
    }
    group.bench_function("splitmix64", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(1);
            black_box(splitmix64(black_box(k)))
        })
    });
    group.bench_function("murmur3_8bytes", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(1);
            black_box(murmur3_32(&k.to_le_bytes(), 0))
        })
    });
    group.finish();
}

/// `RowHashers::fill_plan` at the 8 KB Figure-7 WM shape (depth 14,
/// width 128) over RCV1-like examples: the hash-fill layer of every fused
/// WM update, reported per example.
fn bench_fill_plan(c: &mut Criterion) {
    let mut gen = SyntheticClassification::rcv1_like(7);
    let examples = gen.take(1024);
    let hashers = RowHashers::new(HashFamilyKind::Tabulation, 14, 128, 1);
    let mut plan = CoordPlan::new();
    let mut group = c.benchmark_group("row_hashers");
    group.throughput(criterion::Throughput::Elements(1));
    group.bench_function("fill_plan_d14_w128_rcv1", |b| {
        let mut pos = 0usize;
        b.iter(|| {
            let (x, _) = &examples[pos % examples.len()];
            pos += 1;
            hashers.fill_plan(&mut plan, black_box(x.indices()));
            black_box(plan.nnz())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_families, bench_fill_plan);
criterion_main!(benches);
