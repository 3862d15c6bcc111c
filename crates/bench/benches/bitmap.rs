//! M2: query-bit operations — the per-tuple book-keeping of the GQP.
//! The shared-join step (`bits &= entry | bypass`) and the distributor's
//! set-bit iteration dominate CJOIN's overhead at low concurrency
//! (Scenario III's explanation).
//!
//! `cjoin_probe` is the shared join as the pipeline runs it: one
//! [`DimJoin::probe`] over a batch's dense query-bit column (probe, AND,
//! test and compact in one pass), at the dimension sizes of SSB SF 0.02
//! with 16 active queries, reported per tuple-probe.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use qs_cjoin::{Bitmap, DimJoin};
use qs_storage::{BitColumn, DataType, FactBatch, Page, Schema, Value};
use qs_workload::SsbConfig;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;

fn bench_and(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitmap_and");
    for bits in [64usize, 256, 1024] {
        let mut a = Bitmap::zeros(bits);
        let mut b = Bitmap::zeros(bits);
        for i in (0..bits).step_by(3) {
            a.set(i);
        }
        for i in (0..bits).step_by(2) {
            b.set(i);
        }
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("plain", bits), &bits, |bench, _| {
            bench.iter(|| {
                let mut x = a.clone();
                x.and_assign(black_box(&b));
                black_box(x.any())
            })
        });
    }
    group.finish();
}

fn bench_iter_ones(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitmap_iter_ones");
    for density in [1usize, 8, 32] {
        let mut b = Bitmap::zeros(256);
        for i in (0..256).step_by(256 / density) {
            b.set(i);
        }
        group.bench_with_input(
            BenchmarkId::new("density", density),
            &density,
            |bench, _| {
                bench.iter(|| {
                    let mut sum = 0usize;
                    for q in b.iter_ones() {
                        sum += q;
                    }
                    black_box(sum)
                })
            },
        );
    }
    group.finish();
}

/// Tuples per probed batch (about one 64 KiB `lineorder` page).
const BATCH: usize = 1024;
/// Active queries.
const QUERIES: usize = 16;

/// One dimension join loaded with `keys`, 16 queries of which the first
/// four bypass it and the rest select about a third of its entries, and
/// a batch of `BATCH` fact tuples carrying every query's bit (5% of their
/// foreign keys dangle).
fn probe_setup(keys: &[i64], max_queries: usize, seed: u64) -> (DimJoin, Vec<i64>, FactBatch) {
    let mut rng = StdRng::seed_from_u64(seed);
    let join = DimJoin::new(keys, max_queries);
    let w = join.words();
    let mut mask = vec![0u64; w];
    let mut values = vec![0u64; keys.len() * w];
    for q in 0..QUERIES {
        join.write_bypass(q as u32, q < 4);
        mask[q / 64] |= 1 << (q % 64);
        for e in 0..keys.len() {
            if rng.random_bool(0.33) {
                values[e * w + q / 64] |= 1 << (q % 64);
            }
        }
    }
    join.write_entries(&mask, &values);
    let fks: Vec<i64> = (0..BATCH)
        .map(|_| {
            if rng.random_bool(0.05) {
                -1
            } else {
                keys[rng.random_range(0..keys.len())]
            }
        })
        .collect();
    let schema = Schema::from_pairs(&[("fk", DataType::Int)]);
    let rows: Vec<Vec<Value>> = fks.iter().map(|&k| vec![Value::Int(k)]).collect();
    let page = Arc::new(Page::from_values(&schema, &rows).expect("page"));
    let mut bits = BitColumn::zeros(join.words(), BATCH);
    for t in 0..BATCH {
        for q in 0..QUERIES {
            bits.set(t, q);
        }
    }
    let fact = FactBatch::with_bits(page, (0..BATCH as u32).collect(), bits);
    (join, fks, fact)
}

fn bench_cjoin_probe(c: &mut Criterion) {
    let sizes = SsbConfig::with_scale(0.02).sizes();
    let dense = |n: usize| (1..=n as i64).collect::<Vec<_>>();
    let dates: Vec<i64> = qs_workload::ssb::data::date_keys()
        .into_iter()
        .map(i64::from)
        .collect();
    let dims = [
        ("date", dates),
        ("customer", dense(sizes.customer)),
        ("supplier", dense(sizes.supplier)),
        ("part", dense(sizes.part)),
    ];
    let mut group = c.benchmark_group("cjoin_probe");
    group.throughput(Throughput::Elements(BATCH as u64));
    // 64 slots is one word per tuple (the pipeline default); 130 is three.
    for max_queries in [64usize, 130] {
        for (name, keys) in &dims {
            let (join, fks, fact) = probe_setup(keys, max_queries, 7);
            let mut prior = Vec::new();
            let mut scratch = Vec::new();
            group.bench_function(
                BenchmarkId::new(format!("{name}/{}", keys.len()), max_queries),
                |b| {
                    b.iter_batched(
                        || fact.deep_copy(),
                        |mut batch| {
                            let hits = join.probe(&fks, &mut batch, &mut prior, &mut scratch);
                            black_box((hits.len(), batch.len()))
                        },
                        BatchSize::SmallInput,
                    )
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_and, bench_iter_ones, bench_cjoin_probe);
criterion_main!(benches);
