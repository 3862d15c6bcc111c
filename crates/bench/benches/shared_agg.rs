//! A1 (extension ablation): shared aggregation over bitmap-annotated
//! tuples (the SharedDB/DataPath-style GQP extension) vs per-query
//! aggregation of routed streams.
//!
//! The query-centric path pays one full pass over its routed tuples *per
//! query*; the shared operator pays one pass total plus per-tuple bitmap
//! iteration and accumulator indirection. As with the paper's shared
//! joins, the shared operator's book-keeping loses at low query counts
//! and wins as concurrency grows — this bench regenerates the crossover.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qs_cjoin::{AggPlan, SharedAggregator};
use qs_plan::{AggFunc, AggSpec};
use qs_storage::{mask_words, BitColumn, DataType, Page, PageBuilder, Schema, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;

const NQUERIES_MAX: usize = 64;

fn schema() -> Arc<Schema> {
    Schema::from_pairs(&[
        ("g", DataType::Int),
        ("v", DataType::Int),
        ("w", DataType::Int),
    ])
}

/// Annotated tuple batches: every tuple relevant to ~75% of the queries.
fn make_batches(pages: usize, rows_per_page: usize, seed: u64) -> Vec<(Page, BitColumn)> {
    let schema = schema();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..pages)
        .map(|_| {
            let mut b = PageBuilder::with_bytes(schema.clone(), rows_per_page * 24 + 64);
            let mut bits = BitColumn::zeros(mask_words(NQUERIES_MAX), rows_per_page);
            for t in 0..rows_per_page {
                let ok = b
                    .push_values(&[
                        Value::Int(rng.random_range(0..32)),
                        Value::Int(rng.random_range(0..1000)),
                        Value::Int(rng.random_range(0..1000)),
                    ])
                    .expect("row fits");
                assert!(ok);
                for q in 0..NQUERIES_MAX {
                    if rng.random_bool(0.75) {
                        bits.set(t, q);
                    }
                }
            }
            (b.finish(), bits)
        })
        .collect()
}

fn plan_for(q: usize) -> AggPlan {
    // Alternate the aggregate so queries differ while sharing grouping.
    let agg = if q.is_multiple_of(2) {
        AggSpec::new(AggFunc::Sum(1), "s")
    } else {
        AggSpec::new(AggFunc::SumProd(1, 2), "p")
    };
    AggPlan {
        group_by: vec![0],
        aggs: vec![agg, AggSpec::new(AggFunc::Count, "n")],
    }
}

fn bench_shared_vs_per_query(c: &mut Criterion) {
    let batches = make_batches(24, 256, 42);
    let total_rows: usize = batches.iter().map(|(p, _)| p.rows()).sum();
    let mut group = c.benchmark_group("shared_agg_vs_per_query");
    group.throughput(Throughput::Elements(total_rows as u64));

    for &q in &[1usize, 2, 4, 8, 16, 32] {
        // Shared: one pass, per-tuple bitmap fan-out.
        group.bench_with_input(BenchmarkId::new("shared", q), &q, |b, &q| {
            b.iter(|| {
                let mut agg = SharedAggregator::new(schema());
                for slot in 0..q {
                    agg.register(slot as u32, plan_for(slot));
                }
                for (page, bms) in &batches {
                    agg.push_page(page, bms);
                }
                for slot in 0..q {
                    black_box(agg.finish(slot as u32).expect("registered"));
                }
            })
        });

        // Per-query (post-distributor): each query scans its routed tuples
        // independently — Q passes over the batch set.
        group.bench_with_input(BenchmarkId::new("per_query", q), &q, |b, &q| {
            b.iter(|| {
                for slot in 0..q {
                    let mut agg = SharedAggregator::new(schema());
                    agg.register(slot as u32, plan_for(slot));
                    for (page, bms) in &batches {
                        agg.push_page(page, bms);
                    }
                    black_box(agg.finish(slot as u32).expect("registered"));
                }
            })
        });
    }
    group.finish();
}

/// How much the grouping-class sharing buys: Q queries with the *same*
/// group-by (one key extraction per tuple) vs Q distinct group-bys.
fn bench_grouping_classes(c: &mut Criterion) {
    let batches = make_batches(24, 256, 43);
    let total_rows: usize = batches.iter().map(|(p, _)| p.rows()).sum();
    let q = 16usize;
    let mut group = c.benchmark_group("shared_agg_grouping_classes");
    group.throughput(Throughput::Elements(total_rows as u64));

    group.bench_function("one_class", |b| {
        b.iter(|| {
            let mut agg = SharedAggregator::new(schema());
            for slot in 0..q {
                agg.register(slot as u32, plan_for(slot)); // all group on [0]
            }
            assert_eq!(agg.class_count(), 1);
            for (page, bms) in &batches {
                agg.push_page(page, bms);
            }
            black_box(agg.updates_applied());
        })
    });

    group.bench_function("distinct_classes", |b| {
        b.iter(|| {
            let mut agg = SharedAggregator::new(schema());
            for slot in 0..q {
                // Repeat column 0 a varying number of times: every class
                // groups on the *same* key values (same group count, same
                // accumulator work) but no two queries share a class, so
                // key extraction runs once per class per tuple. This
                // isolates the extraction sharing from group cardinality.
                let group_by = vec![0; 1 + slot % 4];
                agg.register(
                    slot as u32,
                    AggPlan {
                        group_by,
                        aggs: vec![AggSpec::new(AggFunc::Count, "n")],
                    },
                );
            }
            assert_eq!(agg.class_count(), 4);
            for (page, bms) in &batches {
                agg.push_page(page, bms);
            }
            black_box(agg.updates_applied());
        })
    });
    group.finish();
}

criterion_group!(benches, bench_shared_vs_per_query, bench_grouping_classes);
criterion_main!(benches);
