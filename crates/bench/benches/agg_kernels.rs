//! Aggregation-kernel throughput: the batch-routing `SharedAggregator`
//! (typed kernels over decoded column batches, PR 3) against the
//! row-at-a-time baseline it replaced (per-tuple `update_acc` with
//! per-query group hash maps — the PR 2 inner loop, reconstructed here
//! verbatim as the oracle-shaped baseline), at 1/8/32 concurrent
//! queries over bitmap-annotated pages.
//!
//! PR 3's acceptance bar: kernels ≥ 2× the row-at-a-time baseline at 32
//! concurrent queries. A second group isolates the scalar kernels
//! (column slice + selection mask vs folding `RowRef`s).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qs_cjoin::{AggPlan, SharedAggregator};
use qs_engine::agg::{make_acc, update_acc, Acc};
use qs_engine::kernels::{kernel_columns, update_masked, AccVec, AggKernel};
use qs_plan::{AggFunc, AggSpec};
use qs_storage::{mask_words, BitColumn, ColumnBatch, DataType, Page, PageBuilder, Schema, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
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

/// The pre-batch shared aggregator: tuple-at-a-time routing with
/// per-query `HashMap<key, Vec<Acc>>` tables and `update_acc` per
/// (tuple × query × aggregate) — PR 2's `push_page` loop.
/// Per-query group table: key bytes → one accumulator per aggregate.
type GroupTable = HashMap<Vec<u8>, Vec<Acc>>;

struct RowAtATimeAggregator {
    schema: Arc<Schema>,
    queries: Vec<(u32, AggPlan, GroupTable)>,
}

impl RowAtATimeAggregator {
    fn new(schema: Arc<Schema>) -> Self {
        RowAtATimeAggregator {
            schema,
            queries: Vec::new(),
        }
    }

    fn register(&mut self, slot: u32, plan: AggPlan) {
        self.queries.push((slot, plan, HashMap::new()));
    }

    fn push_page(&mut self, page: &Page, bits: &BitColumn) {
        let mut key_buf: Vec<u8> = Vec::new();
        for (i, row) in page.iter().enumerate() {
            if bits.tuple(i).iter().all(|&w| w == 0) {
                continue;
            }
            for (slot, plan, groups) in &mut self.queries {
                if !bits.get(i, *slot as usize) {
                    continue;
                }
                key_buf.clear();
                for &g in &plan.group_by {
                    key_buf.extend_from_slice(row.col_bytes(g));
                }
                let accs = groups.entry(key_buf.clone()).or_insert_with(|| {
                    plan.aggs
                        .iter()
                        .map(|a| make_acc(&a.func, &self.schema))
                        .collect()
                });
                for (acc, spec) in accs.iter_mut().zip(&plan.aggs) {
                    update_acc(acc, &spec.func, &row);
                }
            }
        }
    }
}

fn bench_kernels_vs_row_at_a_time(c: &mut Criterion) {
    let batches = make_batches(24, 256, 42);
    let total_rows: usize = batches.iter().map(|(p, _)| p.rows()).sum();
    let mut group = c.benchmark_group("agg_kernels_vs_update_acc");
    group.throughput(Throughput::Elements(total_rows as u64));

    for &q in &[1usize, 8, 32] {
        group.bench_with_input(BenchmarkId::new("kernels", q), &q, |b, &q| {
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

        group.bench_with_input(BenchmarkId::new("row_at_a_time", q), &q, |b, &q| {
            b.iter(|| {
                let mut agg = RowAtATimeAggregator::new(schema());
                for slot in 0..q {
                    agg.register(slot as u32, plan_for(slot));
                }
                for (page, bms) in &batches {
                    agg.push_page(page, bms);
                }
                black_box(agg.queries.iter().map(|(_, _, g)| g.len()).sum::<usize>())
            })
        });
    }
    group.finish();
}

/// The kernel core in isolation: scalar `sum/min/max/count` over a
/// column slice + selection mask, against the identical fold through
/// `RowRef` accessors and `update_acc`.
fn bench_masked_scalar_kernels(c: &mut Criterion) {
    let batches = make_batches(24, 256, 43);
    let total_rows: usize = batches.iter().map(|(p, _)| p.rows()).sum();
    let s = schema();
    let funcs = [
        AggFunc::Count,
        AggFunc::Sum(1),
        AggFunc::Min(1),
        AggFunc::Max(2),
    ];
    // Selection mask per page: rows relevant to query 0.
    let masks: Vec<Vec<u64>> = batches
        .iter()
        .map(|(p, bits)| {
            let mut m = vec![0u64; mask_words(p.rows())];
            for i in 0..bits.len() {
                if bits.get(i, 0) {
                    m[i / 64] |= 1 << (i % 64);
                }
            }
            m
        })
        .collect();

    let mut group = c.benchmark_group("scalar_kernels_masked");
    group.throughput(Throughput::Elements((total_rows * funcs.len()) as u64));

    group.bench_function("kernels", |b| {
        let kernels: Vec<AggKernel> = funcs.iter().map(|f| AggKernel::compile(f, &s)).collect();
        let cols = kernel_columns(&kernels);
        b.iter(|| {
            let mut accs: Vec<AccVec> = kernels.iter().map(AccVec::for_kernel).collect();
            for a in &mut accs {
                a.resize(1);
            }
            for ((page, _), mask) in batches.iter().zip(&masks) {
                let batch = ColumnBatch::from_page(page, &cols);
                for (k, a) in kernels.iter().zip(&mut accs) {
                    update_masked(k, a, &batch, mask);
                }
            }
            black_box(accs.iter().map(|a| a.finalize(0)).collect::<Vec<_>>())
        })
    });

    group.bench_function("update_acc", |b| {
        b.iter(|| {
            let mut accs: Vec<Acc> = funcs.iter().map(|f| make_acc(f, &s)).collect();
            for ((page, _), mask) in batches.iter().zip(&masks) {
                for (i, row) in page.iter().enumerate() {
                    if mask[i / 64] & (1 << (i % 64)) != 0 {
                        for (acc, f) in accs.iter_mut().zip(&funcs) {
                            update_acc(acc, f, &row);
                        }
                    }
                }
            }
            black_box(accs)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_kernels_vs_row_at_a_time, bench_masked_scalar_kernels);
criterion_main!(benches);
