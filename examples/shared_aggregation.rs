//! Shared aggregation over bitmap-annotated tuples — the GQP extension
//! (SharedDB/DataPath direction the paper's related-work section points
//! at), demonstrated standalone.
//!
//! We synthesize the stream a CJOIN distributor sees — joined tuples, each
//! annotated with the bitmap of queries it survived for — and aggregate it
//! for Q concurrent queries two ways:
//!
//! * **per-query** (what CJOIN + query-centric aggregation does): each
//!   query scans its routed tuples independently — Q passes;
//! * **shared**: one pass; group keys are extracted once per grouping
//!   class, and each tuple folds into exactly the relevant queries'
//!   accumulator tables.
//!
//! Run: `cargo run --release --example shared_aggregation [queries]`

use sharing_repro::cjoin::{AggPlan, Bitmap, SharedAggregator};
use sharing_repro::prelude::*;
use sharing_repro::storage::{BitColumn, Page, PageBuilder};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let q: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);

    // The joined row layout: group key, two measures.
    let schema: Arc<Schema> = Schema::from_pairs(&[
        ("d_year", DataType::Int),
        ("lo_revenue", DataType::Int),
        ("lo_supplycost", DataType::Int),
    ]);

    // Synthesize annotated batches: each query `i` "selects" tuples whose
    // hash matches its stride — mimicking different dimension predicates
    // surviving the shared join chain.
    println!("synthesizing annotated tuple stream for {q} queries ...");
    let mut batches: Vec<(Page, BitColumn)> = Vec::new();
    let mut x = 0x243F_6A88_85A3_08D3u64; // deterministic xorshift
    for _ in 0..64 {
        let mut b = PageBuilder::with_bytes(schema.clone(), 16 * 1024);
        let mut bitmaps = Vec::new();
        loop {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let year = 1992 + (x % 7) as i64;
            let rev = (x >> 8) as i64 % 10_000;
            let cost = (x >> 16) as i64 % 6_000;
            if !b
                .push_values(&[Value::Int(year), Value::Int(rev), Value::Int(cost)])
                .expect("push")
            {
                break;
            }
            let mut bm = Bitmap::zeros(q.max(1));
            for i in 0..q {
                // Query i keeps ~ (i+1)/(q+1) of the tuples.
                if (x.rotate_left(i as u32)) % (q as u64 + 1) <= i as u64 {
                    bm.set(i);
                }
            }
            bitmaps.push(bm);
        }
        batches.push((b.finish(), BitColumn::from_bitmaps(&bitmaps)));
    }
    let tuples: usize = batches.iter().map(|(p, _)| p.rows()).sum();
    println!("  {tuples} joined tuples in {} pages\n", batches.len());

    let plan_for = |i: usize| AggPlan {
        group_by: vec![0], // d_year — every query shares the grouping class
        aggs: vec![
            if i.is_multiple_of(2) {
                AggSpec::new(AggFunc::Sum(1), "revenue")
            } else {
                AggSpec::new(AggFunc::SumDiff(1, 2), "profit")
            },
            AggSpec::new(AggFunc::Count, "n"),
        ],
    };

    // Shared: one pass.
    let t0 = Instant::now();
    let mut shared = SharedAggregator::new(schema.clone());
    for i in 0..q {
        shared.register(i as u32, plan_for(i));
    }
    for (page, bms) in &batches {
        shared.push_page(page, bms);
    }
    let shared_results: Vec<_> = (0..q)
        .map(|i| shared.finish(i as u32).expect("registered"))
        .collect();
    let shared_time = t0.elapsed();
    println!(
        "shared aggregation:    1 pass,  {} grouping class(es), {} accumulator updates, {:>8.2} ms",
        1,
        shared.updates_applied(),
        shared_time.as_secs_f64() * 1e3
    );

    // Per-query: Q passes (each query re-reads the stream, as it would
    // re-read its routed copy after the distributor).
    let t1 = Instant::now();
    let mut per_query_results = Vec::with_capacity(q);
    for i in 0..q {
        let mut agg = SharedAggregator::new(schema.clone());
        agg.register(i as u32, plan_for(i));
        for (page, bms) in &batches {
            agg.push_page(page, bms);
        }
        per_query_results.push(agg.finish(i as u32).expect("registered"));
    }
    let per_query_time = t1.elapsed();
    println!(
        "per-query aggregation: {q} passes,                                            {:>8.2} ms",
        per_query_time.as_secs_f64() * 1e3
    );

    assert_eq!(
        shared_results, per_query_results,
        "both strategies must agree"
    );
    println!(
        "\nresults identical; shared/per-query time ratio: {:.2}x",
        per_query_time.as_secs_f64() / shared_time.as_secs_f64()
    );

    // Show one query's answer.
    println!("\nquery 0 (SUM(lo_revenue) GROUP BY d_year):");
    println!("  d_year | revenue | n");
    let mut rows = shared_results[0].clone();
    rows.sort_by_key(|r| r[0].as_int());
    for r in rows {
        println!(
            "  {} | {} | {}",
            r[0], r[1], r[2]
        );
    }
}
