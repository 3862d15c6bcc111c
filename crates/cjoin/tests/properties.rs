//! Property-based tests for CJOIN: for random mini star schemas, random
//! predicates and random admission interleavings, every query's GQP output
//! equals its query-centric evaluation — the fundamental transparency
//! invariant of proactive sharing.

use proptest::prelude::*;
use qs_cjoin::{CjoinPipeline, DimSpec, PipelineSpec};
use qs_engine::reference::{assert_rows_match, eval};
use qs_engine::{BatchSource, CoreGovernor, ExecCtx, Metrics};
use qs_plan::{CmpOp, Expr, LogicalPlan, StarQuery};
use qs_storage::{
    BufferPool, BufferPoolConfig, Catalog, DataType, DiskConfig, DiskModel, Schema, TableBuilder,
    Value,
};
use std::sync::Arc;

fn ctx() -> Arc<ExecCtx> {
    let metrics = Metrics::new();
    Arc::new(ExecCtx {
        pool: Arc::new(BufferPool::new(
            BufferPoolConfig::unbounded(),
            Arc::new(DiskModel::new(DiskConfig::memory_resident())),
        )),
        governor: CoreGovernor::new(0, metrics.clone()),
        workers: qs_engine::WorkerPool::new(1, metrics.clone()),
        metrics,
        out_page_bytes: 256,
    })
}

/// A generated mini star schema: fact with `n_dims` FK columns + value,
/// dims with key + attribute.
#[derive(Debug, Clone)]
struct MiniStar {
    dim_sizes: Vec<i64>,
    fact_rows: Vec<Vec<i64>>, // fk per dim + value
}

fn mini_star() -> impl Strategy<Value = MiniStar> {
    (1usize..=3)
        .prop_flat_map(|n_dims| {
            let dims = prop::collection::vec(2i64..12, n_dims);
            dims.prop_flat_map(move |dim_sizes| {
                let sizes = dim_sizes.clone();
                let fact_row = sizes
                    .iter()
                    // key domain slightly larger than the dim: dangling FKs
                    .map(|&s| 0i64..s + 2)
                    .chain(std::iter::once(0i64..100))
                    .collect::<Vec<_>>();
                prop::collection::vec(fact_row, 1..120).prop_map(move |fact_rows| MiniStar {
                    dim_sizes: dim_sizes.clone(),
                    fact_rows,
                })
            })
        })
}

fn build_catalog(star: &MiniStar) -> Arc<Catalog> {
    let cat = Catalog::new();
    for (d, &size) in star.dim_sizes.iter().enumerate() {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("a", DataType::Int)]);
        let mut b = TableBuilder::with_page_bytes(format!("d{d}"), schema, 64);
        for k in 0..size {
            b.push_values(&[Value::Int(k), Value::Int(k % 4)]).unwrap();
        }
        cat.register(b);
    }
    let mut cols: Vec<(String, DataType)> = (0..star.dim_sizes.len())
        .map(|d| (format!("fk{d}"), DataType::Int))
        .collect();
    cols.push(("val".to_string(), DataType::Int));
    let schema = Schema::new(
        cols.into_iter()
            .map(|(n, t)| qs_storage::Column::new(n, t))
            .collect(),
    );
    let mut b = TableBuilder::with_page_bytes("fact", schema, 128);
    for row in &star.fact_rows {
        let vals: Vec<Value> = row.iter().map(|&v| Value::Int(v)).collect();
        b.push_values(&vals).unwrap();
    }
    cat.register(b);
    cat
}

fn pipeline_spec(star: &MiniStar) -> PipelineSpec {
    PipelineSpec {
        max_queries: 8,
        channel_depth: 2,
        out_page_bytes: 256,
        ..PipelineSpec::new(
            "fact",
            (0..star.dim_sizes.len())
                .map(|d| DimSpec {
                    table: format!("d{d}"),
                    fact_key: d,
                    dim_key: 0,
                })
                .collect(),
        )
    }
}

/// A random star query over the mini schema: subset of dims (at least
/// one), random attribute predicates, optional fact predicate.
fn star_plan(star: &MiniStar, choice: &[Option<(CmpOp, i64)>], fact_pred: Option<i64>) -> LogicalPlan {
    let n_dims = star.dim_sizes.len();
    let mut cur = LogicalPlan::Scan {
        table: "fact".into(),
        predicate: fact_pred.map(|v| Expr::Cmp {
            col: n_dims, // val
            op: CmpOp::Ge,
            lit: Value::Int(v),
        }),
        projection: None,
    };
    for (d, sel) in choice.iter().enumerate() {
        let Some((op, lit)) = sel else { continue };
        cur = LogicalPlan::HashJoin {
            build: Box::new(LogicalPlan::Scan {
                table: format!("d{d}"),
                predicate: Some(Expr::Cmp {
                    col: 1,
                    op: *op,
                    lit: Value::Int(*lit),
                }),
                projection: None,
            }),
            probe: Box::new(cur),
            build_key: 0,
            probe_key: d,
        };
    }
    cur
}

fn drain(mut r: Box<dyn BatchSource>) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    while let Some(b) = r.next_batch().unwrap() {
        for t in 0..b.len() {
            out.push(b.page().row(b.sel()[t] as usize).values());
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gqp_equals_query_centric_for_random_stars(
        star in mini_star(),
        // up to 4 concurrent queries, each choosing dims and predicates
        specs in prop::collection::vec(
            (
                prop::collection::vec(
                    prop::option::of((
                        prop_oneof![Just(CmpOp::Eq), Just(CmpOp::Le), Just(CmpOp::Ne)],
                        0i64..4,
                    )),
                    3,
                ),
                prop::option::of(0i64..100),
            ),
            1..4,
        ),
    ) {
        let cat = build_catalog(&star);
        let pipe = CjoinPipeline::new(ctx(), &cat, &pipeline_spec(&star)).unwrap();
        let n_dims = star.dim_sizes.len();

        let mut plans = Vec::new();
        for (choice, fact_pred) in &specs {
            let mut choice = choice[..n_dims].to_vec();
            // ensure at least one dim joined (star queries need a join)
            if choice.iter().all(|c| c.is_none()) {
                choice[0] = Some((CmpOp::Le, 3));
            }
            plans.push(star_plan(&star, &choice, *fact_pred));
        }

        // Admit all queries (interleaved with the pipeline running), then
        // drain them concurrently.
        let queries: Vec<_> = plans
            .iter()
            .map(|p| {
                let sq = StarQuery::detect(p, &cat).expect("star");
                pipe.admit(&sq).expect("admit")
            })
            .collect();
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = queries
                .into_iter()
                .map(|q| s.spawn(move || drain(q.reader)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (plan, got) in plans.iter().zip(results) {
            let expected = eval(plan, &cat).unwrap();
            assert_rows_match(got, expected, 0.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The open-addressing `qs_storage::FlatMap` (group-slot
    /// resolution's table) behaves exactly like the `HashMap<i64, u32>`
    /// it replaced: same last-wins insert semantics,
    /// same lookups for present and absent keys, same length — on
    /// arbitrary insert sequences with duplicate and adversarial keys.
    #[test]
    fn flat_map_matches_hashmap_oracle(
        inserts in prop::collection::vec((any::<i64>(), 0u32..1_000_000), 0..500),
        probes in prop::collection::vec(any::<i64>(), 0..100),
        cap_hint in 0usize..64,
    ) {
        let mut flat = qs_storage::FlatMap::with_capacity(cap_hint);
        let mut oracle: std::collections::HashMap<i64, u32> =
            std::collections::HashMap::new();
        for &(k, v) in &inserts {
            flat.insert(k, v);
            oracle.insert(k, v);
            // interleaved read-back: the entry just written is visible
            prop_assert_eq!(flat.get(k), Some(v));
        }
        prop_assert_eq!(flat.len(), oracle.len());
        prop_assert_eq!(flat.is_empty(), oracle.is_empty());
        // every oracle entry present with the same value
        for (&k, &v) in &oracle {
            prop_assert_eq!(flat.get(k), Some(v), "key {}", k);
        }
        // random probes (mostly absent keys) agree too
        for &k in &probes {
            prop_assert_eq!(flat.get(k), oracle.get(&k).copied(), "probe {}", k);
        }
    }

    /// Clustered keys (the SSB case: dense surrogate ints) and colliding
    /// hash slots still resolve identically to the oracle.
    #[test]
    fn flat_map_dense_surrogate_keys(
        n in 1usize..2000,
        stride in prop_oneof![Just(1i64), Just(2), Just(64), Just(4096)],
        base in -1000i64..1000,
    ) {
        let mut flat = qs_storage::FlatMap::with_capacity(n);
        for i in 0..n {
            flat.insert(base + i as i64 * stride, i as u32);
        }
        prop_assert_eq!(flat.len(), n);
        for i in 0..n {
            prop_assert_eq!(flat.get(base + i as i64 * stride), Some(i as u32));
        }
        prop_assert_eq!(flat.get(base - stride), None);
        prop_assert_eq!(flat.get(base + n as i64 * stride), None);
    }
}

/// Join-key shapes the dimension index must resolve: the `i64` extremes,
/// negative keys, sparse `yyyymmdd` calendar keys and multiples of `2^k`
/// (whose low bits are all zero — fatal to a hash that keeps low bits),
/// plus arbitrary keys.
fn dim_key() -> impl Strategy<Value = i64> {
    prop_oneof![
        prop_oneof![Just(i64::MIN), Just(i64::MAX), Just(0i64), Just(-1i64)],
        -1_000_000i64..0,
        (1992i64..1999, 1i64..13, 1i64..32).prop_map(|(y, m, d)| y * 10_000 + m * 100 + d),
        (-4096i64..4096, 0u32..63).prop_map(|(x, k)| x.wrapping_shl(k)),
        any::<i64>(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The shared joins' read-only key index (`qs_cjoin::KeyIndex`,
    /// multiply-shift at load ≤ ½) resolves every key like a
    /// `HashMap<i64, u32>` built by last-wins inserts of `key → entry`:
    /// duplicates map to their last entry, absent keys to `None`.
    #[test]
    fn key_index_matches_hashmap_oracle(
        keys in prop::collection::vec(dim_key(), 0..600),
        probes in prop::collection::vec(dim_key(), 0..200),
    ) {
        let index = qs_cjoin::KeyIndex::new(&keys);
        let mut oracle: std::collections::HashMap<i64, u32> =
            std::collections::HashMap::new();
        for (entry, &k) in keys.iter().enumerate() {
            oracle.insert(k, entry as u32);
        }
        for (&k, &entry) in &oracle {
            prop_assert_eq!(index.get(k), Some(entry), "key {}", k);
        }
        for &k in &probes {
            prop_assert_eq!(index.get(k), oracle.get(&k).copied(), "probe {}", k);
        }
    }

    /// Dense runs of multiples of `2^k` (consecutive surrogates at
    /// `k = 0`) all resolve, and the keys just outside the run miss.
    #[test]
    fn key_index_resolves_dense_runs(
        n in 1usize..3000,
        k in 0u32..48,
        base in -1000i64..1000,
    ) {
        let keys: Vec<i64> = (0..n as i64).map(|i| (base + i) << k).collect();
        let index = qs_cjoin::KeyIndex::new(&keys);
        for (entry, &key) in keys.iter().enumerate() {
            prop_assert_eq!(index.get(key), Some(entry as u32));
        }
        prop_assert_eq!(index.get((base - 1) << k), None);
        prop_assert_eq!(index.get((base + n as i64) << k), None);
    }
}
