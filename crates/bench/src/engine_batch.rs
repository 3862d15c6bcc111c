//! The tentpole measurement behind PR 4: the engine's post-predicate
//! dataflow in its two currencies.
//!
//! One shared fact-shaped table is scanned page-at-a-time for N
//! concurrent filter→aggregate queries:
//!
//! * **materialize** — the pre-PR-4 inter-operator contract: each query's
//!   filter copies its surviving rows into fresh intermediate pages
//!   (`PageBuilder::push_row` per tuple), and its aggregate consumes
//!   those dense pages;
//! * **factbatch** — the batch currency: the filter emits
//!   `(Arc<Page>, selection)` and the aggregate folds the shared page
//!   through gathered column views ([`FactBatch::columns`]), copying no
//!   row bytes.
//!
//! Both sides share the group-resolution and kernel code (dense slot per
//! group key, domain 0..32 — no hash probe diluting the measurement), so
//! the measured delta is exactly the intermediate materialization. Rows
//! carry a wide `Char` payload (as SSB's lineorder does), which the batch
//! side never touches and the materializing side copies per surviving
//! tuple.

use qs_engine::kernels::{kernel_columns, update_grouped, AccVec, AggKernel};
use qs_plan::compiled::selection_from_mask;
use qs_plan::{AggFunc, CompiledPred, Expr, PredScratch};
use qs_storage::{
    ColumnBatch, DataType, FactBatch, Page, PageBuilder, Schema, Value,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// Fact-shaped schema: group key, two measures, wide payload.
pub fn schema() -> Arc<Schema> {
    Schema::from_pairs(&[
        ("g", DataType::Int),
        ("v", DataType::Int),
        ("w", DataType::Int),
        ("pay1", DataType::Char(96)),
        ("pay2", DataType::Char(96)),
    ])
}

/// Deterministic fact pages: `g` in 0..32, `v`/`w` in 0..1000.
pub fn make_pages(pages: usize, rows_per_page: usize, seed: u64) -> Vec<Arc<Page>> {
    let s = schema();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..pages)
        .map(|_| {
            let mut b =
                PageBuilder::with_bytes(s.clone(), rows_per_page * s.row_size() + 64);
            for _ in 0..rows_per_page {
                let ok = b
                    .push_values(&[
                        Value::Int(rng.random_range(0..32)),
                        Value::Int(rng.random_range(0..1000)),
                        Value::Int(rng.random_range(0..1000)),
                        Value::Str(format!("payload-{}", rng.random_range(0..100000))),
                        Value::Str(format!("filler-{}", rng.random_range(0..100000))),
                    ])
                    .expect("row fits");
                assert!(ok);
            }
            Arc::new(b.finish())
        })
        .collect()
}

/// One concurrent query: a compiled range predicate (~`sel` selectivity
/// over `v`) and a grouped aggregation over the dense group column.
pub struct QuerySpec {
    pred: CompiledPred,
    aggs: Vec<AggFunc>,
}

/// Build `n` concurrent queries with ~`sel` selectivity each.
pub fn make_queries(n: usize, sel: f64, seed: u64) -> Vec<QuerySpec> {
    let s = schema();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let span = (1000.0 * sel) as i64;
            let lo = rng.random_range(0..(1000 - span).max(1));
            let pred = Expr::between(1, lo, lo + span - 1);
            let aggs = if i % 2 == 0 {
                vec![AggFunc::Sum(1), AggFunc::Count]
            } else {
                vec![AggFunc::SumProd(1, 2), AggFunc::Count]
            };
            QuerySpec {
                pred: CompiledPred::compile(&pred, &s),
                aggs,
            }
        })
        .collect()
}

/// Group domain of column `g` (dense surrogate slots, no hash probe —
/// both pipelines share this cheap resolution so the delta between them
/// is the dataflow, not the grouping method).
const GROUPS: usize = 32;

/// Grouped aggregation state shared by both pipelines: dense group slots
/// plus typed kernels, the engine `run_aggregate` fold shape.
struct AggState {
    kernels: Vec<AggKernel>,
    /// Kernel input columns ∪ the group column (decoded once per view).
    agg_cols: Vec<usize>,
    accs: Vec<AccVec>,
    order: usize,
    gidx: Vec<u32>,
    rows_idx: Vec<u32>,
}

impl AggState {
    fn new(schema: &Schema, q: &QuerySpec) -> AggState {
        let kernels: Vec<AggKernel> =
            q.aggs.iter().map(|a| AggKernel::compile(a, schema)).collect();
        let mut agg_cols = kernel_columns(&kernels);
        if !agg_cols.contains(&0) {
            agg_cols.push(0);
            agg_cols.sort_unstable();
        }
        AggState {
            accs: kernels.iter().map(AccVec::for_kernel).collect(),
            kernels,
            agg_cols,
            order: GROUPS,
            gidx: Vec::new(),
            rows_idx: Vec::new(),
        }
    }

    /// Resolve group slots from the decoded group column, then fold
    /// through the kernels over `view`.
    fn fold(&mut self, view: &ColumnBatch<'_>) {
        let g = view.col(0).i64s();
        self.gidx.clear();
        self.gidx.extend(g.iter().map(|&x| x as u32));
        self.rows_idx.clear();
        self.rows_idx.extend(0..g.len() as u32);
        for (kernel, acc) in self.kernels.iter().zip(&mut self.accs) {
            acc.resize(self.order);
            update_grouped(kernel, acc, view, &self.rows_idx, &self.gidx);
        }
    }

    fn checksum(&self) -> u64 {
        let mut h = 0u64;
        for acc in &self.accs {
            for g in 0..self.order {
                h = h.wrapping_mul(31).wrapping_add(match acc.finalize(g) {
                    Value::Int(x) => x as u64,
                    Value::Float(x) => x.to_bits(),
                    Value::Date(x) => x as u64,
                    Value::Str(s) => s.len() as u64,
                });
            }
        }
        h
    }
}

/// One full pass, batch currency: filter emits selections, aggregate
/// gathers. Returns a result checksum (fed to `black_box` by callers).
pub fn pass_factbatch(pages: &[Arc<Page>], queries: &[QuerySpec]) -> u64 {
    let s = schema();
    let mut states: Vec<AggState> = queries.iter().map(|q| AggState::new(&s, q)).collect();
    let mut scratch = PredScratch::new();
    let mut mask: Vec<u64> = Vec::new();
    let mut sel: Vec<u32> = Vec::new();
    for page in pages {
        for (q, st) in queries.iter().zip(&mut states) {
            let view = ColumnBatch::from_page(page, q.pred.columns());
            q.pred.eval_batch(&view, &mut scratch, &mut mask);
            selection_from_mask(&mask, &mut sel);
            if sel.is_empty() {
                continue;
            }
            let batch =
                FactBatch::new(page.clone(), std::mem::take(&mut sel));
            let agg_view = batch.columns(&st.agg_cols);
            st.fold(&agg_view);
        }
    }
    states.iter().map(|s| s.checksum()).fold(0, u64::wrapping_add)
}

/// One full pass, materializing currency (the pre-PR-4 contract): filter
/// copies survivors into fresh dense pages, aggregate consumes those.
pub fn pass_materialize(
    pages: &[Arc<Page>],
    queries: &[QuerySpec],
    out_page_bytes: usize,
) -> u64 {
    let s = schema();
    let mut states: Vec<AggState> = queries.iter().map(|q| AggState::new(&s, q)).collect();
    let mut builders: Vec<PageBuilder> = queries
        .iter()
        .map(|_| PageBuilder::with_bytes(s.clone(), out_page_bytes))
        .collect();
    let mut scratch = PredScratch::new();
    let mut mask: Vec<u64> = Vec::new();
    let consume = |st: &mut AggState, page: Page| {
        let view = ColumnBatch::from_page(&page, &st.agg_cols);
        st.fold(&view);
    };
    for page in pages {
        for ((q, st), b) in queries.iter().zip(&mut states).zip(&mut builders) {
            let view = ColumnBatch::from_page(page, q.pred.columns());
            q.pred.eval_batch(&view, &mut scratch, &mut mask);
            for i in qs_plan::compiled::iter_ones(&mask) {
                if !b.push_row(page.row(i)) {
                    let full = b.finish_and_reset();
                    consume(st, full);
                    let ok = b.push_row(page.row(i));
                    debug_assert!(ok);
                }
            }
        }
    }
    for (st, b) in states.iter_mut().zip(&mut builders) {
        if !b.is_empty() {
            let rest = b.finish_and_reset();
            consume(st, rest);
        }
    }
    states.iter().map(|s| s.checksum()).fold(0, u64::wrapping_add)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both currencies compute identical aggregates — the bench compares
    /// equal work.
    #[test]
    fn pipelines_agree() {
        let pages = make_pages(6, 64, 7);
        for n in [1usize, 3, 8] {
            let queries = make_queries(n, 0.5, 11);
            let a = pass_factbatch(&pages, &queries);
            let b = pass_materialize(&pages, &queries, 8 * 1024);
            assert_eq!(a, b, "{n} queries");
        }
    }
}
