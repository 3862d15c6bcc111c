//! Shared aggregation over bitmap-annotated tuples — the GQP extension
//! the demo's related work points at (DataPath and SharedDB advance
//! global query plans beyond shared joins to shared *aggregations*).
//!
//! The CJOIN distributor materializes a separate output stream per query
//! and every query then aggregates its stream with a query-centric
//! operator: `Q` queries touch each joined tuple `Q` times. A shared
//! aggregation instead consumes the *annotated* tuple stream once,
//! **before** routing, batch-at-a-time:
//!
//! * Queries with the same `group_by` columns form a **grouping class**;
//!   the (byte-encoded) group key is extracted and resolved to a dense
//!   group slot once per class per tuple in a *class-level registry*, no
//!   matter how many queries share the class.
//! * Per batch, each query's relevant tuples are routed by bitmap bit
//!   into `(row, group)` pair lists (grouped classes) or a selection
//!   mask (scalar classes), and every aggregate then folds the whole
//!   batch through a typed kernel (`qs_engine::kernels`) over the
//!   decoded column batch — no per-row `(Acc, AggFunc)` dispatch and no
//!   per-tuple column decode.
//!
//! The trade-off mirrors the paper's shared-operator rule of thumb: one
//! pass over the joined stream (wins at high query counts) versus
//! per-tuple bitmap iteration and routing book-keeping per query. The
//! `shared_agg` bench regenerates exactly this crossover, and the
//! `agg_kernels` bench isolates the kernel layer against the
//! row-at-a-time `update_acc` baseline.

use crate::bitmap::Bitmap;
use qs_engine::group::{GroupTable, ParallelScratch};
use qs_engine::kernels::{update_grouped, update_masked, AccVec, AggKernel};
use qs_engine::WorkerPool;
use qs_plan::AggSpec;
use qs_storage::{mask_words, BitColumn, ColumnBatch, FactBatch, Page, Schema, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// The aggregation a single query wants over the joined tuple stream.
#[derive(Debug, Clone, PartialEq)]
pub struct AggPlan {
    /// Group-by columns (indices into the joined schema).
    pub group_by: Vec<usize>,
    /// Aggregate outputs.
    pub aggs: Vec<AggSpec>,
}

/// Per-query accumulator state: typed kernels plus structure-of-arrays
/// accumulators indexed by the *class-level* group slot.
struct QueryState {
    /// Query slot (bitmap bit) this state belongs to.
    slot: u32,
    /// Grouping class index (shared key extraction + group registry).
    class: usize,
    kernels: Vec<AggKernel>,
    accs: Vec<AccVec>,
    /// Class group slots this query touched, in first-touch order (the
    /// output row order, matching the old per-query insertion order).
    touched_order: Vec<u32>,
    touched: Vec<bool>,
    /// Per-batch routing scratch.
    rows_scratch: Vec<u32>,
    groups_scratch: Vec<u32>,
    mask_scratch: Vec<u64>,
}

/// One distinct `group_by` column set, with the group registry every
/// member query shares.
struct GroupClass {
    group_by: Vec<usize>,
    /// Queries in this class (indices into `queries`).
    members: Vec<usize>,
    /// OR of the member query slots: a tuple is relevant to the class iff
    /// its bitmap intersects this mask.
    member_mask: Bitmap,
    /// Group key → dense group slot, shared by all members — the tiered
    /// resolver (`qs_engine::group`): single-`Int` and ≤16-byte keys
    /// probe flat open-addressing tables with zero per-tuple allocation,
    /// arbitrary shapes fall back to the byte-key `HashMap`. Slots stay
    /// first-touch ordered, so member result ordering is unchanged.
    table: GroupTable,
    /// Per-batch scratch: relevant batch rows, the matching page rows
    /// (the resolver's input), and the resolved group slots.
    rel_rows: Vec<u32>,
    rel_pagerows: Vec<u32>,
    rel_groups: Vec<u32>,
    /// Scratch for pooled parallel resolution (see
    /// [`GroupTable::resolve_rows_parallel`]).
    pscratch: ParallelScratch,
}

/// Shared aggregation operator: single batch-at-a-time pass over
/// annotated tuples, one accumulator table per admitted query.
pub struct SharedAggregator {
    in_schema: Arc<Schema>,
    queries: Vec<QueryState>,
    classes: Vec<GroupClass>,
    /// slot → query index (dense map; slots are small integers).
    by_slot: HashMap<u32, usize>,
    /// Sorted union of the columns any registered kernel reads — the set
    /// decoded once per batch.
    agg_cols: Vec<usize>,
    /// Selection scratch: batch rows with any query bit set.
    sel_scratch: Vec<u32>,
    /// Query bits of the rows in `sel_scratch`.
    bits_scratch: BitColumn,
    /// Morsel pool for parallel class-level group resolution; `None` =
    /// resolve sequentially (the historical behavior).
    workers: Option<Arc<WorkerPool>>,
    tuples_seen: u64,
    updates_applied: u64,
}

impl SharedAggregator {
    /// Create an aggregator over tuples of `in_schema` (the joined row
    /// layout the CJOIN distributor produces).
    pub fn new(in_schema: Arc<Schema>) -> Self {
        SharedAggregator {
            in_schema,
            queries: Vec::new(),
            classes: Vec::new(),
            by_slot: HashMap::new(),
            agg_cols: Vec::new(),
            sel_scratch: Vec::new(),
            bits_scratch: BitColumn::default(),
            workers: None,
            tuples_seen: 0,
            updates_applied: 0,
        }
    }

    /// [`Self::new`] with a morsel pool: class-level group resolution of
    /// large batches fans out across `workers` (slot numbering — and so
    /// every query's output order — is identical either way).
    pub fn with_workers(in_schema: Arc<Schema>, workers: Arc<WorkerPool>) -> Self {
        let mut agg = SharedAggregator::new(in_schema);
        agg.workers = Some(workers);
        agg
    }

    /// Register the aggregation of query `slot`. Queries registering a
    /// `group_by` already seen join that grouping class and share its key
    /// extraction and group registry.
    pub fn register(&mut self, slot: u32, plan: AggPlan) {
        let class = match self
            .classes
            .iter()
            .position(|c| c.group_by == plan.group_by)
        {
            Some(i) => i,
            None => {
                self.classes.push(GroupClass {
                    table: GroupTable::compile(&plan.group_by, &self.in_schema),
                    group_by: plan.group_by.clone(),
                    members: Vec::new(),
                    member_mask: Bitmap::zeros(64),
                    rel_rows: Vec::new(),
                    rel_pagerows: Vec::new(),
                    rel_groups: Vec::new(),
                    pscratch: ParallelScratch::new(),
                });
                self.classes.len() - 1
            }
        };
        let qidx = self.queries.len();
        let cls = &mut self.classes[class];
        cls.members.push(qidx);
        if slot as usize >= cls.member_mask.word_count() * 64 {
            // Widen the mask to cover the new slot.
            let mut words = cls.member_mask.words().to_vec();
            words.resize(mask_words(slot as usize + 1), 0);
            cls.member_mask = Bitmap::from_words(words);
        }
        cls.member_mask.set(slot as usize);
        self.by_slot.insert(slot, qidx);
        let kernels: Vec<AggKernel> = plan
            .aggs
            .iter()
            .map(|a| AggKernel::compile(&a.func, &self.in_schema))
            .collect();
        let mut accs: Vec<AccVec> = kernels.iter().map(AccVec::for_kernel).collect();
        if plan.group_by.is_empty() {
            // Scalar aggregates fold into group slot 0 from the start.
            for a in &mut accs {
                a.resize(1);
            }
        }
        self.queries.push(QueryState {
            slot,
            class,
            kernels,
            accs,
            touched_order: Vec::new(),
            touched: Vec::new(),
            rows_scratch: Vec::new(),
            groups_scratch: Vec::new(),
            mask_scratch: Vec::new(),
        });
        // Maintain the union of kernel input columns.
        let mut cols = std::mem::take(&mut self.agg_cols);
        for k in &self.queries[qidx].kernels {
            k.input_columns(&mut cols);
        }
        cols.sort_unstable();
        cols.dedup();
        self.agg_cols = cols;
    }

    /// Number of distinct grouping classes (shared key extractions per
    /// tuple).
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Registered query count.
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// Tuples consumed so far.
    pub fn tuples_seen(&self) -> u64 {
        self.tuples_seen
    }

    /// Accumulator updates applied so far (one per relevant (tuple, query)
    /// pair — the shared operator's book-keeping metric).
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }

    /// Fold one annotated page: tuple `i` of `bits` holds the surviving
    /// query bits of row `i`.
    pub fn push_page(&mut self, page: &Page, bits: &BitColumn) {
        debug_assert_eq!(page.rows(), bits.len());
        let mut sel = std::mem::take(&mut self.sel_scratch);
        let mut live = std::mem::take(&mut self.bits_scratch);
        sel.clear();
        live.reset(bits.words());
        for i in 0..bits.len() {
            let words = bits.tuple(i);
            if words.iter().any(|&w| w != 0) {
                sel.push(i as u32);
                live.push(words);
            }
        }
        self.fold(page, &sel, &live);
        self.sel_scratch = sel;
        self.bits_scratch = live;
    }

    /// Fold a [`FactBatch`] — the post-predicate batch representation the
    /// CJOIN pipeline carries — without re-deriving the selection.
    pub fn push_batch(&mut self, batch: &FactBatch) {
        self.fold(batch.page(), batch.sel(), batch.bits());
    }

    /// Batch core: `sel` are the page rows with any query bit set and
    /// tuple `i` of `bits` annotates page row `sel[i]`.
    fn fold(&mut self, page: &Page, sel: &[u32], bits: &BitColumn) {
        if sel.is_empty() {
            return;
        }
        self.tuples_seen += sel.len() as u64;
        // Decode the union of kernel input columns once for the whole
        // batch (batch row i = page row sel[i]).
        let batch = ColumnBatch::gather(page, sel, &self.agg_cols);
        // Disjoint field borrows: classes hold the shared registries,
        // queries hold the accumulators.
        let classes = &mut self.classes;
        let queries = &mut self.queries;
        let mut updates = 0u64;
        for class in classes.iter_mut() {
            // Key resolution, once per class per relevant tuple: gather
            // the page rows any member query touches, then resolve them
            // batch-at-a-time to dense slots in the shared registry.
            class.rel_rows.clear();
            class.rel_pagerows.clear();
            let member = class.member_mask.words();
            for (bi, &row) in sel.iter().enumerate() {
                let relevant = bits.tuple(bi).iter().zip(member).any(|(a, m)| a & m != 0);
                if !relevant {
                    continue;
                }
                class.rel_rows.push(bi as u32);
                class.rel_pagerows.push(row);
            }
            if class.rel_rows.is_empty() {
                continue;
            }
            // Pooled parallel resolution when a pool is attached; a pool
            // failure (injected fault / contained task panic) leaves the
            // registry untouched, so falling back to the sequential
            // resolver yields the same slots the clean run would have.
            let resolved = self.workers.as_ref().is_some_and(|pool| {
                class
                    .table
                    .resolve_rows_parallel(
                        page,
                        &class.rel_pagerows,
                        pool,
                        &mut class.pscratch,
                        &mut class.rel_groups,
                    )
                    .is_ok()
            });
            if !resolved {
                class
                    .table
                    .resolve_rows(page, &class.rel_pagerows, &mut class.rel_groups);
            }
            let ngroups = class.table.len();
            let scalar = class.group_by.is_empty();
            for &q in &class.members {
                let state = &mut queries[q];
                if scalar {
                    // Route into a selection mask over batch rows, then
                    // fold each aggregate through its masked kernel.
                    state.mask_scratch.clear();
                    state.mask_scratch.resize(mask_words(batch.rows()), 0);
                    let mut routed = 0u64;
                    for &bi in &class.rel_rows {
                        if bits.get(bi as usize, state.slot as usize) {
                            state.mask_scratch[bi as usize / 64] |= 1u64 << (bi % 64);
                            routed += 1;
                        }
                    }
                    if routed == 0 {
                        continue;
                    }
                    updates += routed;
                    for (kernel, acc) in state.kernels.iter().zip(&mut state.accs) {
                        update_masked(kernel, acc, &batch, &state.mask_scratch);
                    }
                } else {
                    // Route into (row, group) pair lists, then fold each
                    // aggregate through its grouped kernel.
                    state.rows_scratch.clear();
                    state.groups_scratch.clear();
                    if state.touched.len() < ngroups {
                        state.touched.resize(ngroups, false);
                    }
                    for (&bi, &g) in class.rel_rows.iter().zip(&class.rel_groups) {
                        if !bits.get(bi as usize, state.slot as usize) {
                            continue;
                        }
                        state.rows_scratch.push(bi);
                        state.groups_scratch.push(g);
                        if !state.touched[g as usize] {
                            state.touched[g as usize] = true;
                            state.touched_order.push(g);
                        }
                    }
                    if state.rows_scratch.is_empty() {
                        continue;
                    }
                    updates += state.rows_scratch.len() as u64;
                    for (kernel, acc) in state.kernels.iter().zip(&mut state.accs) {
                        acc.resize(ngroups);
                        update_grouped(
                            kernel,
                            acc,
                            &batch,
                            &state.rows_scratch,
                            &state.groups_scratch,
                        );
                    }
                }
            }
        }
        self.updates_applied += updates;
    }

    /// Finish query `slot`: its result rows (group values then aggregate
    /// values, groups in first-seen order). Removing the state frees the
    /// slot for the caller's bookkeeping; unknown slots return `None`.
    pub fn finish(&mut self, slot: u32) -> Option<Vec<Vec<Value>>> {
        let qidx = self.by_slot.remove(&slot)?;
        // Swap out the state; leave a tombstone so indices stay stable.
        let class_idx = self.queries[qidx].class;
        // Retire the query from its class: later pushes must neither
        // route tuples to the tombstone nor consider the slot relevant
        // (the slot number may be reused by a future admission).
        let cls = &mut self.classes[class_idx];
        cls.members.retain(|&q| q != qidx);
        cls.member_mask.clear(slot as usize);
        // Shrink the per-batch decode set back to the live queries'
        // kernels, so long-lived aggregators never keep decoding columns
        // only finished queries read.
        let mut cols = std::mem::take(&mut self.agg_cols);
        cols.clear();
        for &q in self.by_slot.values() {
            for k in &self.queries[q].kernels {
                k.input_columns(&mut cols);
            }
        }
        cols.sort_unstable();
        cols.dedup();
        self.agg_cols = cols;
        let state = std::mem::replace(
            &mut self.queries[qidx],
            QueryState {
                slot: u32::MAX,
                class: class_idx,
                kernels: Vec::new(),
                accs: Vec::new(),
                touched_order: Vec::new(),
                touched: Vec::new(),
                rows_scratch: Vec::new(),
                groups_scratch: Vec::new(),
                mask_scratch: Vec::new(),
            },
        );
        let class = &self.classes[state.class];
        // A scalar aggregate always yields exactly one row, even over
        // zero tuples (the accumulators were sized at registration).
        if class.group_by.is_empty() {
            return Some(vec![state.accs.iter().map(|a| a.finalize(0)).collect()]);
        }
        let mut out = Vec::with_capacity(state.touched_order.len());
        for &g in &state.touched_order {
            let key = class.table.key_bytes(g as usize);
            let mut row: Vec<Value> =
                Vec::with_capacity(class.group_by.len() + state.accs.len());
            // Decode the group key bytes back into values.
            let mut off = 0usize;
            for &gc in &class.group_by {
                let w = self.in_schema.dtype(gc).width();
                row.push(decode_col(&key[off..off + w], self.in_schema.dtype(gc)));
                off += w;
            }
            for acc in &state.accs {
                row.push(acc.finalize(g as usize));
            }
            out.push(row);
        }
        Some(out)
    }
}

/// Decode one fixed-width column value from its row encoding.
fn decode_col(bytes: &[u8], dtype: qs_storage::DataType) -> Value {
    use qs_storage::DataType;
    match dtype {
        DataType::Int => Value::Int(i64::from_le_bytes(
            bytes.try_into().expect("8-byte Int column"),
        )),
        DataType::Float => Value::Float(f64::from_le_bytes(
            bytes.try_into().expect("8-byte Float column"),
        )),
        DataType::Date => Value::Date(u32::from_le_bytes(
            bytes.try_into().expect("4-byte Date column"),
        )),
        DataType::Char(_) => Value::Str(
            std::str::from_utf8(bytes)
                .unwrap_or("")
                .trim_end_matches(' ')
                .to_string(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qs_plan::{AggFunc, AggSpec};
    use qs_storage::{DataType, Schema};

    fn schema() -> Arc<Schema> {
        Schema::from_pairs(&[
            ("g", DataType::Int),
            ("v", DataType::Int),
            ("f", DataType::Float),
        ])
    }

    fn page(rows: &[(i64, i64, f64)]) -> Page {
        let vals: Vec<Vec<Value>> = rows
            .iter()
            .map(|&(g, v, f)| vec![Value::Int(g), Value::Int(v), Value::Float(f)])
            .collect();
        Page::from_values(&schema(), &vals).unwrap()
    }

    fn bm(n: usize, bits: &[usize]) -> Bitmap {
        let mut b = Bitmap::zeros(n);
        for &i in bits {
            b.set(i);
        }
        b
    }

    #[test]
    fn single_query_matches_plain_aggregation() {
        let mut agg = SharedAggregator::new(schema());
        agg.register(
            0,
            AggPlan {
                group_by: vec![0],
                aggs: vec![
                    AggSpec::new(AggFunc::Sum(1), "s"),
                    AggSpec::new(AggFunc::Count, "n"),
                ],
            },
        );
        let p = page(&[(1, 10, 0.5), (2, 20, 1.5), (1, 30, 2.5)]);
        let bms: Vec<Bitmap> = (0..3).map(|_| bm(4, &[0])).collect();
        agg.push_page(&p, &BitColumn::from_bitmaps(&bms));
        let rows = agg.finish(0).unwrap();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1), Value::Int(40), Value::Int(2)],
                vec![Value::Int(2), Value::Int(20), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn bitmap_routes_tuples_per_query() {
        let mut agg = SharedAggregator::new(schema());
        for slot in [0u32, 1u32] {
            agg.register(
                slot,
                AggPlan {
                    group_by: vec![],
                    aggs: vec![AggSpec::new(AggFunc::Count, "n")],
                },
            );
        }
        let p = page(&[(1, 1, 0.0), (2, 2, 0.0), (3, 3, 0.0)]);
        // Row 0 → both; row 1 → only q0; row 2 → only q1.
        let bms = vec![bm(4, &[0, 1]), bm(4, &[0]), bm(4, &[1])];
        agg.push_page(&p, &BitColumn::from_bitmaps(&bms));
        assert_eq!(agg.finish(0).unwrap(), vec![vec![Value::Int(2)]]);
        assert_eq!(agg.finish(1).unwrap(), vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn grouping_classes_shared() {
        let mut agg = SharedAggregator::new(schema());
        // Three queries, two distinct group_by sets.
        agg.register(
            0,
            AggPlan {
                group_by: vec![0],
                aggs: vec![AggSpec::new(AggFunc::Sum(1), "a")],
            },
        );
        agg.register(
            1,
            AggPlan {
                group_by: vec![0],
                aggs: vec![AggSpec::new(AggFunc::Avg(2), "b")],
            },
        );
        agg.register(
            2,
            AggPlan {
                group_by: vec![0, 1],
                aggs: vec![AggSpec::new(AggFunc::Count, "c")],
            },
        );
        assert_eq!(agg.class_count(), 2);
        assert_eq!(agg.query_count(), 3);
    }

    #[test]
    fn zero_bitmap_rows_skipped() {
        let mut agg = SharedAggregator::new(schema());
        agg.register(
            0,
            AggPlan {
                group_by: vec![],
                aggs: vec![AggSpec::new(AggFunc::Count, "n")],
            },
        );
        let p = page(&[(1, 1, 0.0), (2, 2, 0.0)]);
        let bms = vec![bm(4, &[]), bm(4, &[0])];
        agg.push_page(&p, &BitColumn::from_bitmaps(&bms));
        assert_eq!(agg.tuples_seen(), 1);
        assert_eq!(agg.finish(0).unwrap(), vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn scalar_aggregate_over_no_tuples_yields_zero_row() {
        let mut agg = SharedAggregator::new(schema());
        agg.register(
            0,
            AggPlan {
                group_by: vec![],
                aggs: vec![AggSpec::new(AggFunc::Count, "n")],
            },
        );
        assert_eq!(agg.finish(0).unwrap(), vec![vec![Value::Int(0)]]);
        // Double-finish returns None (slot state consumed).
        assert!(agg.finish(0).is_none());
    }

    #[test]
    fn group_key_decoding_all_types() {
        let s = Schema::from_pairs(&[
            ("i", DataType::Int),
            ("d", DataType::Date),
            ("c", DataType::Char(4)),
        ]);
        let p = Page::from_values(
            &s,
            &[vec![
                Value::Int(-7),
                Value::Date(19971231),
                Value::Str("ab".into()),
            ]],
        )
        .unwrap();
        let mut agg = SharedAggregator::new(s);
        agg.register(
            0,
            AggPlan {
                group_by: vec![0, 1, 2],
                aggs: vec![AggSpec::new(AggFunc::Count, "n")],
            },
        );
        agg.push_page(&p, &BitColumn::from_bitmaps(&[bm(1, &[0])]));
        assert_eq!(
            agg.finish(0).unwrap(),
            vec![vec![
                Value::Int(-7),
                Value::Date(19971231),
                Value::Str("ab".into()),
                Value::Int(1)
            ]]
        );
    }

    #[test]
    fn update_accounting() {
        let mut agg = SharedAggregator::new(schema());
        for slot in 0..3u32 {
            agg.register(
                slot,
                AggPlan {
                    group_by: vec![0],
                    aggs: vec![AggSpec::new(AggFunc::Count, "n")],
                },
            );
        }
        let p = page(&[(1, 1, 0.0)]);
        agg.push_page(&p, &BitColumn::from_bitmaps(&[bm(4, &[0, 2])]));
        assert_eq!(agg.tuples_seen(), 1);
        assert_eq!(agg.updates_applied(), 2);
    }

    #[test]
    fn push_batch_matches_push_page() {
        use std::sync::Arc as StdArc;
        let p = StdArc::new(page(&[(1, 10, 0.5), (2, 20, 1.5), (1, 30, 2.5), (2, 5, 0.0)]));
        let bitmaps = vec![bm(4, &[0]), bm(4, &[]), bm(4, &[0, 1]), bm(4, &[1])];
        let plan = || AggPlan {
            group_by: vec![0],
            aggs: vec![
                AggSpec::new(AggFunc::Sum(1), "s"),
                AggSpec::new(AggFunc::Max(2), "m"),
            ],
        };
        let mut via_page = SharedAggregator::new(schema());
        via_page.register(0, plan());
        via_page.register(1, plan());
        via_page.push_page(&p, &BitColumn::from_bitmaps(&bitmaps));

        // The FactBatch form pre-drops dead tuples (as the pipeline does).
        let sel: Vec<u32> = vec![0, 2, 3];
        let bms: Vec<Bitmap> = sel.iter().map(|&i| bitmaps[i as usize].clone()).collect();
        let fact = FactBatch::with_bits(p.clone(), sel, BitColumn::from_bitmaps(&bms));
        let mut via_batch = SharedAggregator::new(schema());
        via_batch.register(0, plan());
        via_batch.register(1, plan());
        via_batch.push_batch(&fact);

        for slot in [0u32, 1] {
            assert_eq!(via_page.finish(slot), via_batch.finish(slot), "slot {slot}");
        }
    }

    #[test]
    fn push_after_finish_leaves_remaining_queries_correct() {
        let mut agg = SharedAggregator::new(schema());
        let plan = || AggPlan {
            group_by: vec![0],
            aggs: vec![AggSpec::new(AggFunc::Count, "n")],
        };
        agg.register(0, plan());
        agg.register(1, plan());
        let p = page(&[(1, 1, 0.0)]);
        agg.push_page(&p, &BitColumn::from_bitmaps(&[bm(4, &[0, 1])]));
        assert_eq!(
            agg.finish(0).unwrap(),
            vec![vec![Value::Int(1), Value::Int(1)]]
        );
        // Tuples still carrying the finished slot's bit must not reach
        // its retired state; the surviving query keeps accumulating.
        agg.push_page(&p, &BitColumn::from_bitmaps(&[bm(4, &[0, 1])]));
        agg.push_page(&p, &BitColumn::from_bitmaps(&[bm(4, &[1])]));
        assert_eq!(
            agg.finish(1).unwrap(),
            vec![vec![Value::Int(1), Value::Int(3)]]
        );
    }

    #[test]
    fn high_slot_queries_route_correctly() {
        // Slots beyond the initial 64-bit member mask must widen it.
        let mut agg = SharedAggregator::new(schema());
        agg.register(
            70,
            AggPlan {
                group_by: vec![0],
                aggs: vec![AggSpec::new(AggFunc::Count, "n")],
            },
        );
        let p = page(&[(5, 1, 0.0), (5, 2, 0.0), (6, 3, 0.0)]);
        // Row 1 carries only an unregistered query's bit: it must not
        // reach slot 70's accumulators.
        let bms = vec![bm(128, &[70]), bm(128, &[3]), bm(128, &[70, 3])];
        agg.push_page(&p, &BitColumn::from_bitmaps(&bms));
        assert_eq!(
            agg.finish(70).unwrap(),
            vec![
                vec![Value::Int(5), Value::Int(1)],
                vec![Value::Int(6), Value::Int(1)]
            ]
        );
    }
}
