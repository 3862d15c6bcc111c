//! SharedAggregator ↔ reference equivalence across the GroupTable swap.
//!
//! PR 5 replaced the class-level byte-key registries inside
//! [`SharedAggregator`] with the tiered `qs_engine::group::GroupTable`.
//! These tests pin the observable contract the swap must preserve —
//! byte-identical per-query results (values *and* row order) for queries
//! sharing a grouping class, under the PR 3 batch-routing semantics:
//! per-tuple bitmap routing, class-shared key resolution, per-query
//! first-touch output order, mid-stream finishes.
//!
//! The oracle is a deliberately naive per-query fold: walk the annotated
//! tuple stream row-at-a-time through `qs_engine::agg`'s accumulators
//! (the same oracle the kernel proptests pin against), with a private
//! byte-key first-touch registry per query.

use qs_cjoin::bitmap::Bitmap;
use qs_cjoin::{AggPlan, SharedAggregator};
use qs_engine::agg::{finalize_acc, make_acc, update_acc, Acc};
use qs_engine::group::{GroupTable, GroupTier};
use qs_plan::{AggFunc, AggSpec};
use qs_storage::{BitColumn, DataType, FactBatch, Page, Schema, Value};
use std::collections::HashMap;
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Schema::from_pairs(&[
        ("g1", DataType::Int),     // dense-int class key
        ("g2", DataType::Int),     // with g1: packed 16-byte class key
        ("d", DataType::Date),
        ("wide", DataType::Char(20)), // byte-key class key
        ("v", DataType::Int),
        ("f", DataType::Float),
    ])
}

/// Deterministic page: small key domains so groups repeat across pages.
fn page(seed: i64, rows: usize) -> Arc<Page> {
    let s = schema();
    let vals: Vec<Vec<Value>> = (0..rows as i64)
        .map(|i| {
            let x = seed * 37 + i;
            vec![
                Value::Int(x % 5),
                Value::Int((x * 7) % 3),
                Value::Date(20260101 + (x % 4) as u32),
                Value::Str(format!("wide-group-key-{:02}", x % 6)),
                Value::Int(x * 11 % 101 - 50),
                Value::Float((x % 13) as f64 * 0.25 - 1.0),
            ]
        })
        .collect();
    Arc::new(Page::from_values(&s, &vals).unwrap())
}

/// Bitmap stream: row `i` of page `p` is relevant to query slot `q` iff
/// the (p, i, q) pattern fires — deterministic, mixes dead rows, rows
/// shared by all queries, and rows private to one.
fn bitmaps(p: usize, rows: usize, slots: &[u32]) -> Vec<Bitmap> {
    (0..rows)
        .map(|i| {
            let mut bm = Bitmap::zeros(128);
            for (k, &q) in slots.iter().enumerate() {
                if !(p + i + k).is_multiple_of(3) {
                    bm.set(q as usize);
                }
            }
            bm
        })
        .collect()
}

/// Per-query reference fold: row-at-a-time accumulators + private
/// byte-key first-touch registry.
struct RefQuery {
    slot: u32,
    plan: AggPlan,
    lookup: HashMap<Vec<u8>, usize>,
    order: Vec<Vec<u8>>,
    accs: Vec<Vec<Acc>>, // group → per-agg accumulator
}

impl RefQuery {
    fn new(slot: u32, plan: AggPlan, schema: &Schema) -> RefQuery {
        let mut r = RefQuery {
            slot,
            plan,
            lookup: HashMap::new(),
            order: Vec::new(),
            accs: Vec::new(),
        };
        if r.plan.group_by.is_empty() {
            r.order.push(Vec::new());
            r.accs.push(
                r.plan.aggs.iter().map(|a| make_acc(&a.func, schema)).collect(),
            );
        }
        r
    }

    fn push(&mut self, page: &Page, bms: &[Bitmap]) {
        let s = page.schema().clone();
        for (i, bm) in bms.iter().enumerate() {
            if !bm.get(self.slot as usize) {
                continue;
            }
            let row = page.row(i);
            let mut key = Vec::new();
            for &c in &self.plan.group_by {
                let off = s.offset(c);
                let w = s.dtype(c).width();
                key.extend_from_slice(&row.bytes()[off..off + w]);
            }
            let g = if self.plan.group_by.is_empty() {
                0
            } else {
                match self.lookup.get(&key) {
                    Some(&g) => g,
                    None => {
                        let g = self.order.len();
                        self.order.push(key.clone());
                        self.lookup.insert(key, g);
                        self.accs.push(
                            self.plan
                                .aggs
                                .iter()
                                .map(|a| make_acc(&a.func, &s))
                                .collect(),
                        );
                        g
                    }
                }
            };
            for (acc, spec) in self.accs[g].iter_mut().zip(&self.plan.aggs) {
                update_acc(acc, &spec.func, &row);
            }
        }
    }

    fn finish(&self, schema: &Schema) -> Vec<Vec<Value>> {
        self.order
            .iter()
            .enumerate()
            .map(|(g, key)| {
                let mut row = Vec::new();
                let mut off = 0usize;
                for &c in &self.plan.group_by {
                    let w = schema.dtype(c).width();
                    row.push(decode(&key[off..off + w], schema.dtype(c)));
                    off += w;
                }
                for acc in &self.accs[g] {
                    row.push(finalize_acc(acc));
                }
                row
            })
            .collect()
    }
}

fn decode(bytes: &[u8], dtype: DataType) -> Value {
    match dtype {
        DataType::Int => Value::Int(i64::from_le_bytes(bytes.try_into().unwrap())),
        DataType::Float => Value::Float(f64::from_le_bytes(bytes.try_into().unwrap())),
        DataType::Date => Value::Date(u32::from_le_bytes(bytes.try_into().unwrap())),
        DataType::Char(_) => Value::Str(
            std::str::from_utf8(bytes)
                .unwrap_or("")
                .trim_end_matches(' ')
                .to_string(),
        ),
    }
}

/// The five queries of the scenario: two sharing the dense-int class,
/// two sharing the packed class (different aggregates — the class
/// registry is shared, the accumulators are not), one alone on the
/// byte-key class. Every GroupTable tier is exercised in one aggregator.
fn plans() -> Vec<(u32, AggPlan)> {
    vec![
        (
            0,
            AggPlan {
                group_by: vec![0],
                aggs: vec![
                    AggSpec::new(AggFunc::Sum(4), "s"),
                    AggSpec::new(AggFunc::Count, "n"),
                ],
            },
        ),
        (
            1,
            AggPlan {
                group_by: vec![0],
                aggs: vec![AggSpec::new(AggFunc::Avg(5), "a")],
            },
        ),
        (
            2,
            AggPlan {
                group_by: vec![0, 1],
                aggs: vec![AggSpec::new(AggFunc::Max(4), "m")],
            },
        ),
        (
            70, // beyond one mask word: widening must survive the swap
            AggPlan {
                group_by: vec![0, 1],
                aggs: vec![
                    AggSpec::new(AggFunc::Min(2), "d"),
                    AggSpec::new(AggFunc::SumProd(4, 4), "p"),
                ],
            },
        ),
        (
            3,
            AggPlan {
                group_by: vec![3],
                aggs: vec![AggSpec::new(AggFunc::Count, "n")],
            },
        ),
    ]
}

#[test]
fn class_sharing_results_match_reference_fold() {
    let s = schema();
    // The scenario's class shapes really land on the three tiers.
    assert_eq!(GroupTable::tier_for(&[0], &s), GroupTier::DenseInt);
    assert_eq!(GroupTable::tier_for(&[0, 1], &s), GroupTier::Packed);
    assert_eq!(GroupTable::tier_for(&[3], &s), GroupTier::ByteKey);

    let mut agg = SharedAggregator::new(s.clone());
    let mut refs: Vec<RefQuery> = Vec::new();
    let mut slots = Vec::new();
    for (slot, plan) in plans() {
        agg.register(slot, plan.clone());
        refs.push(RefQuery::new(slot, plan, &s));
        slots.push(slot);
    }
    // 5 queries, 3 grouping classes: [0] shared, [0,1] shared, [3] solo.
    assert_eq!(agg.class_count(), 3);

    for p in 0..6usize {
        let page = page(p as i64, 48);
        let bms = bitmaps(p, 48, &slots);
        agg.push_page(&page, &BitColumn::from_bitmaps(&bms));
        for r in &mut refs {
            r.push(&page, &bms);
        }
    }

    for r in &refs {
        let got = agg.finish(r.slot).expect("registered slot");
        let want = r.finish(&s);
        assert_eq!(got, want, "slot {} diverged from the reference fold", r.slot);
        assert!(!want.is_empty(), "degenerate scenario: slot {} saw no tuples", r.slot);
    }
}

#[test]
fn push_batch_and_mid_stream_finish_survive_swap() {
    let s = schema();
    let mut agg = SharedAggregator::new(s.clone());
    let mut refs: Vec<RefQuery> = Vec::new();
    let mut slots = Vec::new();
    for (slot, plan) in plans() {
        agg.register(slot, plan.clone());
        refs.push(RefQuery::new(slot, plan, &s));
        slots.push(slot);
    }

    // First half of the stream arrives as FactBatches (the pipeline's
    // own currency): dead rows pre-dropped, query bits parallel to sel.
    for p in 0..3usize {
        let page = page(p as i64, 48);
        let bms = bitmaps(p, 48, &slots);
        let sel: Vec<u32> =
            (0..48u32).filter(|&i| bms[i as usize].any()).collect();
        let kept: Vec<Bitmap> =
            sel.iter().map(|&i| bms[i as usize].clone()).collect();
        let fb = FactBatch::with_bits(page.clone(), sel, BitColumn::from_bitmaps(&kept));
        agg.push_batch(&fb);
        for r in &mut refs {
            r.push(&page, &bms);
        }
    }

    // Mid-stream finish of one member of each shared class: the class
    // registry lives on for the surviving member.
    for finish_slot in [0u32, 2] {
        let r = refs.iter().position(|r| r.slot == finish_slot).unwrap();
        let got = agg.finish(finish_slot).expect("registered");
        assert_eq!(got, refs[r].finish(&s), "mid-stream finish slot {finish_slot}");
        refs.remove(r);
    }

    // Rest of the stream still routes correctly to the survivors —
    // including tuples still carrying the finished slots' bits.
    for p in 3..6usize {
        let page = page(p as i64, 48);
        let bms = bitmaps(p, 48, &slots);
        agg.push_page(&page, &BitColumn::from_bitmaps(&bms));
        for r in &mut refs {
            r.push(&page, &bms);
        }
    }
    for r in &refs {
        let got = agg.finish(r.slot).expect("registered");
        assert_eq!(got, r.finish(&s), "slot {} after mid-stream finishes", r.slot);
    }
}
