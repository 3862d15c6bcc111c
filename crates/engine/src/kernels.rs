//! Vectorized aggregation kernels — the batch-at-a-time sibling of
//! [`crate::agg`].
//!
//! [`crate::agg::update_acc`] folds one row at a time: every update
//! re-matches the `(Acc, AggFunc)` enum pair and re-reads the schema
//! offset. With a [`ColumnBatch`] in hand (the representation every
//! post-predicate stage now carries), the dispatch can be hoisted out of
//! the loop entirely: an [`AggKernel`] is the aggregate resolved against
//! the input schema *once*, and its update runs a tight typed loop over a
//! column slice. Accumulators live in structure-of-arrays form
//! ([`AccVec`], one slot per group) so grouped folds index a flat vector
//! instead of chasing a per-group `Vec<Acc>`.
//!
//! One update shape covers the engine's `Aggregate` operator:
//! [`update_grouped`] folds `(row, group)` pairs. A scalar aggregate (no
//! GROUP BY) is the one-group case: the `GroupTable` resolves every row
//! to the empty key's single slot.
//!
//! The row-at-a-time `update_acc` stays as the property-test oracle:
//! `crates/engine/tests/kernel_props.rs` pins the kernels to it on
//! arbitrary column data and groupings.

use qs_plan::AggFunc;
use qs_storage::{ColumnBatch, ColumnData, DataType, Schema, Value};

/// An aggregate function resolved against its input schema: typed op +
/// column indices, no `Value`s and no per-row type dispatch. Mirrors the
/// accumulator typing rules of [`crate::agg::make_acc`] exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKernel {
    /// `COUNT(*)`.
    Count,
    /// `SUM` over an `Int` column (exact).
    SumI { col: u32 },
    /// `SUM` over a numeric (`Float`/`Date`) column, widened to `f64`.
    SumF { col: u32 },
    /// `AVG` over any numeric column.
    Avg { col: u32 },
    /// `MIN`/`MAX` per input type.
    MinI { col: u32 },
    MaxI { col: u32 },
    MinF { col: u32 },
    MaxF { col: u32 },
    MinD { col: u32 },
    MaxD { col: u32 },
    MinS { col: u32 },
    MaxS { col: u32 },
    /// `SUM(a*b)` — exact when both are `Int`, else widened.
    SumProdI { a: u32, b: u32 },
    SumProdF { a: u32, b: u32 },
    /// `SUM(a-b)` — exact when both are `Int`, else widened.
    SumDiffI { a: u32, b: u32 },
    SumDiffF { a: u32, b: u32 },
}

impl AggKernel {
    /// Resolve `func` against `schema`. The typing rules are identical to
    /// [`crate::agg::make_acc`], so kernel results always match the
    /// row-at-a-time oracle.
    pub fn compile(func: &AggFunc, schema: &Schema) -> AggKernel {
        let is_int = |c: usize| schema.dtype(c) == DataType::Int;
        match *func {
            AggFunc::Count => AggKernel::Count,
            AggFunc::Sum(c) => {
                if is_int(c) {
                    AggKernel::SumI { col: c as u32 }
                } else {
                    AggKernel::SumF { col: c as u32 }
                }
            }
            AggFunc::Avg(c) => AggKernel::Avg { col: c as u32 },
            AggFunc::Min(c) => match schema.dtype(c) {
                DataType::Int => AggKernel::MinI { col: c as u32 },
                DataType::Float => AggKernel::MinF { col: c as u32 },
                DataType::Date => AggKernel::MinD { col: c as u32 },
                DataType::Char(_) => AggKernel::MinS { col: c as u32 },
            },
            AggFunc::Max(c) => match schema.dtype(c) {
                DataType::Int => AggKernel::MaxI { col: c as u32 },
                DataType::Float => AggKernel::MaxF { col: c as u32 },
                DataType::Date => AggKernel::MaxD { col: c as u32 },
                DataType::Char(_) => AggKernel::MaxS { col: c as u32 },
            },
            AggFunc::SumProd(a, b) => {
                if is_int(a) && is_int(b) {
                    AggKernel::SumProdI {
                        a: a as u32,
                        b: b as u32,
                    }
                } else {
                    AggKernel::SumProdF {
                        a: a as u32,
                        b: b as u32,
                    }
                }
            }
            AggFunc::SumDiff(a, b) => {
                if is_int(a) && is_int(b) {
                    AggKernel::SumDiffI {
                        a: a as u32,
                        b: b as u32,
                    }
                } else {
                    AggKernel::SumDiffF {
                        a: a as u32,
                        b: b as u32,
                    }
                }
            }
        }
    }

    /// Append the columns this kernel reads to `out` (callers sort/dedup
    /// the union — the set a [`ColumnBatch`] must decode).
    pub fn input_columns(&self, out: &mut Vec<usize>) {
        match *self {
            AggKernel::Count => {}
            AggKernel::SumI { col }
            | AggKernel::SumF { col }
            | AggKernel::Avg { col }
            | AggKernel::MinI { col }
            | AggKernel::MaxI { col }
            | AggKernel::MinF { col }
            | AggKernel::MaxF { col }
            | AggKernel::MinD { col }
            | AggKernel::MaxD { col }
            | AggKernel::MinS { col }
            | AggKernel::MaxS { col } => out.push(col as usize),
            AggKernel::SumProdI { a, b }
            | AggKernel::SumProdF { a, b }
            | AggKernel::SumDiffI { a, b }
            | AggKernel::SumDiffF { a, b } => {
                out.push(a as usize);
                out.push(b as usize);
            }
        }
    }
}

/// Sorted, deduplicated union of the columns a kernel set reads.
pub fn kernel_columns(kernels: &[AggKernel]) -> Vec<usize> {
    let mut cols = Vec::new();
    for k in kernels {
        k.input_columns(&mut cols);
    }
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// Structure-of-arrays accumulators: one slot per group, typed to match
/// the kernel. Grow-only via [`Self::resize`]; fresh slots hold the
/// neutral element.
#[derive(Debug, Clone)]
pub enum AccVec {
    Count(Vec<i64>),
    SumI(Vec<i64>),
    SumF(Vec<f64>),
    Avg { sum: Vec<f64>, n: Vec<i64> },
    MinI(Vec<Option<i64>>),
    MaxI(Vec<Option<i64>>),
    MinF(Vec<Option<f64>>),
    MaxF(Vec<Option<f64>>),
    MinD(Vec<Option<u32>>),
    MaxD(Vec<Option<u32>>),
    MinS(Vec<Option<String>>),
    MaxS(Vec<Option<String>>),
}

impl AccVec {
    /// Empty accumulator storage matching `kernel`.
    pub fn for_kernel(kernel: &AggKernel) -> AccVec {
        match kernel {
            AggKernel::Count => AccVec::Count(Vec::new()),
            AggKernel::SumI { .. } | AggKernel::SumProdI { .. } | AggKernel::SumDiffI { .. } => {
                AccVec::SumI(Vec::new())
            }
            AggKernel::SumF { .. } | AggKernel::SumProdF { .. } | AggKernel::SumDiffF { .. } => {
                AccVec::SumF(Vec::new())
            }
            AggKernel::Avg { .. } => AccVec::Avg {
                sum: Vec::new(),
                n: Vec::new(),
            },
            AggKernel::MinI { .. } => AccVec::MinI(Vec::new()),
            AggKernel::MaxI { .. } => AccVec::MaxI(Vec::new()),
            AggKernel::MinF { .. } => AccVec::MinF(Vec::new()),
            AggKernel::MaxF { .. } => AccVec::MaxF(Vec::new()),
            AggKernel::MinD { .. } => AccVec::MinD(Vec::new()),
            AggKernel::MaxD { .. } => AccVec::MaxD(Vec::new()),
            AggKernel::MinS { .. } => AccVec::MinS(Vec::new()),
            AggKernel::MaxS { .. } => AccVec::MaxS(Vec::new()),
        }
    }

    /// Number of group slots.
    pub fn len(&self) -> usize {
        match self {
            AccVec::Count(v) | AccVec::SumI(v) => v.len(),
            AccVec::SumF(v) => v.len(),
            AccVec::Avg { n, .. } => n.len(),
            AccVec::MinI(v) | AccVec::MaxI(v) => v.len(),
            AccVec::MinF(v) | AccVec::MaxF(v) => v.len(),
            AccVec::MinD(v) | AccVec::MaxD(v) => v.len(),
            AccVec::MinS(v) | AccVec::MaxS(v) => v.len(),
        }
    }

    /// Whether no group slots exist yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Grow to `groups` slots (never shrinks), new slots neutral.
    pub fn resize(&mut self, groups: usize) {
        let groups = groups.max(self.len());
        match self {
            AccVec::Count(v) | AccVec::SumI(v) => v.resize(groups, 0),
            AccVec::SumF(v) => v.resize(groups, 0.0),
            AccVec::Avg { sum, n } => {
                sum.resize(groups, 0.0);
                n.resize(groups, 0);
            }
            AccVec::MinI(v) | AccVec::MaxI(v) => v.resize(groups, None),
            AccVec::MinF(v) | AccVec::MaxF(v) => v.resize(groups, None),
            AccVec::MinD(v) | AccVec::MaxD(v) => v.resize(groups, None),
            AccVec::MinS(v) | AccVec::MaxS(v) => v.resize(groups, None),
        }
    }

    /// Final aggregate value of group `g` — semantics identical to
    /// [`crate::agg::finalize_acc`].
    pub fn finalize(&self, g: usize) -> Value {
        match self {
            AccVec::Count(v) | AccVec::SumI(v) => Value::Int(v[g]),
            AccVec::SumF(v) => Value::Float(v[g]),
            AccVec::Avg { sum, n } => Value::Float(if n[g] == 0 { 0.0 } else { sum[g] / n[g] as f64 }),
            AccVec::MinI(v) | AccVec::MaxI(v) => Value::Int(v[g].unwrap_or(0)),
            AccVec::MinF(v) | AccVec::MaxF(v) => Value::Float(v[g].unwrap_or(0.0)),
            AccVec::MinD(v) | AccVec::MaxD(v) => Value::Date(v[g].unwrap_or(0)),
            AccVec::MinS(v) | AccVec::MaxS(v) => {
                Value::Str(v[g].clone().unwrap_or_default())
            }
        }
    }
}

/// A numeric column view with the widening rule of `RowRef::numeric`
/// (`Int`/`Date` widen to `f64`). The discriminant is loop-invariant, so
/// the per-element branch predicts perfectly; `SumF`-family kernels
/// additionally specialize per variant to keep the inner loop monotyped.
enum NumCol<'a> {
    I(&'a [i64]),
    F(&'a [f64]),
    D(&'a [u32]),
}

impl NumCol<'_> {
    #[inline]
    fn get(&self, i: usize) -> f64 {
        match self {
            NumCol::I(v) => v[i] as f64,
            NumCol::F(v) => v[i],
            NumCol::D(v) => v[i] as f64,
        }
    }
}

fn num_col<'a>(batch: &'a ColumnBatch<'_>, col: u32) -> NumCol<'a> {
    match batch.col(col as usize) {
        ColumnData::I64(v) => NumCol::I(v),
        ColumnData::I64View(v) => NumCol::I(v),
        ColumnData::F64(v) => NumCol::F(v),
        ColumnData::F64View(v) => NumCol::F(v),
        ColumnData::Date(v) => NumCol::D(v),
        ColumnData::DateView(v) => NumCol::D(v),
        other => panic!("numeric kernel over {other:?}"),
    }
}

/// Run `f(row, group)` over the zipped pair lists.
#[inline]
fn for_pairs(rows: &[u32], groups: &[u32], mut f: impl FnMut(usize, usize)) {
    debug_assert_eq!(rows.len(), groups.len());
    for (&r, &g) in rows.iter().zip(groups) {
        f(r as usize, g as usize);
    }
}

/// Fold batch rows into grouped accumulators: row `rows[i]` of `batch`
/// updates group slot `groups[i]`. `accs` must be [`AccVec::resize`]d to
/// cover every referenced slot and match the kernel's accumulator shape.
pub fn update_grouped(
    kernel: &AggKernel,
    accs: &mut AccVec,
    batch: &ColumnBatch<'_>,
    rows: &[u32],
    groups: &[u32],
) {
    match (kernel, accs) {
        (AggKernel::Count, AccVec::Count(v)) => for_pairs(rows, groups, |_, g| v[g] += 1),
        (AggKernel::SumI { col }, AccVec::SumI(v)) => {
            let d = batch.col(*col as usize).i64s();
            for_pairs(rows, groups, |r, g| v[g] += d[r]);
        }
        (AggKernel::SumF { col }, AccVec::SumF(v)) => match num_col(batch, *col) {
            NumCol::I(d) => for_pairs(rows, groups, |r, g| v[g] += d[r] as f64),
            NumCol::F(d) => for_pairs(rows, groups, |r, g| v[g] += d[r]),
            NumCol::D(d) => for_pairs(rows, groups, |r, g| v[g] += d[r] as f64),
        },
        (AggKernel::Avg { col }, AccVec::Avg { sum, n }) => {
            let d = num_col(batch, *col);
            for_pairs(rows, groups, |r, g| {
                sum[g] += d.get(r);
                n[g] += 1;
            });
        }
        (AggKernel::MinI { col }, AccVec::MinI(v)) => {
            let d = batch.col(*col as usize).i64s();
            for_pairs(rows, groups, |r, g| {
                let x = d[r];
                v[g] = Some(v[g].map_or(x, |m| m.min(x)));
            });
        }
        (AggKernel::MaxI { col }, AccVec::MaxI(v)) => {
            let d = batch.col(*col as usize).i64s();
            for_pairs(rows, groups, |r, g| {
                let x = d[r];
                v[g] = Some(v[g].map_or(x, |m| m.max(x)));
            });
        }
        (AggKernel::MinF { col }, AccVec::MinF(v)) => {
            let d = batch.col(*col as usize).f64s();
            for_pairs(rows, groups, |r, g| {
                let x = d[r];
                v[g] = Some(v[g].map_or(x, |m| m.min(x)));
            });
        }
        (AggKernel::MaxF { col }, AccVec::MaxF(v)) => {
            let d = batch.col(*col as usize).f64s();
            for_pairs(rows, groups, |r, g| {
                let x = d[r];
                v[g] = Some(v[g].map_or(x, |m| m.max(x)));
            });
        }
        (AggKernel::MinD { col }, AccVec::MinD(v)) => {
            let d = batch.col(*col as usize).dates();
            for_pairs(rows, groups, |r, g| {
                let x = d[r];
                v[g] = Some(v[g].map_or(x, |m| m.min(x)));
            });
        }
        (AggKernel::MaxD { col }, AccVec::MaxD(v)) => {
            let d = batch.col(*col as usize).dates();
            for_pairs(rows, groups, |r, g| {
                let x = d[r];
                v[g] = Some(v[g].map_or(x, |m| m.max(x)));
            });
        }
        (AggKernel::MinS { col }, AccVec::MinS(v)) => {
            let d = batch.col(*col as usize).strs();
            for_pairs(rows, groups, |r, g| {
                let x = d[r];
                match &v[g] {
                    Some(m) if m.as_str() <= x => {}
                    _ => v[g] = Some(x.to_string()),
                }
            });
        }
        (AggKernel::MaxS { col }, AccVec::MaxS(v)) => {
            let d = batch.col(*col as usize).strs();
            for_pairs(rows, groups, |r, g| {
                let x = d[r];
                match &v[g] {
                    Some(m) if m.as_str() >= x => {}
                    _ => v[g] = Some(x.to_string()),
                }
            });
        }
        (AggKernel::SumProdI { a, b }, AccVec::SumI(v)) => {
            let da = batch.col(*a as usize).i64s();
            let db = batch.col(*b as usize).i64s();
            for_pairs(rows, groups, |r, g| v[g] += da[r] * db[r]);
        }
        (AggKernel::SumProdF { a, b }, AccVec::SumF(v)) => {
            let da = num_col(batch, *a);
            let db = num_col(batch, *b);
            for_pairs(rows, groups, |r, g| v[g] += da.get(r) * db.get(r));
        }
        (AggKernel::SumDiffI { a, b }, AccVec::SumI(v)) => {
            let da = batch.col(*a as usize).i64s();
            let db = batch.col(*b as usize).i64s();
            for_pairs(rows, groups, |r, g| v[g] += da[r] - db[r]);
        }
        (AggKernel::SumDiffF { a, b }, AccVec::SumF(v)) => {
            let da = num_col(batch, *a);
            let db = num_col(batch, *b);
            for_pairs(rows, groups, |r, g| v[g] += da.get(r) - db.get(r));
        }
        (k, a) => unreachable!("kernel/accumulator mismatch: {k:?} vs {a:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{finalize_acc, make_acc, update_acc};
    use qs_storage::Page;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::from_pairs(&[
            ("g", DataType::Int),
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("d", DataType::Date),
            ("s", DataType::Char(4)),
        ])
    }

    fn page() -> Page {
        Page::from_values(
            &schema(),
            &(0..20)
                .map(|i| {
                    vec![
                        Value::Int(i % 3),
                        Value::Int(i * 7 - 50),
                        Value::Float(i as f64 * 0.25 - 2.0),
                        Value::Date(19970101 + (i as u32 % 9)),
                        Value::Str(format!("s{:02}", (i * 13) % 40)),
                    ]
                })
                .collect::<Vec<_>>(),
        )
        .unwrap()
    }

    fn all_funcs() -> Vec<AggFunc> {
        vec![
            AggFunc::Count,
            AggFunc::Sum(1),
            AggFunc::Sum(2),
            AggFunc::Avg(1),
            AggFunc::Avg(3),
            AggFunc::Min(1),
            AggFunc::Max(2),
            AggFunc::Min(3),
            AggFunc::Max(3),
            AggFunc::Min(4),
            AggFunc::Max(4),
            AggFunc::SumProd(1, 1),
            AggFunc::SumProd(1, 2),
            AggFunc::SumDiff(1, 1),
            AggFunc::SumDiff(2, 1),
        ]
    }

    #[test]
    fn grouped_kernels_match_row_oracle() {
        let s = schema();
        let p = page();
        let n = p.rows();
        // Group rows by column 0 (values 0..3) with slot = value.
        let rows: Vec<u32> = (0..n as u32).collect();
        let groups: Vec<u32> = p.iter().map(|r| r.i64_col(0) as u32).collect();
        for func in all_funcs() {
            let kernel = AggKernel::compile(&func, &s);
            let mut accs = AccVec::for_kernel(&kernel);
            accs.resize(3);
            let batch = ColumnBatch::from_page(&p, &kernel_columns(&[kernel]));
            update_grouped(&kernel, &mut accs, &batch, &rows, &groups);
            for g in 0..3 {
                let mut oracle = make_acc(&func, &s);
                for row in p.iter().filter(|r| r.i64_col(0) as u32 == g as u32) {
                    update_acc(&mut oracle, &func, &row);
                }
                assert_eq!(accs.finalize(g), finalize_acc(&oracle), "{func:?} group {g}");
            }
        }
    }

    #[test]
    fn empty_selection_finalizes_neutral() {
        let s = schema();
        let p = page();
        for func in all_funcs() {
            let kernel = AggKernel::compile(&func, &s);
            let mut accs = AccVec::for_kernel(&kernel);
            accs.resize(1);
            let batch = ColumnBatch::from_page(&p, &kernel_columns(&[kernel]));
            update_grouped(&kernel, &mut accs, &batch, &[], &[]);
            assert_eq!(
                accs.finalize(0),
                finalize_acc(&make_acc(&func, &s)),
                "{func:?}"
            );
        }
    }

    #[test]
    fn kernel_columns_union() {
        let s = schema();
        let ks = [
            AggKernel::compile(&AggFunc::Count, &s),
            AggKernel::compile(&AggFunc::SumProd(2, 1), &s),
            AggKernel::compile(&AggFunc::Min(1), &s),
        ];
        assert_eq!(kernel_columns(&ks), vec![1, 2]);
    }

    #[test]
    fn resize_grows_only() {
        let mut a = AccVec::Count(vec![5]);
        a.resize(3);
        assert_eq!(a.len(), 3);
        a.resize(1);
        assert_eq!(a.len(), 3);
        assert_eq!(a.finalize(0), Value::Int(5));
        assert_eq!(a.finalize(2), Value::Int(0));
    }
}
