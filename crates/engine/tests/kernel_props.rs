//! Property tests pinning the vectorized aggregation kernels
//! (`qs_engine::kernels`) to the row-at-a-time `update_acc` oracle on
//! arbitrary column data, sub-selections and groupings. The oracle is
//! the accumulator path every execution mode agreed on before the batch
//! refactor, so kernel/oracle equality here plus the mode-agreement e2e
//! tests pin the whole refactor.

use proptest::prelude::*;
use qs_engine::agg::{finalize_acc, make_acc, update_acc};
use qs_engine::kernels::{kernel_columns, update_grouped, AccVec, AggKernel};
use qs_plan::AggFunc;
use qs_storage::{ColumnBatch, DataType, Page, Schema, Value};
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Schema::from_pairs(&[
        ("i", DataType::Int),
        ("f", DataType::Float),
        ("d", DataType::Date),
        ("s", DataType::Char(6)),
    ])
}

/// Arbitrary rows for the test schema. Floats include negatives and
/// fractional values; strings vary in length (padding-trim coverage).
fn arb_rows() -> impl Strategy<Value = Vec<(i64, f64, u32, String)>> {
    prop::collection::vec(
        (
            -1000i64..1000,
            (-1000i32..1000).prop_map(|x| x as f64 / 8.0),
            19970101u32..19991231,
            "[a-z]{0,6}",
        ),
        1..200,
    )
}

fn arb_func() -> impl Strategy<Value = AggFunc> {
    let col = 0usize..4;
    let num = 0usize..3; // Avg/SumProd/SumDiff take numeric inputs
    prop_oneof![
        Just(AggFunc::Count),
        num.clone().prop_map(AggFunc::Sum),
        num.clone().prop_map(AggFunc::Avg),
        col.clone().prop_map(AggFunc::Min),
        col.prop_map(AggFunc::Max),
        (num.clone(), num.clone()).prop_map(|(a, b)| AggFunc::SumProd(a, b)),
        (num.clone(), num).prop_map(|(a, b)| AggFunc::SumDiff(a, b)),
    ]
}

fn build_page(rows: &[(i64, f64, u32, String)]) -> Page {
    let s = schema();
    let vals: Vec<Vec<Value>> = rows
        .iter()
        .map(|(i, f, d, st)| {
            vec![
                Value::Int(*i),
                Value::Float(*f),
                Value::Date(*d),
                Value::Str(st.clone()),
            ]
        })
        .collect();
    let mut b = qs_storage::PageBuilder::with_bytes(s.clone(), vals.len() * s.row_size() + 64);
    for r in &vals {
        assert!(b.push_values(r).unwrap());
    }
    b.finish()
}

/// Values compare exactly except floats, which the kernels may sum in a
/// different association order than the row loop.
fn assert_value_close(got: &Value, want: &Value, ctx: &str) {
    match (got, want) {
        (Value::Float(a), Value::Float(b)) => {
            let tol = 1e-9 * (1.0 + a.abs().max(b.abs()));
            assert!((a - b).abs() <= tol, "{ctx}: {a} vs {b}");
        }
        _ => assert_eq!(got, want, "{ctx}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Grouped kernels agree with per-group row-at-a-time folding under
    /// arbitrary row→group assignments and sub-selections.
    #[test]
    fn grouped_kernels_match_update_acc(
        rows in arb_rows(),
        func in arb_func(),
        ngroups in 1u32..8,
        seed in any::<u64>(),
    ) {
        let s = schema();
        let page = build_page(&rows);
        let n = page.rows();
        // Pseudo-random (row, group) pairs; roughly half the rows selected.
        let mut sel_rows: Vec<u32> = Vec::new();
        let mut sel_groups: Vec<u32> = Vec::new();
        let mut x = seed | 1;
        for i in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if x & 1 == 0 {
                sel_rows.push(i as u32);
                sel_groups.push(((x >> 32) % ngroups as u64) as u32);
            }
        }
        let kernel = AggKernel::compile(&func, &s);
        let batch = ColumnBatch::from_page(&page, &kernel_columns(&[kernel]));
        let mut accs = AccVec::for_kernel(&kernel);
        accs.resize(ngroups as usize);
        update_grouped(&kernel, &mut accs, &batch, &sel_rows, &sel_groups);

        for g in 0..ngroups {
            let mut oracle = make_acc(&func, &s);
            for (&r, &gr) in sel_rows.iter().zip(&sel_groups) {
                if gr == g {
                    update_acc(&mut oracle, &func, &page.row(r as usize));
                }
            }
            assert_value_close(
                &accs.finalize(g as usize),
                &finalize_acc(&oracle),
                &format!("{func:?} group {g}"),
            );
        }
    }

    /// Splitting a batch into arbitrary prefix/suffix sub-batches must
    /// accumulate identically (the aggregator folds page after page).
    #[test]
    fn kernel_updates_compose_across_batches(
        rows in arb_rows(),
        func in arb_func(),
        split_frac in 0.0f64..1.0,
    ) {
        let s = schema();
        let page = build_page(&rows);
        let n = page.rows();
        let split = ((n as f64) * split_frac) as usize;
        let kernel = AggKernel::compile(&func, &s);
        let cols = kernel_columns(&[kernel]);

        // One shot over the full page.
        let batch = ColumnBatch::from_page(&page, &cols);
        let all_rows: Vec<u32> = (0..n as u32).collect();
        let zeros = vec![0u32; n];
        let mut whole = AccVec::for_kernel(&kernel);
        whole.resize(1);
        update_grouped(&kernel, &mut whole, &batch, &all_rows, &zeros);

        // Two gathered sub-batches.
        let mut split_accs = AccVec::for_kernel(&kernel);
        split_accs.resize(1);
        for part in [&all_rows[..split], &all_rows[split..]] {
            if part.is_empty() {
                continue;
            }
            let sub = ColumnBatch::gather(&page, part, &cols);
            let idx: Vec<u32> = (0..part.len() as u32).collect();
            let zeros = vec![0u32; part.len()];
            update_grouped(&kernel, &mut split_accs, &sub, &idx, &zeros);
        }
        assert_value_close(
            &split_accs.finalize(0),
            &whole.finalize(0),
            &format!("{func:?} split at {split}"),
        );
    }
}
