//! Property tests for [`FactBatch`] selection invariants: every view the
//! batch hands out — gathered key slices (`gather_i64_into`), typed
//! column views (`columns`), materialized row bytes (`materialize_rows` /
//! `row_bytes`), in-place tuple bytes (`tuple_bytes`) — must agree with a
//! naive per-row oracle that decodes `page.row(sel[t])` directly, under
//! arbitrary selections including the empty and the full one, and must
//! keep agreeing across `retain` compactions and `prefix` slices. The
//! dense query-bit column must keep agreeing with a per-tuple [`Bitmap`]
//! oracle through every operation that moves or copies tuples.

use proptest::prelude::*;
use qs_storage::{
    BitColumn, Bitmap, ColumnData, DataType, FactBatch, Page, PageBuilder, Schema, Value,
};
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Schema::from_pairs(&[
        ("k", DataType::Int),
        ("f", DataType::Float),
        ("d", DataType::Date),
        ("s", DataType::Char(5)),
    ])
}

fn build_page(rows: &[(i64, f64, u32, String)]) -> Arc<Page> {
    let s = schema();
    let mut b = PageBuilder::with_bytes(s.clone(), rows.len().max(1) * s.row_size() + 64);
    for (k, f, d, st) in rows {
        let ok = b
            .push_values(&[
                Value::Int(*k),
                Value::Float(*f),
                Value::Date(*d),
                Value::Str(st.clone()),
            ])
            .unwrap();
        assert!(ok);
    }
    Arc::new(b.finish())
}

fn arb_rows() -> impl Strategy<Value = Vec<(i64, f64, u32, String)>> {
    prop::collection::vec(
        (
            any::<i64>(),
            (-5000i32..5000).prop_map(|x| x as f64 / 16.0),
            19920101u32..19990101,
            "[a-z]{0,5}",
        ),
        1..120,
    )
}

/// Query slots of the annotated batches: three words per tuple, so the
/// column's stride and the bits past slots 64 and 128 are exercised.
const SLOTS: usize = 130;

/// The per-tuple oracle: page row `r` is annotated with slots derived
/// from `r` alone, spread over all three words.
fn annotation(r: u32) -> Bitmap {
    let r = r as usize;
    let mut bm = Bitmap::zeros(SLOTS);
    bm.set(r % SLOTS);
    bm.set((r * 7 + 64) % SLOTS);
    if r.is_multiple_of(5) {
        bm.set(SLOTS - 1);
    }
    bm
}

fn batch_with(page: &Arc<Page>, sel: &[u32]) -> FactBatch {
    let bitmaps: Vec<Bitmap> = sel.iter().map(|&r| annotation(r)).collect();
    // An empty selection has no bitmap to take the width from.
    let bits = if sel.is_empty() {
        BitColumn::zeros(3, 0)
    } else {
        BitColumn::from_bitmaps(&bitmaps)
    };
    FactBatch::with_bits(page.clone(), sel.to_vec(), bits)
}

/// Every tuple's words equal the oracle bitmap of the page row it wraps.
fn assert_bits_follow_rows(fb: &FactBatch) {
    assert_eq!(fb.bits().words(), 3);
    assert_eq!(fb.bits().len(), fb.len());
    for (t, &r) in fb.sel().iter().enumerate() {
        assert_eq!(fb.bits().tuple(t), annotation(r).words(), "tuple {t} (row {r})");
    }
}

/// The oracle: decode tuple `t`'s column `c` through the page row view.
fn oracle_value(page: &Page, sel: &[u32], t: usize, c: usize) -> Value {
    page.row(sel[t] as usize).value(c)
}

fn check_views(page: &Arc<Page>, sel: &[u32]) {
    let mut fb = batch_with(page, sel);
    assert_eq!(fb.len(), sel.len());
    assert_eq!(fb.is_empty(), sel.is_empty());
    assert_eq!(fb.is_full(), sel.len() == page.rows());

    // gather_i64_into over the Int column vs per-row oracle (scratch
    // pre-dirtied to catch missing clears).
    let mut keys = vec![77i64; 3];
    fb.gather_i64_into(0, &mut keys);
    assert_eq!(keys.len(), sel.len());
    for (t, &k) in keys.iter().enumerate() {
        assert_eq!(Value::Int(k), oracle_value(page, sel, t, 0));
    }

    // columns() typed views vs per-row oracle, every column type.
    let view = fb.columns(&[0, 1, 2, 3]);
    assert_eq!(view.rows(), sel.len());
    for t in 0..sel.len() {
        match view.col(0) {
            ColumnData::I64(v) => assert_eq!(Value::Int(v[t]), oracle_value(page, sel, t, 0)),
            other => panic!("col 0: {other:?}"),
        }
        match view.col(1) {
            ColumnData::F64(v) => {
                assert_eq!(Value::Float(v[t]), oracle_value(page, sel, t, 1))
            }
            other => panic!("col 1: {other:?}"),
        }
        match view.col(2) {
            ColumnData::Date(v) => {
                assert_eq!(Value::Date(v[t]), oracle_value(page, sel, t, 2))
            }
            other => panic!("col 2: {other:?}"),
        }
        match view.col(3) {
            ColumnData::Str(v) => {
                assert_eq!(Value::Str(v[t].to_string()), oracle_value(page, sel, t, 3))
            }
            other => panic!("col 3: {other:?}"),
        }
    }

    // tuple_bytes (in-place) and row_bytes (materialized) both equal the
    // page row's encoded bytes.
    for (t, &r) in sel.iter().enumerate() {
        assert_eq!(fb.tuple_bytes(t), page.row(r as usize).bytes());
    }
    fb.materialize_rows();
    assert_eq!(fb.is_materialized(), !sel.is_empty());
    for (t, &r) in sel.iter().enumerate() {
        assert_eq!(fb.row_bytes(t), page.row(r as usize).bytes());
        assert_eq!(fb.row_bytes(t), fb.tuple_bytes(t));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every batch view agrees with the per-row oracle on an arbitrary
    /// ascending selection.
    #[test]
    fn views_match_row_oracle(rows in arb_rows(), selbits in prop::collection::vec(any::<bool>(), 120)) {
        let page = build_page(&rows);
        let sel: Vec<u32> = (0..rows.len())
            .filter(|&i| selbits[i])
            .map(|i| i as u32)
            .collect();
        check_views(&page, &sel);
    }

    /// The two extremes: the empty selection yields empty views and no
    /// materialization; the full selection is the identity.
    #[test]
    fn empty_and_full_selections(rows in arb_rows()) {
        let page = build_page(&rows);
        check_views(&page, &[]);
        let full: Vec<u32> = (0..rows.len() as u32).collect();
        check_views(&page, &full);
        assert!(FactBatch::new(page.clone(), full).is_full());
        assert!(FactBatch::all(page.clone()).is_full());
        assert_eq!(FactBatch::all(page.clone()).len(), rows.len());
    }

    /// `retain` compacts selection, query bits and materialized rows
    /// consistently: the survivors' views still match the oracle.
    #[test]
    fn retain_preserves_survivor_views(
        rows in arb_rows(),
        selbits in prop::collection::vec(any::<bool>(), 120),
        keepbits in prop::collection::vec(any::<bool>(), 120),
        materialize_first in any::<bool>(),
    ) {
        let page = build_page(&rows);
        let sel: Vec<u32> = (0..rows.len())
            .filter(|&i| selbits[i])
            .map(|i| i as u32)
            .collect();
        let mut fb = batch_with(&page, &sel);
        if materialize_first {
            fb.materialize_rows();
        }
        let keep: Vec<bool> = (0..sel.len()).map(|t| keepbits[t]).collect();
        let survivors = fb.retain(&keep);
        let expect: Vec<u32> = sel
            .iter()
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|(&r, _)| r)
            .collect();
        prop_assert_eq!(survivors, expect.len());
        prop_assert_eq!(fb.sel(), &expect[..]);
        // the bits that annotated page row r traveled with it
        assert_bits_follow_rows(&fb);
        for (t, &r) in expect.iter().enumerate() {
            prop_assert_eq!(fb.tuple_bytes(t), page.row(r as usize).bytes());
            if materialize_first && !expect.is_empty() {
                prop_assert_eq!(fb.row_bytes(t), page.row(r as usize).bytes());
            }
        }
        // independent fresh views over the compacted batch still agree
        check_views(&page, &expect);
    }

    /// `prefix` is selection slicing: the first n tuples, same page, no
    /// bytes moved.
    #[test]
    fn prefix_is_selection_slicing(
        rows in arb_rows(),
        selbits in prop::collection::vec(any::<bool>(), 120),
        cut in 0usize..1000,
    ) {
        let page = build_page(&rows);
        let sel: Vec<u32> = (0..rows.len())
            .filter(|&i| selbits[i])
            .map(|i| i as u32)
            .collect();
        let fb = batch_with(&page, &sel);
        let n = cut % (sel.len() + 1);
        let p = fb.prefix(n);
        prop_assert_eq!(p.len(), n);
        prop_assert_eq!(p.sel(), &sel[..n]);
        assert_bits_follow_rows(&p);
        prop_assert!(Arc::ptr_eq(p.page(), fb.page()));
        for t in 0..n {
            prop_assert_eq!(p.tuple_bytes(t), fb.tuple_bytes(t));
        }
        // prefix of an unannotated batch stays unannotated
        let bare = FactBatch::new(page.clone(), sel.clone());
        let bp = bare.prefix(n);
        prop_assert_eq!(bp.bits().words(), 0);
        prop_assert!(bp.bits().is_empty());
        prop_assert_eq!(bp.len(), n);
    }

    /// The bit column against the per-tuple oracle through the copies
    /// (`deep_copy`) and through `retain_with`, which
    /// both mutates the surviving tuples' words and drops tuples: every
    /// survivor's words equal its oracle bitmap after the same edit.
    #[test]
    fn bit_column_matches_bitmap_oracle(
        rows in arb_rows(),
        selbits in prop::collection::vec(any::<bool>(), 120),
        clear_slot in 0usize..SLOTS,
        materialize_first in any::<bool>(),
    ) {
        let page = build_page(&rows);
        let sel: Vec<u32> = (0..rows.len())
            .filter(|&i| selbits[i])
            .map(|i| i as u32)
            .collect();
        let mut fb = batch_with(&page, &sel);
        assert_bits_follow_rows(&fb);
        assert_bits_follow_rows(&fb.deep_copy());
        if materialize_first {
            fb.materialize_rows();
        }

        // The join-shaped edit: clear one slot everywhere, drop tuples
        // whose bits reach zero.
        let mut oracle: Vec<(u32, Bitmap)> = Vec::new();
        for &r in &sel {
            let mut bm = annotation(r);
            bm.clear(clear_slot);
            if bm.any() {
                oracle.push((r, bm));
            }
        }
        let mut visited = 0usize;
        let survivors = fb.retain_with(|t, words| {
            assert_eq!(t, visited, "tuples visited in order");
            visited += 1;
            words[clear_slot / 64] &= !(1u64 << (clear_slot % 64));
            words.iter().any(|&w| w != 0)
        });
        prop_assert_eq!(visited, sel.len());
        prop_assert_eq!(survivors, oracle.len());
        for (t, (r, bm)) in oracle.iter().enumerate() {
            prop_assert_eq!(fb.sel()[t], *r);
            prop_assert_eq!(fb.bits().tuple(t), bm.words());
            prop_assert_eq!(fb.tuple_bytes(t), page.row(*r as usize).bytes());
            if materialize_first {
                prop_assert_eq!(fb.row_bytes(t), page.row(*r as usize).bytes());
            }
        }
        prop_assert_eq!(fb.bits().len(), oracle.len());
    }
}
