//! The tentpole measurement behind PR 5: group-key → dense-slot
//! resolution, tiered vs the byte-key baseline it replaced.
//!
//! One shared fact-shaped table is scanned page-at-a-time for N
//! concurrent grouped-aggregation queries; each query resolves every
//! tuple's group key to a dense slot — exactly the per-tuple loop at the
//! head of `run_aggregate`. Two resolvers run over identical work:
//!
//! * **grouptable** — `qs_engine::group::GroupTable` picks a tier per
//!   key shape: single-`Int` keys probe a flat open-addressing
//!   `FlatMap<i64>` read in place from the page bytes, ≤16-byte
//!   multi-column keys pack into a `u128`, wide keys fall back to the
//!   byte-key `HashMap` with a reused extraction scratch.
//! * **bytekey** — the pre-PR-5 registry: `Vec::with_capacity(key_size)`
//!   per tuple + `HashMap<Vec<u8>, u32>` probe, first-touch slot order.
//!
//! Both sides produce the identical slot vector (checksummed), so the
//! measured delta is exactly the resolution machinery. The acceptance
//! bar: the dense-int tier ≥2× the byte-key baseline at 32 concurrent
//! queries.

use qs_engine::group::GroupTable;
use qs_storage::{DataType, Page, PageBuilder, Schema, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Fact-shaped schema: a dense-int group key, two narrow side keys (the
/// packed shape), a wide key (the fallback shape), and a measure.
pub fn schema() -> Arc<Schema> {
    Schema::from_pairs(&[
        ("g", DataType::Int),        // dense tier key
        ("h", DataType::Int),        // with g: packed 16-byte key
        ("wide", DataType::Char(24)), // byte-key tier key
        ("v", DataType::Int),
    ])
}

/// Group-by shapes the sweep resolves, one per tier.
pub const SHAPE_DENSE: &[usize] = &[0];
pub const SHAPE_PACKED: &[usize] = &[0, 1];
pub const SHAPE_WIDE: &[usize] = &[2];

/// Deterministic fact pages: `g` over `groups` distinct keys (spread
/// across the i64 domain so the probe is not trivially cache-resident at
/// slot 0), `h` over a small co-domain, `wide` over `groups` strings.
pub fn make_pages(
    pages: usize,
    rows_per_page: usize,
    groups: usize,
    seed: u64,
) -> Vec<Arc<Page>> {
    let s = schema();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..pages)
        .map(|_| {
            let mut b =
                PageBuilder::with_bytes(s.clone(), rows_per_page * s.row_size() + 64);
            for _ in 0..rows_per_page {
                let g = rng.random_range(0..groups as i64);
                let ok = b
                    .push_values(&[
                        Value::Int(g.wrapping_mul(0x9E37_79B9)), // spread keys
                        Value::Int(rng.random_range(0..7)),
                        Value::Str(format!("wide-group-key-str-{g:04}")),
                        Value::Int(rng.random_range(0..1000)),
                    ])
                    .expect("row fits");
                assert!(ok);
            }
            Arc::new(b.finish())
        })
        .collect()
}

/// One pass of the tiered resolver: every query resolves every page's
/// rows through its own `GroupTable` (fresh per pass, as an operator's
/// registry is fresh per query). Returns a slot checksum.
pub fn pass_grouptable(pages: &[Arc<Page>], queries: usize, group_by: &[usize]) -> u64 {
    let s = schema();
    let mut tables: Vec<GroupTable> =
        (0..queries).map(|_| GroupTable::compile(group_by, &s)).collect();
    let mut slots: Vec<u32> = Vec::new();
    let mut sum = 0u64;
    for page in pages {
        let rows: Vec<u32> = (0..page.rows() as u32).collect();
        for t in &mut tables {
            t.resolve_rows(page, &rows, &mut slots);
            sum = slots.iter().fold(sum, |a, &s| a.wrapping_add(s as u64));
        }
    }
    sum
}

/// One pass of the pre-PR-5 registry: per-tuple key `Vec` allocation +
/// byte-key `HashMap` probe, first-touch slot order.
pub fn pass_bytekey(pages: &[Arc<Page>], queries: usize, group_by: &[usize]) -> u64 {
    let s = schema();
    let spans: Vec<(usize, usize)> = group_by
        .iter()
        .map(|&c| (s.offset(c), s.dtype(c).width()))
        .collect();
    let key_size: usize = spans.iter().map(|&(_, w)| w).sum();
    let mut lookups: Vec<HashMap<Vec<u8>, u32>> =
        (0..queries).map(|_| HashMap::new()).collect();
    let mut orders: Vec<Vec<Vec<u8>>> = (0..queries).map(|_| Vec::new()).collect();
    let rs = s.row_size();
    let mut sum = 0u64;
    for page in pages {
        let raw = page.raw();
        for (lookup, order) in lookups.iter_mut().zip(&mut orders) {
            for r in 0..page.rows() {
                let row = &raw[r * rs..(r + 1) * rs];
                let mut key = Vec::with_capacity(key_size);
                for &(off, w) in &spans {
                    key.extend_from_slice(&row[off..off + w]);
                }
                let slot = match lookup.get(key.as_slice()) {
                    Some(&s) => s,
                    None => {
                        let s = order.len() as u32;
                        order.push(key.clone());
                        lookup.insert(key, s);
                        s
                    }
                };
                sum = sum.wrapping_add(slot as u64);
            }
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both resolvers assign identical slots on every shape — the bench
    /// compares equal work.
    #[test]
    fn resolvers_agree() {
        let pages = make_pages(4, 64, 16, 9);
        for shape in [SHAPE_DENSE, SHAPE_PACKED, SHAPE_WIDE] {
            for q in [1usize, 3] {
                assert_eq!(
                    pass_grouptable(&pages, q, shape),
                    pass_bytekey(&pages, q, shape),
                    "{shape:?} × {q} queries"
                );
            }
        }
    }
}
