//! GroupTable oracle proptests — the lock on PR 5's tentpole.
//!
//! Every [`GroupTable`] tier (dense-int `FlatMap`, packed-`u128`,
//! byte-key fallback) must assign exactly the slots the pre-PR-5
//! byte-key `HashMap<Vec<u8>, u32>` registry would have assigned, in the
//! same first-touch order, on arbitrary schemas, keys and selections —
//! including `i64::MIN`/`MAX`, hash-collision-prone key sequences for
//! the open-addressing tiers, and empty/full selections.

use proptest::prelude::*;
use qs_engine::group::{GroupTable, GroupTier, RadixScratch};
use qs_storage::{DataType, FactBatch, Page, Schema, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// The byte-key oracle: the registry shape `run_aggregate` used before
/// the GroupTable swap. First-touch slot order by construction.
struct Oracle {
    spans: Vec<(usize, usize)>,
    lookup: HashMap<Vec<u8>, u32>,
    order: Vec<Vec<u8>>,
}

impl Oracle {
    fn new(group_by: &[usize], schema: &Schema) -> Oracle {
        Oracle {
            spans: group_by
                .iter()
                .map(|&c| (schema.offset(c), schema.dtype(c).width()))
                .collect(),
            lookup: HashMap::new(),
            order: Vec::new(),
        }
    }

    fn resolve(&mut self, page: &Page, rows: &[u32]) -> Vec<u32> {
        let data = page.raw();
        let rs = page.schema().row_size();
        rows.iter()
            .map(|&r| {
                let row = &data[r as usize * rs..(r as usize + 1) * rs];
                let mut key = Vec::new();
                for &(off, w) in &self.spans {
                    key.extend_from_slice(&row[off..off + w]);
                }
                match self.lookup.get(&key) {
                    Some(&s) => s,
                    None => {
                        let s = self.order.len() as u32;
                        self.order.push(key.clone());
                        self.lookup.insert(key, s);
                        s
                    }
                }
            })
            .collect()
    }
}

/// One random column shape per tier family. The value pools include the
/// adversarial corners: `i64::MIN`/`MAX` (sign/byte-order bugs), strided
/// sequences (open-addressing clustering), and duplicate-heavy domains
/// (slot reuse).
#[derive(Debug, Clone)]
struct Shape {
    columns: Vec<DataType>,
    group_by: Vec<usize>,
    expect: GroupTier,
}

fn shapes() -> Vec<Shape> {
    vec![
        // Tier a: single Int group column (with a decoy column around it).
        Shape {
            columns: vec![DataType::Int, DataType::Int],
            group_by: vec![1],
            expect: GroupTier::DenseInt,
        },
        // Tier b: two Ints = exactly 16 bytes.
        Shape {
            columns: vec![DataType::Int, DataType::Int],
            group_by: vec![0, 1],
            expect: GroupTier::Packed,
        },
        // Tier b: mixed narrow widths (Date + Char(3) = 7 bytes),
        // group-by out of schema order.
        Shape {
            columns: vec![DataType::Char(3), DataType::Int, DataType::Date],
            group_by: vec![2, 0],
            expect: GroupTier::Packed,
        },
        // Tier b: single non-Int column (Date, 4 bytes).
        Shape {
            columns: vec![DataType::Date, DataType::Int],
            group_by: vec![0],
            expect: GroupTier::Packed,
        },
        // Tier c: wide Char key.
        Shape {
            columns: vec![DataType::Char(20), DataType::Int],
            group_by: vec![0],
            expect: GroupTier::ByteKey,
        },
        // Tier c: three Ints = 24 bytes, one past the packed boundary.
        Shape {
            columns: vec![DataType::Int, DataType::Int, DataType::Int],
            group_by: vec![0, 1, 2],
            expect: GroupTier::ByteKey,
        },
        // Tier b edge: Float takes the packed path too (raw-byte keys).
        Shape {
            columns: vec![DataType::Float, DataType::Date],
            group_by: vec![0, 1],
            expect: GroupTier::Packed,
        },
    ]
}

/// A value for `dtype` drawn from a small adversarial pool indexed by
/// `pick` — small domains maximize both duplicates and fresh groups.
fn value_for(dtype: DataType, pick: u64) -> Value {
    match dtype {
        DataType::Int => {
            // Pool: corners, strided keys (multiples of a power of two —
            // the classic open-addressing clustering pattern), and a
            // dense small domain.
            let corners = [i64::MIN, i64::MAX, -1, 0, 1, i64::MIN + 1];
            match pick % 3 {
                0 => Value::Int(corners[(pick / 3) as usize % corners.len()]),
                1 => Value::Int(((pick / 3) as i64 % 9) << 32),
                _ => Value::Int((pick / 3) as i64 % 7),
            }
        }
        DataType::Float => {
            let pool = [0.0f64, -0.0, 1.5, -1.5, f64::MAX, f64::MIN_POSITIVE];
            Value::Float(pool[pick as usize % pool.len()])
        }
        DataType::Date => Value::Date(19970101 + (pick as u32 % 11)),
        DataType::Char(n) => {
            // Distinct strings incl. empty (all-padding) and max-width.
            let i = pick % 6;
            let s = match i {
                0 => String::new(),
                1 => "a".repeat(n as usize),
                _ => format!("k{}", i),
            };
            Value::Str(s)
        }
    }
}

fn build_page(shape: &Shape, picks: &[Vec<u64>]) -> (Arc<Schema>, Page) {
    let schema = Schema::new(
        shape
            .columns
            .iter()
            .enumerate()
            .map(|(i, &dt)| qs_storage::Column::new(format!("c{i}"), dt))
            .collect(),
    );
    let rows: Vec<Vec<Value>> = picks
        .iter()
        .map(|row| {
            row.iter()
                .zip(&shape.columns)
                .map(|(&p, &dt)| value_for(dt, p))
                .collect()
        })
        .collect();
    let page = Page::from_values(&schema, &rows).unwrap();
    (schema, page)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// All tiers match the byte-key oracle: identical slot assignment
    /// AND identical first-touch ordering, across multiple batches
    /// against one long-lived table, on arbitrary selections.
    #[test]
    fn tiers_match_bytekey_oracle(
        shape_idx in 0usize..7,
        batches in prop::collection::vec(
            prop::collection::vec(
                prop::collection::vec(any::<u64>(), 1..4), // one row: ≤3 col picks
                0..40,                                      // rows per page
            ),
            1..4,                                           // pages per run
        ),
        sel_mode in 0u8..3,
    ) {
        let shape = shapes()[shape_idx].clone();
        let (probe_schema, _) = build_page(&shape, &[vec![0; shape.columns.len()]]);
        let mut table = GroupTable::compile(&shape.group_by, &probe_schema);
        prop_assert_eq!(table.tier(), shape.expect, "shape {:?}", &shape);
        let mut oracle: Option<Oracle> = None;
        let mut slots = Vec::new();
        for picks in &batches {
            // Normalize row width to the schema's column count.
            let picks: Vec<Vec<u64>> = picks
                .iter()
                .map(|r| {
                    (0..shape.columns.len())
                        .map(|c| r.get(c).copied().unwrap_or(c as u64))
                        .collect()
                })
                .collect();
            let (schema, page) = build_page(&shape, &picks);
            let oracle = oracle.get_or_insert_with(|| Oracle::new(&shape.group_by, &schema));
            // Selection: empty, full, or every-other-row.
            let rows: Vec<u32> = match sel_mode {
                0 => Vec::new(),
                1 => (0..page.rows() as u32).collect(),
                _ => (0..page.rows() as u32).step_by(2).collect(),
            };
            let expect = oracle.resolve(&page, &rows);
            table.resolve_rows(&page, &rows, &mut slots);
            prop_assert_eq!(&slots, &expect, "slot assignment diverged");
            prop_assert_eq!(table.len(), oracle.order.len(), "group count diverged");
            for (g, key) in oracle.order.iter().enumerate() {
                prop_assert_eq!(
                    table.key_bytes(g), &key[..],
                    "first-touch key order diverged at slot {}", g
                );
            }
        }
    }

    /// `resolve_batch` over a FactBatch selection equals `resolve_rows`
    /// over the same rows (the engine-facing entry point adds nothing).
    #[test]
    fn resolve_batch_equals_resolve_rows(
        shape_idx in 0usize..7,
        picks in prop::collection::vec(
            prop::collection::vec(any::<u64>(), 3..4), 1..40),
        keep in prop::collection::vec(any::<bool>(), 40),
    ) {
        let shape = shapes()[shape_idx].clone();
        let picks: Vec<Vec<u64>> = picks
            .iter()
            .map(|r| (0..shape.columns.len())
                .map(|c| r.get(c).copied().unwrap_or(0))
                .collect())
            .collect();
        let (_, page) = build_page(&shape, &picks);
        let page = Arc::new(page);
        let sel: Vec<u32> =
            (0..page.rows() as u32).filter(|&r| keep[r as usize]).collect();
        let fb = FactBatch::new(page.clone(), sel.clone());

        let mut via_batch = GroupTable::compile(&shape.group_by, page.schema());
        let mut a = Vec::new();
        via_batch.resolve_batch(&fb, &mut a);

        let mut via_rows = GroupTable::compile(&shape.group_by, page.schema());
        let mut b = Vec::new();
        via_rows.resolve_rows(&page, &sel, &mut b);

        prop_assert_eq!(a, b);
        prop_assert_eq!(via_batch.len(), via_rows.len());
    }

    /// The radix layout is a true partition: every row lands in exactly
    /// one bucket, and rows with equal group keys share a bucket — the
    /// invariant parallel resolution will rely on.
    #[test]
    fn radix_partition_partitions_by_key(
        shape_idx in 0usize..7,
        picks in prop::collection::vec(
            prop::collection::vec(any::<u64>(), 3..4), 0..60),
    ) {
        let shape = shapes()[shape_idx].clone();
        let picks: Vec<Vec<u64>> = picks
            .iter()
            .map(|r| (0..shape.columns.len())
                .map(|c| r.get(c).copied().unwrap_or(0))
                .collect())
            .collect();
        if picks.is_empty() {
            return Ok(());
        }
        let (schema, page) = build_page(&shape, &picks);
        let table = GroupTable::compile(&shape.group_by, &schema);
        let rows: Vec<u32> = (0..page.rows() as u32).collect();
        let mut scratch = RadixScratch::new();
        table.radix_partition(&page, &rows, &mut scratch);

        let mut seen: Vec<u32> = scratch.buckets.iter().flatten().copied().collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, rows, "buckets must cover each row exactly once");

        let mut oracle = Oracle::new(&shape.group_by, &schema);
        let mut key_bucket: HashMap<Vec<u8>, usize> = HashMap::new();
        for (b, bucket) in scratch.buckets.iter().enumerate() {
            for &r in bucket {
                let slot = oracle.resolve(&page, &[r])[0];
                let key = oracle.order[slot as usize].clone();
                if let Some(&prev) = key_bucket.get(&key) {
                    prop_assert_eq!(prev, b, "equal keys split across buckets");
                } else {
                    key_bucket.insert(key, b);
                }
            }
        }
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// PR 8's lock: parallel bucket resolution + renumbering equals the
    /// single-threaded `resolve_rows` slot-for-slot — same assignment,
    /// same first-touch intern order, same key bytes — on every tier,
    /// across consecutive batches against a long-lived table (so the
    /// merge runs against a pre-populated main table too), at several
    /// pool widths. Batches are sized past [`PARALLEL_MIN_ROWS`] so the
    /// fan-out path genuinely executes (asserted via `pool_tasks`).
    #[test]
    fn parallel_resolution_matches_sequential_slot_for_slot(
        shape_idx in 0usize..7,
        seeds in prop::collection::vec(any::<u64>(), 1..3),
        extra in 0usize..300,
        workers in 2usize..5,
    ) {
        let shape = shapes()[shape_idx].clone();
        let n = qs_engine::PARALLEL_MIN_ROWS + extra;
        let metrics = qs_engine::Metrics::new();
        let pool = qs_engine::WorkerPool::new(workers, metrics.clone());

        let (probe_schema, _) = build_page(&shape, &[vec![0; shape.columns.len()]]);
        let mut seq = GroupTable::compile(&shape.group_by, &probe_schema);
        let mut par = GroupTable::compile(&shape.group_by, &probe_schema);
        let mut pscratch = qs_engine::ParallelScratch::new();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for &seed in &seeds {
            let picks: Vec<Vec<u64>> = (0..n as u64)
                .map(|i| {
                    (0..shape.columns.len() as u64)
                        .map(|c| splitmix(seed ^ splitmix(i ^ (c << 40))))
                        .collect()
                })
                .collect();
            let (_, page) = build_page(&shape, &picks);
            let rows: Vec<u32> = (0..page.rows() as u32).collect();
            seq.resolve_rows(&page, &rows, &mut a);
            par.resolve_rows_parallel(&page, &rows, &pool, &mut pscratch, &mut b)
                .expect("no faults armed");
            prop_assert_eq!(&a, &b, "slot assignment diverged (workers {})", workers);
            prop_assert_eq!(seq.len(), par.len(), "group count diverged");
            for g in 0..seq.len() {
                prop_assert_eq!(
                    seq.key_bytes(g), par.key_bytes(g),
                    "first-touch key order diverged at slot {}", g
                );
            }
        }
        prop_assert!(
            metrics.snapshot().pool_tasks > 0,
            "the parallel path never fanned out"
        );
    }
}

/// Deterministic corner: a long strided i64 sequence (every key hits a
/// different multiple of 2^32) plus the extremes, resolved in one batch —
/// the dense-int tier must intern them all distinctly and in order.
#[test]
fn dense_int_adversarial_keys() {
    let schema = Schema::from_pairs(&[("g", DataType::Int)]);
    let mut keys: Vec<i64> = (0..2_000i64).map(|i| i << 32).collect();
    keys.push(i64::MIN);
    keys.push(i64::MAX);
    keys.push(i64::MIN + 1);
    let rows: Vec<Vec<Value>> = keys.iter().map(|&k| vec![Value::Int(k)]).collect();
    let page = Page::from_values(&schema, &rows).unwrap();
    let all: Vec<u32> = (0..page.rows() as u32).collect();

    let mut table = GroupTable::compile(&[0], &schema);
    assert_eq!(table.tier(), GroupTier::DenseInt);
    let mut slots = Vec::new();
    table.resolve_rows(&page, &all, &mut slots);
    // All keys distinct → slots are exactly first-touch order 0..n.
    assert_eq!(slots, all);
    assert_eq!(table.len(), keys.len());
    for (g, &k) in keys.iter().enumerate() {
        assert_eq!(table.key_bytes(g), &k.to_le_bytes());
    }
    // A second pass resolves identically without growing the table.
    table.resolve_rows(&page, &all, &mut slots);
    assert_eq!(slots, all);
    assert_eq!(table.len(), keys.len());
}

/// Deterministic corner: packed tier with a key of exactly 16 bytes
/// whose halves collide pairwise (same low half, different high half and
/// vice versa) — u128 packing must keep them distinct.
#[test]
fn packed_boundary_and_half_collisions() {
    let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]);
    let pairs: [(i64, i64); 6] = [
        (0, 0),
        (0, 1),
        (1, 0),
        (i64::MIN, i64::MAX),
        (i64::MAX, i64::MIN),
        (0, 0), // dup of the first
    ];
    let rows: Vec<Vec<Value>> = pairs
        .iter()
        .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
        .collect();
    let page = Page::from_values(&schema, &rows).unwrap();
    let mut table = GroupTable::compile(&[0, 1], &schema);
    assert_eq!(table.tier(), GroupTier::Packed);
    let mut slots = Vec::new();
    table.resolve_rows(&page, &(0..6).collect::<Vec<_>>(), &mut slots);
    assert_eq!(slots, vec![0, 1, 2, 3, 4, 0]);
    assert_eq!(table.len(), 5);
}

/// Empty selection interns nothing on any tier; full selection equals
/// the oracle (smoke-level duplicate of the property, kept cheap and
/// deterministic for `cargo test` greps).
#[test]
fn empty_and_full_selections() {
    for shape in shapes() {
        let picks: Vec<Vec<u64>> = (0..16u64)
            .map(|i| (0..shape.columns.len() as u64).map(|c| i * 3 + c).collect())
            .collect();
        let (schema, page) = build_page(&shape, &picks);
        let mut table = GroupTable::compile(&shape.group_by, &schema);
        let mut slots = Vec::new();
        table.resolve_rows(&page, &[], &mut slots);
        assert!(slots.is_empty());
        assert!(table.is_empty(), "{:?}", shape.expect);

        let all: Vec<u32> = (0..page.rows() as u32).collect();
        let mut oracle = Oracle::new(&shape.group_by, &schema);
        let expect = oracle.resolve(&page, &all);
        table.resolve_rows(&page, &all, &mut slots);
        assert_eq!(slots, expect, "{:?}", shape.expect);
    }
}
