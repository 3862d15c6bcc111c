//! Differential five-mode fuzzer: a seeded random plan generator
//! (filters × joins × group-bys over the SSB star schema) asserting that
//! every execution mode — QueryCentric, SP-push, SP-pull, GQP, GQP+SP —
//! produces identical (sorted) results, pinned to the serial reference
//! evaluator. This is the acceptance harness for the batch-currency
//! engine dataflow: any operator that mishandles a selection vector
//! diverges from the oracle on some seed.
//!
//! Since PR 5 it is also the acceptance harness for tiered group-slot
//! resolution: the generator steers ≥½ of plans onto a GROUP BY whose
//! key shape is drawn from all three `GroupTable` tiers (single-`Int`
//! dense, ≤16-byte packed, wide byte-key fallback), and the run *fails*
//! unless every tier was actually generated — coverage is asserted, not
//! hoped for.
//!
//! Since PR 10 the fuzzer is also the mode router's oracle: a routed
//! (`ExecutionMode::Auto`) database runs every seed alongside the five
//! fixed modes and must match them byte-for-byte no matter which route
//! it picks.
//!
//! Budget: `MODE_DIFF_CASES` seeds (default 50), base seed
//! `MODE_DIFF_SEED` (default below) — both env-overridable, and every
//! failure message names the seed that produced the plan.

mod plan_gen;

use plan_gen::{env_u64, gen_plan, Samples};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sharing_repro::engine::group::GroupTier;
use sharing_repro::engine::reference;
use sharing_repro::prelude::*;

#[test]
fn five_modes_agree_on_seeded_random_plans() {
    run_fuzzer(1);
}

/// Since PR 8 the same fuzzer also runs with the morsel worker pool on:
/// parallel group resolution, parallel shared scans and the parallel
/// CJOIN preprocessor must all be invisible in the output — every mode
/// stays pinned to the serial oracle at `workers = 4`.
#[test]
fn five_modes_agree_with_worker_pool() {
    run_fuzzer(4);
}

fn run_fuzzer(workers: usize) {
    let cases = env_u64("MODE_DIFF_CASES", 50);
    let base_seed = env_u64("MODE_DIFF_SEED", 0xD1FF_2026);
    eprintln!(
        "mode_differential: MODE_DIFF_CASES={cases} MODE_DIFF_SEED={base_seed} \
         workers={workers}"
    );

    // Since PR 6 every seed runs against BOTH page layouts: the same
    // logical dataset stored row-major and columnar (dict/RLE-encoded)
    // must yield byte-identical canonical rows in all five modes. Any
    // layout-dependent read path (dict-code predicates, columnar group
    // resolution, stride gathers) that diverges fails on a named seed.
    let mut stars = 0usize;
    let mut grouped = 0usize;
    // Per-tier plan tally, indexed DenseInt / Packed / ByteKey (tallied
    // once — the plan stream is identical across layouts).
    let mut tier_counts = [0usize; 3];
    let mut layouts_run = 0usize;
    for layout in [PageLayout::Row, PageLayout::Column] {
        let catalog = Catalog::new();
        generate_ssb(
            &catalog,
            &SsbConfig {
                scale: 0.0005,
                seed: base_seed ^ 0x55B,
                page_bytes: 4 * 1024,
                layout,
            },
        );
        // The layout knob must actually reach the stored pages.
        let fact = catalog.get("lineorder").expect("lineorder");
        assert_eq!(fact.raw_page(0).layout(), layout, "fact table layout");
        layouts_run += 1;
        let samples = Samples::new(catalog.clone());

        // One database per mode, built once and reused across every seed
        // (the GQP pipelines stay warm, as they would in the demo).
        // Since PR 10 the routed AUTO database joins the five fixed modes
        // (the mode router must be invisible in output no matter which
        // mode it picks per seed).
        let mut dbs: Vec<(String, SharingDb)> = ExecutionMode::all()
            .into_iter()
            .map(|mode| {
                (
                    format!("{mode:?}"),
                    SharingDb::new(
                        catalog.clone(),
                        DbConfig {
                            workers,
                            ..DbConfig::new(mode)
                        },
                    )
                    .expect("db"),
                )
            })
            .collect();
        dbs.push((
            "Auto(routed)".to_string(),
            SharingDb::new(
                catalog.clone(),
                DbConfig {
                    workers,
                    ..DbConfig::new(ExecutionMode::Auto)
                },
            )
            .expect("auto db"),
        ));

        for case in 0..cases {
            let seed = base_seed.wrapping_add(case);
            let mut rng = StdRng::seed_from_u64(seed);
            let (plan, tier) = gen_plan(&mut rng, &samples);
            if layout == PageLayout::Row {
                if let Some(tier) = tier {
                    grouped += 1;
                    tier_counts[match tier {
                        GroupTier::DenseInt => 0,
                        GroupTier::Packed => 1,
                        GroupTier::ByteKey => 2,
                    }] += 1;
                }
                if StarQuery::detect(&plan, &catalog).is_some() {
                    stars += 1;
                }
            }
            let expected = reference::eval(&plan, &catalog).unwrap_or_else(|e| {
                panic!("oracle failed (seed {seed}, {layout}): {e}\n{plan:?}")
            });
            for (mode, db) in &dbs {
                let rows = db
                    .submit(&plan)
                    .and_then(|t| t.collect_rows())
                    .unwrap_or_else(|e| {
                        panic!("{mode} failed (seed {seed}, {layout}): {e}\n{plan:?}")
                    });
                // assert_rows_match canonicalizes (sorts) both sides, so
                // this is the "identical sorted results" check; it panics
                // with the first differing cell. Wrap to name the seed.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    reference::assert_rows_match(rows, expected.clone(), 1e-9);
                }));
                if let Err(p) = result {
                    panic!(
                        "{mode} diverged from the oracle (seed {seed}, \
                         {layout} layout):\n{plan:?}\n{:?}",
                        p.downcast_ref::<String>()
                    );
                }
            }
        }

        let (_, gqp_db) = dbs
            .iter()
            .find(|(m, _)| m == "Gqp")
            .expect("GQP db");
        assert!(
            gqp_db.metrics().packets[StageKind::Cjoin as usize] > 0,
            "no plan ever reached the CJOIN stage ({layout} layout)"
        );
        // The routed database must actually have routed: every submitted
        // plan got a decision, and with star queries plentiful (asserted
        // below) and no admission gate the router's default is to share.
        let (_, auto_db) = dbs
            .iter()
            .find(|(m, _)| m == "Auto(routed)")
            .expect("auto db");
        let routes = auto_db.router_stats();
        assert_eq!(
            routes.total(),
            cases,
            "routed db decided {} of {cases} submissions ({layout} layout)",
            routes.total()
        );
        assert!(
            routes.gqp_sp > 0,
            "the router never picked a GQP route across {cases} seeds \
             ({layout} layout): {routes:?}"
        );
    }
    assert_eq!(layouts_run, 2, "both page layouts must be exercised");

    // The generator must actually exercise the GQP path: a healthy share
    // of plans are CJOIN-admissible star queries.
    assert!(
        stars * 4 >= cases as usize,
        "only {stars}/{cases} generated plans were star queries"
    );
    // …and the tiered group-slot resolution this fuzzer is the acceptance
    // harness for: at least half the plans carry a GROUP BY, and every
    // GroupTable tier was generated — an assertion, not a hope. Skipped
    // under tiny budgets so the documented single-seed repro workflow
    // (`MODE_DIFF_CASES=1 MODE_DIFF_SEED=<failing seed>`) keeps working;
    // the CI budget (50) always asserts.
    eprintln!(
        "mode_differential: grouped={grouped}/{cases} \
         tiers dense={} packed={} bytekey={}",
        tier_counts[0], tier_counts[1], tier_counts[2]
    );
    if cases >= 20 {
        assert!(
            grouped * 2 >= cases as usize,
            "only {grouped}/{cases} generated plans carried a GROUP BY"
        );
        for (tier, count) in ["DenseInt", "Packed", "ByteKey"]
            .iter()
            .zip(tier_counts)
        {
            assert!(
                count > 0,
                "no generated plan exercised the {tier} group-resolution tier \
                 (seeds {base_seed}..{})",
                base_seed + cases
            );
        }
    }
}
