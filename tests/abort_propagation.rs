//! Abort propagation, end to end: a fault injected at a channel boundary
//! deep inside a plan (FIFO push, SPL append) must surface at the *root
//! ticket* as a typed [`EngineError::Aborted`] in every execution mode —
//! and a CJOIN early removal (cancellation) must leave co-running queries
//! byte-identical to an undisturbed run.
//!
//! The failpoint registry is process-global; every test holds
//! [`fault::test_guard`].

mod plan_gen;

use plan_gen::{env_u64, gen_plan, Samples};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sharing_repro::engine::reference;
use sharing_repro::prelude::*;
use sharing_repro::storage::fault;
use std::sync::Arc;

fn build_catalog(seed: u64) -> Arc<Catalog> {
    let catalog = Catalog::new();
    generate_ssb(
        &catalog,
        &SsbConfig {
            scale: 0.0005,
            seed,
            page_bytes: 4 * 1024,
            layout: PageLayout::Row,
        },
    );
    catalog
}

/// A star aggregate that flows rows through every layer: fact scan with a
/// predicate, one dimension join, grouped aggregation.
fn star_agg_plan(catalog: &Catalog, lo: i64, hi: i64) -> LogicalPlan {
    PlanBuilder::scan(catalog, "lineorder")
        .expect("fact scan")
        .filter(Expr::between(
            catalog
                .get("lineorder")
                .expect("lineorder")
                .schema()
                .index_of("lo_quantity")
                .expect("lo_quantity"),
            lo,
            hi,
        ))
        .expect("filter")
        .join_dim("date", "lo_orderdate", "d_datekey", None)
        .expect("dim join")
        .aggregate(&["d_year"], vec![AggSpec::new(AggFunc::Count, "n")])
        .expect("aggregate")
        .build()
        .expect("plan")
}

/// A channel abort injected under every mode's transport reaches the root
/// ticket as `Aborted` naming the failpoint — never a hang, never a
/// mangled `Ok`.
#[test]
fn channel_abort_reaches_root_ticket_as_aborted_in_all_modes() {
    let _guard = fault::test_guard();
    fault::disarm();
    let seed = env_u64("CHAOS_SEED", 0xAB0_2026);
    eprintln!("abort_propagation: CHAOS_SEED={seed}");
    let catalog = build_catalog(seed ^ 0x55B);

    let plan = star_agg_plan(&catalog, 0, i64::MAX);

    for mode in ExecutionMode::all() {
        let db = SharingDb::new(catalog.clone(), DbConfig::new(mode)).expect("db");
        // Certain abort on BOTH channel kinds: whichever transport the
        // mode uses (push FIFOs, pull SPLs, CJOIN's distributor hubs),
        // the first delivery attempt dies. `after: 0` means no grace.
        fault::arm(
            seed,
            &[
                ("fifo.push.abort", fault::FaultSpec::prob(1.0)),
                ("spl.append.abort", fault::FaultSpec::prob(1.0)),
            ],
        );
        let outcome = db.submit(&plan).and_then(|t| t.collect_rows());
        let fired = fault::fired_total();
        fault::disarm();
        assert!(
            fired > 0,
            "{mode:?}: some injected abort must actually have fired"
        );
        match outcome {
            Err(EngineError::Aborted(msg)) => assert!(
                msg.contains("injected fault") || msg.contains("abort"),
                "{mode:?}: abort cause should name the injected fault: {msg}"
            ),
            // A mode may fail at submit time (e.g. CJOIN admission
            // replaying through a dead pipeline) — still typed, still ok?
            // No: with only channel aborts armed, admission succeeds and
            // the failure must be the stream abort.
            other => panic!("{mode:?}: expected Aborted, got {other:?}"),
        }
    }
}

/// Direct (non-failpoint) producer aborts: `FifoBuffer::abort` and
/// `SharedPagesList::abort` surface the producer's cause at their readers.
#[test]
fn direct_fifo_and_spl_aborts_surface_cause() {
    use sharing_repro::engine::{BatchSource, FifoBuffer, SharedPagesList};

    let _guard = fault::test_guard();
    fault::disarm();

    let (fifo, mut reader) = FifoBuffer::channel(4);
    fifo.abort("producer died".to_string());
    match reader.next_batch() {
        Err(EngineError::Aborted(msg)) => assert!(msg.contains("producer died")),
        other => panic!("fifo reader saw {other:?}"),
    }

    let spl = SharedPagesList::new();
    spl.abort("spl producer died".to_string());
    let mut reader = spl.reader();
    match reader.next_batch() {
        Err(EngineError::Aborted(msg)) => assert!(msg.contains("spl producer died")),
        other => panic!("spl reader saw {other:?}"),
    }
}

/// CJOIN early removal: cancelling one GQP query mid-revolution frees its
/// slot without perturbing co-runners — their rows are *byte-identical*
/// to a run where the victim never existed.
#[test]
fn cjoin_early_removal_leaves_corunners_byte_identical() {
    let _guard = fault::test_guard();
    fault::disarm();
    let seed = env_u64("CHAOS_SEED", 0xAB0_2026) ^ 0xEE;
    eprintln!("abort_propagation: early-removal seed={seed}");
    let catalog = build_catalog(seed ^ 0x55B);
    let samples = Samples::new(catalog.clone());

    // Eight deterministic co-runner plans (mix of generator output and a
    // guaranteed-star plan so the CJOIN pipeline is definitely engaged).
    let mut plans = vec![star_agg_plan(&catalog, 10, 40)];
    let mut case = 0u64;
    while plans.len() < 8 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(case));
        case += 1;
        let (plan, _) = gen_plan(&mut rng, &samples);
        plans.push(plan);
    }
    let victim = star_agg_plan(&catalog, 0, 25);

    let run = |disturb: bool| -> Vec<Vec<Vec<Value>>> {
        let db = SharingDb::new(catalog.clone(), DbConfig::new(ExecutionMode::Gqp)).expect("db");
        let mut tickets = Vec::new();
        for (i, plan) in plans.iter().enumerate() {
            tickets.push(db.submit(plan).expect("co-runner"));
            if disturb && i == 3 {
                // Victim enters mid-pack and is cancelled immediately:
                // its CJOIN admission is removed early, mid-revolution.
                let v = db.submit(&victim).expect("victim");
                v.cancel();
                assert_eq!(
                    v.collect_rows().err(),
                    Some(EngineError::Cancelled),
                    "victim must surface Cancelled"
                );
            }
        }
        tickets
            .into_iter()
            .map(|t| reference::canon(t.collect_rows().expect("co-runner rows")))
            .collect()
    };

    let baseline = run(false);
    let disturbed = run(true);
    for (i, (a, b)) in baseline.iter().zip(&disturbed).enumerate() {
        assert_eq!(
            a, b,
            "co-runner {i} diverged after the victim's early removal"
        );
    }

    // And the oracle agrees with both.
    for (plan, got) in plans.iter().zip(baseline) {
        let expected = reference::eval(plan, &catalog).expect("oracle");
        assert_eq!(got, reference::canon(expected));
    }
}

/// Read-ahead on a disk-resident CJOIN scan: a `disk.read` fault drawn by
/// a read-ahead load is dropped (the scan then reads the page itself),
/// while one drawn by the scan's own read aborts exactly the queries of
/// the revolution with the typed "fact page … unreadable" cause, and the
/// pipeline lives on.
#[test]
fn cjoin_fact_read_faults_reach_queries_only_through_the_scan() {
    let _guard = fault::test_guard();
    fault::disarm();
    let seed = env_u64("CHAOS_SEED", 0xAB0_2026) ^ 0xDD;
    eprintln!("abort_propagation: read-ahead fault seed={seed}");
    let catalog = build_catalog(seed ^ 0x55B);
    let fact_pages = catalog.get("lineorder").expect("lineorder").page_count();
    let mut cfg = DbConfig::new(ExecutionMode::Gqp);
    cfg.disk = DiskConfig {
        spindles: 4,
        latency: std::time::Duration::from_micros(50),
    };
    cfg.buffer_pool_pages = Some(fact_pages / 4);
    let db = SharingDb::new(catalog.clone(), cfg).expect("db");
    assert!(db.pool().read_ahead_window() > 0, "{fact_pages} fact pages");
    let plans = [star_agg_plan(&catalog, 0, 25), star_agg_plan(&catalog, 10, 40)];
    let expected: Vec<_> = plans
        .iter()
        .map(|p| reference::canon(reference::eval(p, &catalog).expect("oracle")))
        .collect();
    let is_unreadable_page =
        |msg: &str| msg.contains("fact page") && msg.contains("unreadable");

    // Every read fails: the scan's own read of its first page aborts both
    // queries of the revolution with the typed cause.
    fault::arm(seed, &[("disk.read", fault::FaultSpec::prob(1.0))]);
    let tickets: Vec<_> = plans.iter().map(|p| db.submit(p).expect("submit")).collect();
    for t in tickets {
        match t.collect_rows() {
            Err(EngineError::Aborted(msg)) => assert!(is_unreadable_page(&msg), "{msg}"),
            other => panic!("expected a fact-page abort, got {other:?}"),
        }
    }
    fault::disarm();

    // Sparse faults, one query at a time: each query matches the oracle
    // or was aborted by a fault that its own scan drew — so the failed
    // queries count exactly the scan's faults. Read-ahead loads most
    // pages and draws most faults; were any of those to reach a query,
    // as many queries would fail as faults fired.
    fault::arm(seed, &[("disk.read", fault::FaultSpec::prob(0.05))]);
    let mut failed = 0u64;
    for i in 0..8 {
        let t = db.submit(&plans[i % 2]).expect("submit");
        match t.collect_rows() {
            Ok(rows) => assert_eq!(reference::canon(rows), expected[i % 2], "query {i}"),
            Err(EngineError::Aborted(msg)) if is_unreadable_page(&msg) => failed += 1,
            Err(e) => panic!("query {i}: unexpected error {e:?}"),
        }
    }
    let fired = fault::fired("disk.read");
    fault::disarm();
    eprintln!("abort_propagation: {fired} fact reads failed, {failed} queries aborted");
    assert!(fired > failed, "{fired} faults fired, {failed} queries failed");

    // The pipeline survived both storms.
    for (plan, want) in plans.iter().zip(&expected) {
        let rows = db.submit(plan).expect("submit").collect_rows().expect("rows");
        assert_eq!(&reference::canon(rows), want);
    }
}
