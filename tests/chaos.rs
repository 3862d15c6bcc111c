//! Seeded chaos harness — the keystone of the fault-isolation work.
//!
//! Random plans from the five-mode generator run concurrently while a
//! chaos driver cancels some mid-flight, arms storage/channel failpoints,
//! and mixes in known-poisoned plans (an aggregate named
//! [`fault::POISON_AGG_NAME`] panics deliberately inside the operator).
//! The invariants, in order of importance:
//!
//! 1. **The process survives.** A panic anywhere in a stage body degrades
//!    to one failed ticket, never a dead worker pool or a hung reader.
//! 2. **Every ticket terminates** — with rows or with a *typed* error
//!    (`Aborted` / `Cancelled` / `DeadlineExceeded` / `Storage`), never a
//!    deadlock.
//! 3. **Unaffected queries are oracle-exact.** Sharing must not leak one
//!    query's fault into a co-runner's results: any ticket that returns
//!    `Ok` must match the serial reference evaluator bit-for-bit.
//!
//! Budget knobs (both env-overridable, seeds always logged so a CI
//! failure replays locally): `CHAOS_SEED` (base seed) and `CHAOS_ROUNDS`
//! (failpoint-storm rounds per mode).
//!
//! The failpoint registry is process-global, so every test here holds
//! [`fault::test_guard`] for its whole body.

mod plan_gen;

use plan_gen::{env_u64, gen_plan, Samples};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sharing_repro::engine::reference;
use sharing_repro::prelude::*;
use sharing_repro::storage::fault;
use std::sync::Arc;
use std::time::Duration;

fn chaos_seed() -> u64 {
    env_u64("CHAOS_SEED", 0xC4A0_2026)
}

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

/// The known-poisoned plan: sharable-shaped (plain fact aggregate) but
/// unsharable by construction — the poison aggregate name is part of the
/// plan signature, so SP never attaches a healthy subscriber to it.
fn poison_plan() -> LogicalPlan {
    LogicalPlan::Aggregate {
        input: Box::new(LogicalPlan::Scan {
            table: "lineorder".into(),
            predicate: None,
            projection: None,
        }),
        group_by: Vec::new(),
        aggs: vec![AggSpec::new(AggFunc::Count, fault::POISON_AGG_NAME)],
    }
}

fn oracle_match(mode: ExecutionMode, seed: u64, rows: Vec<Vec<Value>>, expected: &[Vec<Value>]) {
    let check = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        reference::assert_rows_match(rows, expected.to_vec(), 1e-9);
    }));
    if let Err(p) = check {
        panic!(
            "{mode:?} co-runner diverged from the oracle (seed {seed}): {:?}",
            p.downcast_ref::<String>()
        );
    }
}

/// Acceptance gate of the issue: one deliberately panicking plan runs
/// alongside 31 healthy queries in the shared modes; exactly the poisoned
/// ticket fails (`Aborted`), every co-runner stays oracle-identical, and
/// the containment is observable in `panics_contained`.
#[test]
fn poisoned_plan_aborts_alone_among_31_healthy_queries() {
    poisoned_plan_round(1);
}

/// The same round with the morsel pool on: group resolution, shared scans
/// and the CJOIN preprocessor all fan out as pool tasks, and the panic
/// belt must hold exactly as it does single-threaded.
#[test]
fn poisoned_plan_aborts_alone_with_worker_pool() {
    poisoned_plan_round(4);
}

fn poisoned_plan_round(workers: usize) {
    let _guard = fault::test_guard();
    fault::disarm();
    let base_seed = chaos_seed();
    eprintln!("chaos: poisoned-plan round, CHAOS_SEED={base_seed} workers={workers}");

    let catalog = build_catalog(base_seed ^ 0x55B);
    let samples = Samples::new(catalog.clone());

    // 31 healthy plans + their oracles, computed before faults are armed.
    let mut healthy = Vec::new();
    for case in 0..31u64 {
        let mut rng = StdRng::seed_from_u64(base_seed.wrapping_add(case));
        let (plan, _) = gen_plan(&mut rng, &samples);
        let seed = base_seed.wrapping_add(case);
        let expected = reference::eval(&plan, &catalog)
            .unwrap_or_else(|e| panic!("oracle failed (seed {seed}): {e}"));
        healthy.push((seed, plan, expected));
    }
    let poison = poison_plan();

    // `Auto` rides along since PR 10: the routed round must contain the
    // poison exactly like a fixed mode no matter which route each of the
    // 32 queries takes.
    for mode in [
        ExecutionMode::Gqp,
        ExecutionMode::GqpSp,
        ExecutionMode::SpPush,
        ExecutionMode::SpPull,
        ExecutionMode::Auto,
    ] {
        let db = SharingDb::new(
            catalog.clone(),
            DbConfig {
                workers,
                ..DbConfig::new(mode)
            },
        )
        .expect("db");

        // Arm with an empty failpoint set: `armed()` flips on (which is
        // what triggers the poison sentinel) but no probabilistic fault
        // ever fires — the only fault in play is the poisoned plan.
        fault::arm(base_seed, &[]);

        // Submit everything up front (maximal sharing window), poison in
        // the middle of the pack, then drain tickets on worker threads so
        // bounded push-mode buffers never deadlock the submitter.
        let mut handles = Vec::new();
        for (i, (_, plan, _)) in healthy.iter().enumerate() {
            if i == 13 {
                let t = db.submit(&poison).expect("submit poison");
                handles.push((None, std::thread::spawn(move || t.collect_rows())));
            }
            let t = db.submit(plan).expect("submit healthy");
            handles.push((Some(i), std::thread::spawn(move || t.collect_rows())));
        }

        let mut aborted = 0usize;
        for (idx, h) in handles {
            let result = h.join().expect("drain thread never panics");
            match (idx, result) {
                (Some(i), Ok(rows)) => {
                    let (seed, _, expected) = &healthy[i];
                    oracle_match(mode, *seed, rows, expected);
                }
                (Some(i), Err(e)) => {
                    panic!("{mode:?} healthy co-runner {i} failed: {e}")
                }
                (None, Ok(_)) => panic!("{mode:?} poisoned plan returned rows"),
                (None, Err(EngineError::Aborted(msg))) => {
                    aborted += 1;
                    assert!(
                        msg.contains("panic"),
                        "{mode:?} abort cause should name the panic: {msg}"
                    );
                }
                (None, Err(e)) => panic!("{mode:?} poisoned plan: wrong error {e}"),
            }
        }
        fault::disarm();

        assert_eq!(aborted, 1, "{mode:?}: exactly the poisoned ticket aborts");
        let m = db.metrics();
        assert!(
            m.panics_contained >= 1,
            "{mode:?}: containment must be observable (panics_contained = {})",
            m.panics_contained
        );
    }
}

/// Cancellation and deadlines surface as typed errors at the ticket, are
/// counted, and never disturb untouched co-runners.
#[test]
fn cancel_and_deadline_are_typed_counted_and_isolated() {
    let _guard = fault::test_guard();
    fault::disarm();
    let base_seed = chaos_seed() ^ 0xB;
    eprintln!("chaos: cancel/deadline round, seed={base_seed}");

    let catalog = build_catalog(base_seed ^ 0x55B);
    let samples = Samples::new(catalog.clone());
    let mut rng = StdRng::seed_from_u64(base_seed);
    let (plan, _) = gen_plan(&mut rng, &samples);
    let expected = reference::eval(&plan, &catalog).expect("oracle");

    for mode in ExecutionMode::all() {
        let db = SharingDb::new(catalog.clone(), DbConfig::new(mode)).expect("db");

        // Cancel before draining: the ticket observes `Cancelled` at its
        // first batch boundary, co-runner untouched.
        let victim = db.submit(&plan).expect("submit victim");
        let witness = db.submit(&plan).expect("submit witness");
        victim.cancel();
        assert_eq!(
            victim.collect_rows().err(),
            Some(EngineError::Cancelled),
            "{mode:?}: cancelled ticket must surface Cancelled"
        );
        oracle_match(mode, base_seed, witness.collect_rows().expect("witness"), &expected);

        // Cancel mid-flight from another thread via the clonable handle:
        // the ticket either finished first (then it must be exact) or
        // reports Cancelled.
        let ticket = db.submit(&plan).expect("submit");
        let handle = ticket.cancel_handle();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_micros(200));
            handle.cancel();
        });
        match ticket.collect_rows() {
            Ok(rows) => oracle_match(mode, base_seed, rows, &expected),
            Err(EngineError::Cancelled) => {}
            Err(e) => panic!("{mode:?}: mid-flight cancel surfaced {e}"),
        }
        canceller.join().unwrap();

        // An already-expired deadline: typed error, counted once.
        let t = db
            .submit_with(&plan, &QueryOpts::with_deadline(Duration::ZERO))
            .expect("submit with deadline");
        assert_eq!(
            t.collect_rows().err(),
            Some(EngineError::DeadlineExceeded),
            "{mode:?}: expired deadline must surface DeadlineExceeded"
        );
        // A generous deadline changes nothing.
        let t = db
            .submit_with(&plan, &QueryOpts::with_deadline(Duration::from_secs(600)))
            .expect("submit with slack deadline");
        oracle_match(mode, base_seed, t.collect_rows().expect("slack deadline"), &expected);

        let m = db.metrics();
        assert!(
            m.queries_cancelled >= 2,
            "{mode:?}: queries_cancelled = {}",
            m.queries_cancelled
        );
        assert_eq!(m.deadline_aborts, 1, "{mode:?}: deadline_aborts");
    }
}

/// The storm: every mode runs seeded random plans concurrently while
/// low-probability failpoints fire across the storage and channel layers,
/// a poisoned plan rides along, and the driver cancels a few tickets
/// mid-flight. Every ticket terminates; `Ok` implies oracle-exact.
#[test]
fn seeded_chaos_storm_every_ticket_terminates() {
    let _guard = fault::test_guard();
    fault::disarm();
    let base_seed = chaos_seed();
    let rounds = env_u64("CHAOS_ROUNDS", 2);
    let queries_per_round = 12u64;
    eprintln!("chaos: storm CHAOS_SEED={base_seed} CHAOS_ROUNDS={rounds}");

    let catalog = build_catalog(base_seed ^ 0x55B);
    let samples = Samples::new(catalog.clone());

    for round in 0..rounds {
        // The five fixed modes plus the PR 10 router: routed tickets must
        // satisfy the same termination invariant under the same storm.
        for mode in ExecutionMode::all().into_iter().chain([ExecutionMode::Auto]) {
            let round_seed = base_seed
                .wrapping_add(round.wrapping_mul(1000))
                .wrapping_add(mode as u64);

            // Plans + oracles are fixed before the failpoints arm, so the
            // oracle itself never runs under injected faults.
            let mut plans = Vec::new();
            for case in 0..queries_per_round {
                let seed = round_seed.wrapping_add(case);
                let mut rng = StdRng::seed_from_u64(seed);
                let (plan, _) = gen_plan(&mut rng, &samples);
                let expected = reference::eval(&plan, &catalog)
                    .unwrap_or_else(|e| panic!("oracle failed (seed {seed}): {e}"));
                plans.push((seed, plan, expected));
            }

            // Odd rounds run with the morsel pool on, so the pool and
            // preprocessor-channel failpoints actually have targets.
            let workers = if round % 2 == 0 { 1 } else { 4 };
            let db = SharingDb::new(
                catalog.clone(),
                DbConfig {
                    workers,
                    ..DbConfig::new(mode)
                },
            )
            .expect("db");
            fault::arm(
                round_seed,
                &[
                    ("disk.read", fault::FaultSpec::prob(0.01)),
                    ("page.alloc", fault::FaultSpec::prob(0.005)),
                    ("fifo.push.delay", fault::FaultSpec::prob(0.02)),
                    ("fifo.push.abort", fault::FaultSpec::prob(0.005)),
                    ("spl.append.delay", fault::FaultSpec::prob(0.02)),
                    ("spl.append.abort", fault::FaultSpec::prob(0.005)),
                    ("pool.task.delay", fault::FaultSpec::prob(0.02)),
                    ("pool.task.abort", fault::FaultSpec::prob(0.005)),
                    ("cjoin.chan.delay", fault::FaultSpec::prob(0.02)),
                    ("cjoin.chan.abort", fault::FaultSpec::prob(0.005)),
                    ("cjoin.dim.chan.delay", fault::FaultSpec::prob(0.02)),
                    ("cjoin.dim.chan.abort", fault::FaultSpec::prob(0.005)),
                    ("cjoin.fanout.chan.delay", fault::FaultSpec::prob(0.02)),
                    ("cjoin.fanout.chan.abort", fault::FaultSpec::prob(0.005)),
                    ("sp.registry.delay", fault::FaultSpec::prob(0.02)),
                    ("sp.registry.abort", fault::FaultSpec::prob(0.005)),
                    ("cjoin.shard.chan.delay", fault::FaultSpec::prob(0.02)),
                    ("cjoin.shard.chan.abort", fault::FaultSpec::prob(0.005)),
                ],
            );

            let mut handles = Vec::new();
            let mut cancel_handles = Vec::new();
            for (i, (seed, plan, _)) in plans.iter().enumerate() {
                // Submission itself may trip an injected fault (e.g. a
                // CJOIN admission scan hitting disk.read): a typed error
                // terminates the query before it has a ticket — legal.
                match db.submit(plan) {
                    Ok(t) => {
                        if i % 4 == 1 {
                            cancel_handles.push(t.cancel_handle());
                        }
                        handles.push((Some(i), std::thread::spawn(move || t.collect_rows())));
                    }
                    Err(
                        EngineError::Aborted(_)
                        | EngineError::Storage(_)
                        | EngineError::Cancelled,
                    ) => {}
                    Err(e) => panic!("{mode:?} submit (seed {seed}): untyped failure {e}"),
                }
            }
            if let Ok(t) = db.submit(&poison_plan()) {
                handles.push((None, std::thread::spawn(move || t.collect_rows())));
            }
            // Chaos driver: cancel a few tickets while they run.
            std::thread::sleep(Duration::from_micros(300));
            for h in &cancel_handles {
                h.cancel();
            }

            for (idx, h) in handles {
                let result = h.join().expect("drain thread never panics");
                match (idx, result) {
                    // Termination invariant: Ok ⇒ oracle-exact, Err ⇒ typed.
                    (Some(i), Ok(rows)) => {
                        let (seed, _, expected) = &plans[i];
                        oracle_match(mode, *seed, rows, expected);
                    }
                    (None, Ok(_)) => panic!("{mode:?}: poisoned plan returned rows"),
                    (
                        _,
                        Err(
                            EngineError::Aborted(_)
                            | EngineError::Cancelled
                            | EngineError::Storage(_),
                        ),
                    ) => {}
                    (i, Err(e)) => {
                        panic!("{mode:?} ticket {i:?} (round {round}): untyped failure {e}")
                    }
                }
            }
            fault::disarm();
        }
    }
}

/// A `pool.task.abort` injected into the morsel pool kills exactly the
/// query whose batch fanned out — a witness running concurrently on a
/// path that spawns no pool tasks is untouched, and once the failpoint
/// disarms the same pool (threads intact) serves the query cleanly.
#[test]
fn pool_task_abort_kills_only_its_query_and_pool_survives() {
    let _guard = fault::test_guard();
    fault::disarm();
    let base_seed = chaos_seed() ^ 0x900;
    let catalog = build_catalog(base_seed ^ 0x55B);

    // The victim carries a predicate, so at `workers = 4` its scan takes
    // the parallel path and every page fans out as pool tasks; the
    // witness is a bare scan, which stays off the pool entirely.
    let victim = LogicalPlan::Scan {
        table: "lineorder".into(),
        predicate: Some(Expr::Cmp {
            col: 0,
            op: sharing_repro::plan::CmpOp::Ge,
            lit: Value::Int(0),
        }),
        projection: None,
    };
    let witness = LogicalPlan::Scan {
        table: "date".into(),
        predicate: None,
        projection: None,
    };
    let db = SharingDb::new(
        catalog.clone(),
        DbConfig {
            workers: 4,
            ..DbConfig::new(ExecutionMode::QueryCentric)
        },
    )
    .expect("db");
    let expected_victim = reference::eval(&victim, &catalog).expect("oracle");
    let expected_witness = reference::eval(&witness, &catalog).expect("oracle");

    fault::arm(
        base_seed,
        &[("pool.task.abort", fault::FaultSpec::prob(1.0))],
    );
    let t_victim = db.submit(&victim).expect("submit victim");
    let t_witness = db.submit(&witness).expect("submit witness");
    match t_victim.collect_rows() {
        Err(EngineError::Aborted(msg)) => {
            assert!(msg.contains("pool.task.abort"), "abort names the failpoint: {msg}")
        }
        other => panic!("victim should abort on the pool failpoint, got {other:?}"),
    }
    oracle_match(
        ExecutionMode::QueryCentric,
        base_seed,
        t_witness.collect_rows().expect("witness unaffected"),
        &expected_witness,
    );
    fault::disarm();

    // The pool threads survived the aborted run: the same query now
    // completes on the same engine, oracle-exact.
    oracle_match(
        ExecutionMode::QueryCentric,
        base_seed,
        db.submit(&victim)
            .expect("resubmit")
            .collect_rows()
            .expect("clean run after disarm"),
        &expected_victim,
    );
}

/// A `cjoin.chan.abort` at the preprocessor's batch send aborts every
/// active GQP query with a typed error (a lost fact batch corrupts all of
/// them — same blast radius as a poisoned page), but the pipeline itself
/// survives: once disarmed, the next admission runs oracle-exact.
#[test]
fn cjoin_chan_abort_aborts_active_queries_but_pipeline_survives() {
    let _guard = fault::test_guard();
    fault::disarm();
    let base_seed = chaos_seed() ^ 0xC14;
    let catalog = build_catalog(base_seed ^ 0x55B);
    let samples = Samples::new(catalog.clone());

    // First generated plan that the GQP actually admits as a star query.
    let mut star = None;
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(base_seed.wrapping_add(case));
        let (plan, _) = gen_plan(&mut rng, &samples);
        if StarQuery::detect(&plan, &catalog).is_some() {
            star = Some(plan);
            break;
        }
    }
    let star = star.expect("generator produced a star query within 64 seeds");
    let expected = reference::eval(&star, &catalog).expect("oracle");

    let db = SharingDb::new(catalog.clone(), DbConfig::new(ExecutionMode::Gqp)).expect("db");
    fault::arm(
        base_seed,
        &[("cjoin.chan.abort", fault::FaultSpec::prob(1.0))],
    );
    match db.submit(&star).and_then(|t| t.collect_rows()) {
        Err(EngineError::Aborted(msg)) => assert!(
            msg.contains("cjoin.chan.abort"),
            "abort names the failpoint: {msg}"
        ),
        other => panic!("active query should abort on the channel fault, got {other:?}"),
    }
    fault::disarm();

    oracle_match(
        ExecutionMode::Gqp,
        base_seed,
        db.submit(&star)
            .expect("pipeline still admits")
            .collect_rows()
            .expect("clean run after disarm"),
        &expected,
    );
}

/// GQP+SP deadline-at-revolution (the ROADMAP carried item): when the
/// ticket that owns a shared CJOIN admission dies mid-revolution —
/// cancelled or dropped — the admission is handed off to the surviving
/// SP subscribers via leases. Co-runners must stay oracle-exact (never a
/// truncated stream), and once the last lease drops, the registry entry
/// dies with it so fresh submissions re-admit a live stream instead of
/// attaching to a cancelled one.
#[test]
fn gqpsp_dead_owner_hands_admission_to_surviving_subscribers() {
    let _guard = fault::test_guard();
    fault::disarm();
    let base_seed = chaos_seed() ^ 0x1EA5;
    let catalog = build_catalog(base_seed ^ 0x55B);
    let samples = Samples::new(catalog.clone());

    // First generated plan the GQP admits as a star query.
    let mut star = None;
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(base_seed.wrapping_add(case));
        let (plan, _) = gen_plan(&mut rng, &samples);
        if StarQuery::detect(&plan, &catalog).is_some() {
            star = Some(plan);
            break;
        }
    }
    let star = star.expect("generator produced a star query within 64 seeds");
    let expected = reference::eval(&star, &catalog).expect("oracle");

    let db = SharingDb::new(catalog.clone(), DbConfig::new(ExecutionMode::GqpSp)).expect("db");
    for round in 0..4u64 {
        // Four tickets share one admission (the batch's SP window
        // guarantees the last three subscribe to the first one's stream).
        let tickets = db.submit_batch(&vec![star.clone(); 4]).expect("batch");
        let mut it = tickets.into_iter();
        let owner = it.next().expect("owner ticket");
        let drains: Vec<_> = it
            .map(|t| std::thread::spawn(move || t.collect_rows()))
            .collect();
        // Kill the admission's original owner: immediately on even
        // rounds, mid-drain on odd ones (subscribers already consuming).
        if round % 2 == 1 {
            std::thread::sleep(Duration::from_micros(200));
        }
        owner.cancel();
        drop(owner);
        for h in drains {
            let rows = h
                .join()
                .expect("drain thread never panics")
                .unwrap_or_else(|e| panic!("round {round}: surviving subscriber failed: {e}"));
            oracle_match(ExecutionMode::GqpSp, base_seed, rows, &expected);
        }
    }
    // Every lease from every round is gone: fresh work re-admits cleanly.
    oracle_match(
        ExecutionMode::GqpSp,
        base_seed,
        db.submit(&star)
            .expect("fresh admission")
            .collect_rows()
            .expect("clean run after the dead owners"),
        &expected,
    );
    assert!(
        db.metrics().sp_hits_for(StageKind::Cjoin) >= 12,
        "each round shares one admission across four tickets"
    );
}

/// Overload shedding: with the bounded admission queue configured, excess
/// submissions are refused with a typed `Shed` error and counted — they
/// never stall the engine.
#[test]
fn overload_is_shed_with_typed_error_and_counter() {
    let _guard = fault::test_guard();
    fault::disarm();
    let catalog = build_catalog(chaos_seed() ^ 0x55B);

    let mut config = DbConfig::new(ExecutionMode::SpPush);
    config.admission = Some(AdmissionConfig {
        max_concurrent: 1,
        max_queued: 0,
        queue_timeout: Duration::from_millis(20),
    });
    let db = SharingDb::new(catalog.clone(), config).expect("db");

    let plan = LogicalPlan::Scan {
        table: "date".into(),
        predicate: None,
        projection: None,
    };
    // First query holds the only admission slot until its ticket drops.
    let held = db.submit(&plan).expect("first query admitted");
    // Queue depth 0: the next arrival is shed at the door, with a load
    // snapshot a front door can turn into a Retry-After.
    match db.submit(&plan) {
        Err(EngineError::Shed(hint)) => {
            assert_eq!(hint.running, 1, "gate saturated by the held query");
        }
        Err(other) => panic!("second concurrent submit must be shed, got {other:?}"),
        Ok(_) => panic!("second concurrent submit must be shed, got an admitted ticket"),
    }
    assert_eq!(db.metrics().queries_shed, 1, "shed is counted");

    // Draining (consuming) the first ticket frees the slot.
    let rows = held.collect_rows().expect("held query");
    assert!(!rows.is_empty());
    let rows2 = db
        .submit(&plan)
        .expect("slot free again")
        .collect_rows()
        .expect("post-shed query");
    assert_eq!(rows.len(), rows2.len());
    assert_eq!(db.metrics().queries_shed, 1, "no further sheds");
}
