//! Stages: QPipe's self-contained operator modules.
//!
//! Each relational operator is encapsulated in a stage with a work queue
//! and a local thread pool (grown on demand so that inter-dependent
//! packets can never deadlock waiting for a worker). A query plan is
//! converted into interdependent *packets* dispatched to the stages; data
//! flows between packets through the [`crate::hub::OutputHub`]s.
//!
//! The pool is sized by an exact count of free-worker *credits*:
//! `credits = idle workers − queued packets`. Dispatch takes one credit
//! per packet; when none was left it spawns a worker that stands for the
//! credit the packet just took, and a worker returns its credit when its
//! packet's operator returns. So every queued packet has an idle worker
//! of its own (no deadlock however packets feed each other through
//! buffers), and a stage holds only as many workers as packets it ever
//! ran at once — a stage that runs two packets at a time keeps two
//! workers, round after round. Only at `max_workers` may credits go
//! negative, and packets then wait in the queue.
//!
//! Every stage also carries the **SP registry**: a map from sub-plan
//! signature to the in-flight packet's output hub. When a new packet
//! arrives whose signature matches an in-flight one whose sharing window
//! is still open, the new packet is never executed — it subscribes to the
//! existing output instead (Simultaneous Pipelining).

use crate::ctl::QueryCtl;
use crate::fifo::BatchSource;
use crate::hub::OutputHub;
use crate::metrics::{Metrics, StageKind};
use crate::ops::{execute, ExecCtx, PhysicalOp};
use crate::EngineError;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use qs_storage::fault;
use std::collections::HashMap;
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// A unit of work queued at a stage.
pub struct Packet {
    /// Owning query.
    pub query_id: u64,
    /// Operator to run.
    pub op: PhysicalOp,
    /// Input streams (join: `[build, probe]`).
    pub inputs: Vec<Box<dyn BatchSource>>,
    /// Output fan-out point.
    pub hub: Arc<OutputHub>,
    /// Owning query's control block (cancellation/deadline), if any.
    pub ctl: Option<Arc<QueryCtl>>,
    /// Whether this packet belongs to exactly one query. Only exclusive
    /// packets honor `ctl` inside the operator loop — a packet registered
    /// for SP may serve co-runners, and one subscriber's deadline must
    /// not starve the rest.
    pub exclusive: bool,
}

impl Packet {
    /// A packet with no control block, owned by a single query (the
    /// common construction in tests and non-submit paths).
    pub fn new(
        query_id: u64,
        op: PhysicalOp,
        inputs: Vec<Box<dyn BatchSource>>,
        hub: Arc<OutputHub>,
    ) -> Packet {
        Packet {
            query_id,
            op,
            inputs,
            hub,
            ctl: None,
            exclusive: true,
        }
    }
}

/// Per-stage map: sub-plan signature → in-flight packet's hub.
#[derive(Default)]
pub struct SpRegistry {
    inner: Mutex<HashMap<u64, Weak<OutputHub>>>,
}

impl SpRegistry {
    /// Try to ride an in-flight packet with the same signature. `None`
    /// when no such packet exists or its sharing window has closed.
    /// `cap` is the new consumer's FIFO capacity (push mode): bounded for
    /// operator inputs, [`crate::hub::UNBOUNDED_CAPACITY`] for root
    /// tickets — see [`OutputHub::subscribe_with_capacity`].
    pub fn try_subscribe(&self, sig: u64, cap: usize) -> Option<Box<dyn BatchSource>> {
        // Failpoints on the registry lock: `sp.registry.delay` models
        // contention on the shared map; `sp.registry.abort` a failed
        // lookup. Either way the registry degrades to an SP miss — the
        // query builds its own packet, which is always correct — and
        // never to a torn subscription.
        if fault::maybe_delay_abort("sp.registry").is_err() {
            return None;
        }
        let mut map = self.inner.lock();
        if let Some(weak) = map.get(&sig) {
            if let Some(hub) = weak.upgrade() {
                if let Some(reader) = hub.subscribe_with_capacity(cap) {
                    return Some(reader);
                }
            }
            map.remove(&sig);
        }
        None
    }

    /// Publish a new in-flight packet's hub under its signature.
    pub fn register(&self, sig: u64, hub: &Arc<OutputHub>) {
        // `sp.registry.abort` here skips publication: the packet still
        // runs (its own query drains it) but later identical sub-plans
        // miss instead of sharing — degraded sharing, never lost rows.
        if fault::maybe_delay_abort("sp.registry").is_err() {
            return;
        }
        let mut map = self.inner.lock();
        map.insert(sig, Arc::downgrade(hub));
        // Opportunistic pruning keeps the map from accumulating dead
        // entries across a long workload.
        if map.len() > 1024 {
            map.retain(|_, w| w.strong_count() > 0);
        }
    }

    /// Number of live registered entries (test/debug).
    pub fn live_entries(&self) -> usize {
        self.inner
            .lock()
            .values()
            .filter(|w| w.strong_count() > 0)
            .count()
    }
}

struct StageInner {
    kind: StageKind,
    rx: Receiver<Packet>,
    /// Invariant: `credits = idle workers − queued packets`, where a
    /// worker is idle from its spawn until it dequeues a packet and again
    /// once that packet's operator has returned. Dispatch takes one
    /// credit per packet; a worker spawned because none was left adds
    /// the credit that the packet took, so the count stays exact and
    /// `credits ≥ 0` below `max_workers`: the pool never has more queued
    /// packets than idle workers — which would deadlock when queued
    /// packets feed each other through buffers — and never more workers
    /// than it needed.
    credits: AtomicIsize,
    workers: AtomicUsize,
    max_workers: usize,
    ctx: Arc<ExecCtx>,
}

/// One operator stage: queue + elastic thread pool + SP registry.
pub struct Stage {
    tx: Sender<Packet>,
    registry: Arc<SpRegistry>,
    inner: Arc<StageInner>,
}

impl Stage {
    /// Create the stage and start `initial_workers` threads.
    pub fn new(
        kind: StageKind,
        ctx: Arc<ExecCtx>,
        initial_workers: usize,
        max_workers: usize,
    ) -> Self {
        let (tx, rx) = unbounded();
        let inner = Arc::new(StageInner {
            kind,
            rx,
            credits: AtomicIsize::new(0),
            workers: AtomicUsize::new(0),
            max_workers: max_workers.max(1),
            ctx,
        });
        let stage = Stage {
            tx,
            registry: Arc::new(SpRegistry::default()),
            inner,
        };
        for _ in 0..initial_workers.max(1) {
            // A refused initial thread is not fatal: dispatch spawns on
            // demand, and reports a refusal then to the packet's query.
            let _ = Self::spawn_worker(&stage.inner);
        }
        stage
    }

    /// This stage's SP registry.
    pub fn registry(&self) -> &SpRegistry {
        &self.registry
    }

    /// Stage kind.
    pub fn kind(&self) -> StageKind {
        self.inner.kind
    }

    /// Current worker-thread count (test/debug).
    pub fn worker_count(&self) -> usize {
        self.inner.workers.load(Ordering::Relaxed)
    }

    /// Queue a packet, growing the pool if no worker is guaranteed free.
    /// Packets at one stage may depend (through their input streams) on
    /// packets at other stages or even queued behind them here, so a
    /// fixed-size pool could deadlock; QPipe's stages grow their local
    /// pools the same way.
    pub fn dispatch(&self, packet: Packet) {
        self.inner.ctx.metrics.packet(self.inner.kind);
        // Claim a free-worker credit; if none remained, spawn the idle
        // worker that credit stands for.
        let prev = self.inner.credits.fetch_sub(1, Ordering::AcqRel);
        if prev <= 0 && self.inner.workers.load(Ordering::Acquire) < self.inner.max_workers {
            if let Err(e) = Self::spawn_worker(&self.inner) {
                // The packet is never queued: give its credit back and
                // fail only its own query (the drop cancels its inputs).
                self.inner.credits.fetch_add(1, Ordering::AcqRel);
                packet.hub.abort(format!(
                    "{} stage worker spawn failed: {e}",
                    self.inner.kind.name()
                ));
                return;
            }
        }
        // Send fails only if every worker exited, which only happens when
        // the engine is being dropped; dropping the packet then aborts its
        // consumers via the hub drop chain.
        let _ = self.tx.send(packet);
    }

    /// Start one idle worker and add its credit. The credit is added only
    /// once the thread exists, so no dispatch can count on a worker that
    /// the OS refused (or the `stage.spawn` failpoint vetoed).
    fn spawn_worker(inner: &Arc<StageInner>) -> std::io::Result<()> {
        if fault::should_fire("stage.spawn") {
            return Err(std::io::Error::other("injected fault 'stage.spawn'"));
        }
        let worker = inner.clone();
        inner.workers.fetch_add(1, Ordering::Release);
        let name = format!("qpipe-{}", inner.kind.name());
        let spawned = std::thread::Builder::new()
            .name(name)
            .spawn(move || worker_loop(&worker));
        match spawned {
            Ok(_) => {
                inner.credits.fetch_add(1, Ordering::AcqRel);
                Ok(())
            }
            Err(e) => {
                inner.workers.fetch_sub(1, Ordering::Release);
                Err(e)
            }
        }
    }
}

/// A stage worker: run queued packets until the engine drops the queue.
fn worker_loop(inner: &StageInner) {
    while let Ok(mut pkt) = inner.rx.recv() {
        // Panic containment: a packet that unwinds (the PR 6 fuzzer's
        // num_col panic, an injected alloc failure) must cost exactly one
        // query, not this worker and every packet queued behind it. The
        // catch converts the panic into an abort on the packet's own hub;
        // the drop chain below cancels its upstream, and the worker (and
        // its credit) survive for co-runners.
        let ctl = pkt.ctl.clone().filter(|_| pkt.exclusive);
        let result = contain_panic(
            &inner.ctx.metrics,
            format_args!("{} stage", inner.kind.name()),
            || {
                execute(
                    &pkt.op,
                    &mut pkt.inputs,
                    &pkt.hub,
                    &inner.ctx,
                    ctl.as_deref(),
                )
            },
        );
        let outcome = match result {
            Ok(Ok(())) => Ok(()),
            // Every consumer is gone; nothing to tell.
            Ok(Err(EngineError::Cancelled)) => Err("cancelled".to_string()),
            Ok(Err(e)) => Err(e.to_string()),
            Err(panic) => Err(panic),
        };
        // The operator has returned, so this worker is idle: return its
        // credit *before* the consumers can see the end of the stream.
        // A client that submits its next query the moment this one ends
        // then finds the credit and reuses this worker instead of
        // spawning another. Finishing the hub and dropping the packet
        // below never wait on another packet.
        inner.credits.fetch_add(1, Ordering::AcqRel);
        match outcome {
            Ok(()) => pkt.hub.finish(),
            Err(msg) => pkt.hub.abort(msg),
        }
        // Dropping the packet drops its input readers, cascading
        // cancellation upstream if this packet failed mid-stream.
        drop(pkt);
    }
    // The queue closed: the engine is being dropped.
    inner.workers.fetch_sub(1, Ordering::Release);
}

/// The engine's one panic belt: run `f`, and if it unwinds, count the
/// containment in `panics_contained` and return
/// `Err("panic in <what>: <payload>")` for the caller to turn into its
/// own typed abort. Stage workers, pool tasks and the CJOIN pipeline's
/// stage, admission and distributor sites all contain through here.
pub fn contain_panic<R>(
    metrics: &Metrics,
    what: impl Display,
    f: impl FnOnce() -> R,
) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        metrics.panics_contained.fetch_add(1, Ordering::Relaxed);
        format!("panic in {what}: {}", panic_message(&*payload))
    })
}

/// Best-effort extraction of a panic payload's message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::CoreGovernor;
    use crate::hub::ShareMode;
    use crate::metrics::Metrics;
    use qs_storage::{
        BufferPool, BufferPoolConfig, DiskConfig, DiskModel, Schema, TableBuilder, Value,
    };
    use qs_storage::{Catalog, DataType};

    fn ctx() -> (Arc<ExecCtx>, Arc<Catalog>) {
        let catalog = Catalog::new();
        let schema = Schema::from_pairs(&[("k", DataType::Int)]);
        let mut b = TableBuilder::with_page_bytes("t", schema, 64);
        for i in 0..100 {
            b.push_values(&[Value::Int(i)]).unwrap();
        }
        catalog.register(b);
        let metrics = Metrics::new();
        let pool = Arc::new(BufferPool::new(
            BufferPoolConfig::unbounded(),
            Arc::new(DiskModel::new(DiskConfig::memory_resident())),
        ));
        (
            Arc::new(ExecCtx {
                pool,
                governor: CoreGovernor::new(0, metrics.clone()),
                workers: crate::pool::WorkerPool::new(1, metrics.clone()),
                metrics,
                out_page_bytes: 64,
            }),
            catalog,
        )
    }

    fn scan_packet(ctx: &Arc<ExecCtx>, catalog: &Catalog) -> (Packet, Box<dyn BatchSource>) {
        let table = catalog.get("t").unwrap();
        let out_schema = table.schema().clone();
        let (hub, reader) = OutputHub::new(
            ShareMode::Push,
            StageKind::Scan,
            8,
            ctx.metrics.clone(),
            ctx.governor.clone(),
        );
        (
            Packet::new(
                1,
                PhysicalOp::Scan {
                    table,
                    predicate: None,
                    projection: None,
                    out_schema,
                },
                vec![],
                hub,
            ),
            reader,
        )
    }

    #[test]
    fn stage_executes_packets() {
        let _guard = qs_storage::fault::test_guard();
        let (ctx, catalog) = ctx();
        let stage = Stage::new(StageKind::Scan, ctx.clone(), 1, 8);
        let (pkt, reader) = scan_packet(&ctx, &catalog);
        stage.dispatch(pkt);
        assert_eq!(drain_rows(reader), 100);
    }

    #[test]
    fn pool_grows_under_concurrent_packets() {
        let _guard = qs_storage::fault::test_guard();
        let (ctx, catalog) = ctx();
        let stage = Stage::new(StageKind::Scan, ctx.clone(), 1, 64);
        let mut readers = Vec::new();
        for _ in 0..6 {
            let (pkt, reader) = scan_packet(&ctx, &catalog);
            stage.dispatch(pkt);
            readers.push(reader);
        }
        // All six scans complete even though we started with one worker
        // (the FIFO capacity of 8 pages < 25 pages forces real pipelining).
        for r in readers {
            assert_eq!(drain_rows(r), 100);
        }
        // No scan can end before its reader drains it, so all six ran at
        // once: exactly one worker per packet, none spare.
        assert_eq!(stage.worker_count(), 6);
    }

    fn drain_rows(mut reader: Box<dyn BatchSource>) -> usize {
        let mut rows = 0;
        while let Some(b) = reader.next_batch().unwrap() {
            rows += b.len();
        }
        rows
    }

    #[test]
    fn pool_keeps_its_size_across_rounds() {
        let _guard = qs_storage::fault::test_guard();
        // Each round runs two packets at once, then drains both. The
        // stage needs two workers and must reuse them round after round;
        // a worker spawned for a round's second packet that went
        // uncounted would add one idle thread per round.
        let (ctx, catalog) = ctx();
        let stage = Stage::new(StageKind::Scan, ctx.clone(), 1, 1024);
        for _ in 0..200 {
            let (a, ra) = scan_packet(&ctx, &catalog);
            let (b, rb) = scan_packet(&ctx, &catalog);
            stage.dispatch(a);
            stage.dispatch(b);
            assert_eq!(drain_rows(ra) + drain_rows(rb), 200);
        }
        assert_eq!(stage.worker_count(), 2);
    }

    #[test]
    fn refused_worker_spawn_aborts_only_its_packet() {
        let _guard = qs_storage::fault::test_guard();
        let (ctx, catalog) = ctx();
        let stage = Stage::new(StageKind::Scan, ctx.clone(), 1, 64);
        // The first packet takes the only worker and holds it (its reader
        // is not drained yet); the second needs a new thread, which the
        // failpoint refuses.
        let (first, first_reader) = scan_packet(&ctx, &catalog);
        stage.dispatch(first);
        qs_storage::fault::arm(
            1,
            &[("stage.spawn", qs_storage::fault::FaultSpec::prob(1.0))],
        );
        let (second, mut second_reader) = scan_packet(&ctx, &catalog);
        stage.dispatch(second);
        qs_storage::fault::disarm();
        match second_reader.next_batch() {
            Err(EngineError::Aborted(msg)) => {
                assert!(msg.contains("stage worker spawn failed"), "{msg}");
                assert!(msg.contains("stage.spawn"), "names the failpoint: {msg}");
            }
            Err(e) => panic!("expected Aborted, got {e:?}"),
            Ok(_) => panic!("expected Aborted, got a batch"),
        }
        // The co-runner is untouched, the refused worker is not counted,
        // and the refused packet's credit came back: the next packet
        // spawns its worker and runs.
        assert_eq!(drain_rows(first_reader), 100);
        assert_eq!(stage.worker_count(), 1);
        let (third, third_reader) = scan_packet(&ctx, &catalog);
        stage.dispatch(third);
        assert_eq!(drain_rows(third_reader), 100);
        assert_eq!(stage.worker_count(), 1);
    }

    #[test]
    fn worker_contains_panics_and_keeps_serving() {
        let _guard = qs_storage::fault::test_guard();
        let (ctx, catalog) = ctx();
        let stage = Stage::new(StageKind::Aggregate, ctx.clone(), 1, 4);

        // Poisoned packet: an aggregate whose output name is the chaos
        // sentinel panics inside the operator while faults are armed.
        qs_storage::fault::arm(1, &[]);
        let table = catalog.get("t").unwrap();
        let out_schema = Schema::from_pairs(&[("n", DataType::Int)]);
        let (hub, mut poisoned_reader) = OutputHub::new(
            ShareMode::Push,
            StageKind::Aggregate,
            8,
            ctx.metrics.clone(),
            ctx.governor.clone(),
        );
        let (scan_hub, scan_reader) = OutputHub::new(
            ShareMode::Push,
            StageKind::Scan,
            crate::hub::UNBOUNDED_CAPACITY,
            ctx.metrics.clone(),
            ctx.governor.clone(),
        );
        // Feed the aggregate from an already-finished scan stream.
        scan_hub
            .push(Arc::new(qs_storage::FactBatch::all(
                ctx.pool.get(&table, 0).unwrap(),
            )))
            .unwrap();
        scan_hub.finish();
        stage.dispatch(Packet::new(
            7,
            PhysicalOp::Aggregate {
                group_by: vec![],
                aggs: vec![qs_plan::AggSpec::new(
                    qs_plan::AggFunc::Count,
                    qs_storage::fault::POISON_AGG_NAME,
                )],
                in_schema: table.schema().clone(),
                out_schema: out_schema.clone(),
                groups_hint: None,
            },
            vec![scan_reader],
            hub,
        ));
        let err = loop {
            match poisoned_reader.next_batch() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("poisoned packet finished cleanly"),
                Err(e) => break e,
            }
        };
        qs_storage::fault::disarm();
        match err {
            EngineError::Aborted(msg) => assert!(msg.contains("panic"), "{msg}"),
            other => panic!("expected Aborted, got {other:?}"),
        }
        assert_eq!(ctx.metrics.snapshot().panics_contained, 1);

        // The same stage (and its possibly-sole worker) still executes
        // healthy packets afterwards.
        let (pkt, mut reader) = scan_packet(&ctx, &catalog);
        let scan_stage = Stage::new(StageKind::Scan, ctx.clone(), 1, 4);
        scan_stage.dispatch(pkt);
        let mut rows = 0;
        while let Some(b) = reader.next_batch().unwrap() {
            rows += b.len();
        }
        assert_eq!(rows, 100);
    }

    #[test]
    fn registry_subscribe_and_expiry() {
        let (ctx, _) = ctx();
        let reg = SpRegistry::default();
        let (hub, _primary) = OutputHub::new(
            ShareMode::Pull,
            StageKind::Scan,
            8,
            ctx.metrics.clone(),
            ctx.governor.clone(),
        );
        reg.register(42, &hub);
        assert!(reg.try_subscribe(42, 8).is_some());
        assert!(reg.try_subscribe(7, 8).is_none());
        assert_eq!(reg.live_entries(), 1);
        drop(hub);
        assert!(reg.try_subscribe(42, 8).is_none(), "dead hub pruned");
        assert_eq!(reg.live_entries(), 0);
    }

    #[test]
    fn push_registry_window_closes_after_start() {
        let (ctx, _) = ctx();
        let reg = SpRegistry::default();
        let (hub, _primary) = OutputHub::new(
            ShareMode::Push,
            StageKind::Scan,
            8,
            ctx.metrics.clone(),
            ctx.governor.clone(),
        );
        reg.register(42, &hub);
        let s = Schema::from_pairs(&[("k", DataType::Int)]);
        hub.push_page(Arc::new(
            qs_storage::Page::from_values(&s, &[vec![Value::Int(1)]]).unwrap(),
        ))
        .unwrap();
        assert!(reg.try_subscribe(42, 8).is_none(), "push window closed");
    }
}
