//! The output hub: one producer, N subscribers, in either sharing mode.
//!
//! Every packet writes its output through an [`OutputHub`]. The currency
//! is the [`EngineBatch`] — a shared page plus the selection of surviving
//! rows — so forwarding a filter's output costs no row copies. The hub is
//! where the paper's two SP mechanics diverge:
//!
//! * **Push mode** (original QPipe): each subscriber has its own bounded
//!   FIFO. The producer hands the original batch to the first live
//!   subscriber and **deep-copies** its page for every additional one — on
//!   the producer's own thread, under a core permit, because the copy is
//!   real CPU work. This loop is the serialization point of push-based SP.
//!   Subscription is only possible before the first batch is produced
//!   (the strict sharing window of push-based SP).
//!
//! * **Pull mode** (SPL): all subscribers share one [`SharedPagesList`];
//!   the producer appends each batch exactly once and subscription is
//!   possible at any time until the producer finishes.
//!
//! With a single subscriber the push-mode hub degenerates to QPipe's plain
//! FIFO pipeline dataflow, so the hub is the *only* output path in the
//! engine — query-centric execution is simply "nobody else subscribed".

use crate::error::EngineError;
use crate::fifo::{BatchSource, EngineBatch, FifoBuffer, FifoReader};
use crate::governor::CoreGovernor;
use crate::metrics::{Metrics, StageKind};
use crate::spl::SharedPagesList;
use parking_lot::Mutex;
use qs_storage::{FactBatch, Page};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// FIFO capacity for passive (client-drained) consumers: effectively
/// unbounded, so a shared producer can never block on a ticket the client
/// has not started draining yet. See [`OutputHub::subscribe_with_capacity`].
pub const UNBOUNDED_CAPACITY: usize = usize::MAX;

/// How intermediate results are distributed to consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShareMode {
    /// Per-consumer FIFOs; producer copies (original QPipe SP).
    Push,
    /// One Shared Pages List; consumers pull (the paper's improvement).
    Pull,
}

struct HubState {
    started: bool,
    finished: bool,
    push_subs: Vec<Arc<FifoBuffer>>,
}

/// Producer-side fan-out point for one packet's output.
pub struct OutputHub {
    mode: ShareMode,
    stage: StageKind,
    fifo_capacity: usize,
    metrics: Arc<Metrics>,
    governor: Arc<CoreGovernor>,
    spl: Option<Arc<SharedPagesList>>,
    state: Mutex<HubState>,
}

impl OutputHub {
    /// Create a hub and its primary consumer (the packet's own parent).
    pub fn new(
        mode: ShareMode,
        stage: StageKind,
        fifo_capacity: usize,
        metrics: Arc<Metrics>,
        governor: Arc<CoreGovernor>,
    ) -> (Arc<OutputHub>, Box<dyn BatchSource>) {
        match mode {
            ShareMode::Pull => {
                let spl = SharedPagesList::new();
                let reader = spl.reader();
                let hub = Arc::new(OutputHub {
                    mode,
                    stage,
                    fifo_capacity,
                    metrics,
                    governor,
                    spl: Some(spl),
                    state: Mutex::new(HubState {
                        started: false,
                        finished: false,
                        push_subs: Vec::new(),
                    }),
                });
                (hub, Box::new(reader))
            }
            ShareMode::Push => {
                let (fifo, reader) = FifoBuffer::channel(fifo_capacity);
                let hub = Arc::new(OutputHub {
                    mode,
                    stage,
                    fifo_capacity,
                    metrics,
                    governor,
                    spl: None,
                    state: Mutex::new(HubState {
                        started: false,
                        finished: false,
                        push_subs: vec![fifo],
                    }),
                });
                (hub, Box::new(reader) as Box<FifoReader> as Box<dyn BatchSource>)
            }
        }
    }

    /// The sharing mode.
    pub fn mode(&self) -> ShareMode {
        self.mode
    }

    /// The stage this hub's producer runs at (metrics label).
    pub fn stage(&self) -> StageKind {
        self.stage
    }

    /// Attempt to attach an additional consumer (an SP hit), with the
    /// hub's own FIFO capacity.
    ///
    /// Pull mode accepts until the producer has finished; push mode only
    /// before the first batch is produced. `None` means the sharing window
    /// has closed and the caller must evaluate its own packet.
    pub fn subscribe(&self) -> Option<Box<dyn BatchSource>> {
        self.subscribe_with_capacity(self.fifo_capacity)
    }

    /// [`OutputHub::subscribe`] with an explicit FIFO capacity for the new
    /// consumer (push mode only; pull-mode SPL readers are unbuffered).
    ///
    /// Liveness rule: a *passive* consumer — one drained by client code at
    /// an arbitrary pace, i.e. a root [`crate::QueryTicket`] — must use
    /// [`UNBOUNDED_CAPACITY`]. A bounded FIFO here lets the shared
    /// producer block on one sibling while the client waits on another,
    /// deadlocking two queries that share a packet. Operator-input
    /// consumers have dedicated stage workers that always drain, so they
    /// keep bounded FIFOs (pipeline backpressure).
    pub fn subscribe_with_capacity(&self, cap: usize) -> Option<Box<dyn BatchSource>> {
        let mut st = self.state.lock();
        match self.mode {
            ShareMode::Pull => {
                // Pull mode accepts even after the producer finished: the
                // SPL retains the full history, so late sharing is correct.
                self.spl
                    .as_ref()
                    .map(|spl| Box::new(spl.reader()) as Box<dyn BatchSource>)
            }
            ShareMode::Push => {
                if st.started || st.finished {
                    return None;
                }
                let (fifo, reader) = FifoBuffer::channel(cap);
                st.push_subs.push(fifo);
                Some(Box::new(reader))
            }
        }
    }

    /// Number of currently attached consumers.
    pub fn consumers(&self) -> usize {
        match self.mode {
            ShareMode::Pull => 1, // readers are untracked; at least primary
            ShareMode::Push => self.state.lock().push_subs.len(),
        }
    }

    /// Producer convenience: emit a dense page as a full-selection batch
    /// (operators whose output is freshly built pages — aggregates, joins,
    /// sorts — and the CJOIN distributor).
    pub fn push_page(&self, page: Arc<Page>) -> Result<(), EngineError> {
        self.push(Arc::new(FactBatch::all(page)))
    }

    /// Producer: emit a group of batches to every consumer under one
    /// channel synchronization (the group form of [`Self::push`]).
    /// Sparse scans/filters buffer tiny batches and flush them through
    /// here so consumers are not woken once per table page. Drains
    /// `batches`; a no-op when empty.
    pub fn push_many(&self, batches: &mut Vec<EngineBatch>) -> Result<(), EngineError> {
        if batches.is_empty() {
            return Ok(());
        }
        match self.mode {
            ShareMode::Pull => {
                {
                    let mut st = self.state.lock();
                    st.started = true;
                }
                let bytes: u64 = batches.iter().map(|b| b.page().byte_len() as u64).sum();
                self.metrics
                    .pages_shared
                    .fetch_add(batches.len() as u64, Ordering::Relaxed);
                self.metrics.bytes_shared.fetch_add(bytes, Ordering::Relaxed);
                self.spl
                    .as_ref()
                    .expect("pull hub has an SPL")
                    .append_many(batches)
            }
            ShareMode::Push => {
                let subs: Vec<Arc<FifoBuffer>> = {
                    let mut st = self.state.lock();
                    st.started = true;
                    st.push_subs.clone()
                };
                let mut delivered = 0usize;
                let mut dead: Vec<usize> = Vec::new();
                for (i, fifo) in subs.iter().enumerate() {
                    if fifo.reader_gone() {
                        dead.push(i);
                        continue;
                    }
                    // First live consumer receives the original batches;
                    // every further one costs a page copy per batch on
                    // this thread (the push-based SP serialization point,
                    // unchanged by grouping): a full deep page copy, the
                    // paper's SP-FIFO cost model.
                    let mut to_send: Vec<EngineBatch> = if delivered == 0 {
                        batches.clone()
                    } else {
                        let copies = self.governor.run(|| {
                            batches
                                .iter()
                                .map(|b| Arc::new(b.deep_copy()))
                                .collect::<Vec<_>>()
                        });
                        let bytes: u64 =
                            copies.iter().map(|b| b.page().byte_len() as u64).sum();
                        self.metrics
                            .pages_copied
                            .fetch_add(copies.len() as u64, Ordering::Relaxed);
                        self.metrics.bytes_copied.fetch_add(bytes, Ordering::Relaxed);
                        copies
                    };
                    match fifo.push_many(&mut to_send) {
                        Ok(()) => delivered += 1,
                        Err(EngineError::Cancelled) => dead.push(i),
                        Err(e) => return Err(e),
                    }
                }
                if !dead.is_empty() {
                    let mut st = self.state.lock();
                    st.push_subs.retain(|f| {
                        !subs
                            .iter()
                            .enumerate()
                            .any(|(i, s)| dead.contains(&i) && Arc::ptr_eq(f, s))
                    });
                }
                batches.clear();
                if delivered == 0 {
                    return Err(EngineError::Cancelled);
                }
                Ok(())
            }
        }
    }

    /// Producer: emit one batch to every consumer (the one-element form
    /// of [`Self::push_many`] — a single delivery path keeps the copy
    /// metering and dead-subscriber pruning in one place).
    pub fn push(&self, batch: EngineBatch) -> Result<(), EngineError> {
        let mut one = vec![batch];
        self.push_many(&mut one)
    }

    /// Producer: end of stream.
    pub fn finish(&self) {
        let subs = {
            let mut st = self.state.lock();
            st.finished = true;
            st.push_subs.clone()
        };
        if let Some(spl) = &self.spl {
            spl.finish();
        }
        for f in subs {
            f.finish();
        }
    }

    /// Producer: abort all consumers with a cause.
    pub fn abort(&self, msg: impl Into<String>) {
        let msg = msg.into();
        let subs = {
            let mut st = self.state.lock();
            st.finished = true;
            st.push_subs.clone()
        };
        if let Some(spl) = &self.spl {
            spl.abort(msg.clone());
        }
        for f in subs {
            f.abort(msg.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qs_storage::{DataType, Schema, Value};

    fn batch(k: i64) -> EngineBatch {
        let s = Schema::from_pairs(&[("k", DataType::Int)]);
        let page = Arc::new(Page::from_values(&s, &[vec![Value::Int(k)]]).unwrap());
        Arc::new(FactBatch::all(page))
    }

    fn hub(mode: ShareMode) -> (Arc<OutputHub>, Box<dyn BatchSource>, Arc<Metrics>) {
        let m = Metrics::new();
        let g = CoreGovernor::new(0, m.clone());
        let (h, r) = OutputHub::new(mode, StageKind::Scan, 8, m.clone(), g);
        (h, r, m)
    }

    fn drain(mut src: Box<dyn BatchSource>) -> Vec<i64> {
        let mut out = Vec::new();
        while let Some(b) = src.next_batch().unwrap() {
            out.push(b.page().row(b.sel()[0] as usize).i64_col(0));
        }
        out
    }

    #[test]
    fn pull_mode_shares_without_copying() {
        let (h, primary, m) = hub(ShareMode::Pull);
        let sub = h.subscribe().expect("pull subscribe");
        h.push(batch(1)).unwrap();
        h.push(batch(2)).unwrap();
        h.finish();
        assert_eq!(drain(primary), vec![1, 2]);
        assert_eq!(drain(sub), vec![1, 2]);
        let s = m.snapshot();
        assert_eq!(s.pages_shared, 2);
        assert_eq!(s.pages_copied, 0);
    }

    #[test]
    fn pull_mode_allows_mid_stream_subscription() {
        let (h, primary, _) = hub(ShareMode::Pull);
        h.push(batch(1)).unwrap();
        let late = h.subscribe().expect("late pull subscribe");
        h.push(batch(2)).unwrap();
        h.finish();
        assert_eq!(drain(primary), vec![1, 2]);
        assert_eq!(drain(late), vec![1, 2]);
    }

    #[test]
    fn push_mode_copies_per_extra_consumer() {
        let (h, primary, m) = hub(ShareMode::Push);
        let sub1 = h.subscribe().expect("pre-start subscribe");
        let sub2 = h.subscribe().expect("pre-start subscribe 2");
        let producer = {
            let h = h.clone();
            std::thread::spawn(move || {
                h.push(batch(1)).unwrap();
                h.push(batch(2)).unwrap();
                h.finish();
            })
        };
        let a = drain(primary);
        let b = drain(sub1);
        let c = drain(sub2);
        producer.join().unwrap();
        assert_eq!(a, vec![1, 2]);
        assert_eq!(b, a);
        assert_eq!(c, a);
        let s = m.snapshot();
        // 2 batches × 2 extra consumers = 4 deep page copies
        assert_eq!(s.pages_copied, 4);
        assert_eq!(s.pages_shared, 0);
    }

    #[test]
    fn push_mode_window_closes_at_first_batch() {
        let (h, primary, _) = hub(ShareMode::Push);
        h.push(batch(1)).unwrap();
        assert!(h.subscribe().is_none(), "window must be closed");
        h.finish();
        assert_eq!(drain(primary), vec![1]);
    }

    #[test]
    fn push_page_wraps_dense_pages() {
        let (h, mut primary, _) = hub(ShareMode::Push);
        let s = Schema::from_pairs(&[("k", DataType::Int)]);
        let page = Arc::new(
            Page::from_values(&s, &[vec![Value::Int(3)], vec![Value::Int(4)]]).unwrap(),
        );
        h.push_page(page.clone()).unwrap();
        h.finish();
        let b = primary.next_batch().unwrap().unwrap();
        assert!(b.is_full());
        assert_eq!(b.len(), 2);
        assert!(Arc::ptr_eq(b.page(), &page));
    }

    #[test]
    fn abort_propagates_to_all_modes() {
        for mode in [ShareMode::Pull, ShareMode::Push] {
            let (h, mut primary, _) = hub(mode);
            h.abort("nope");
            assert!(matches!(
                primary.next_batch(),
                Err(EngineError::Aborted(_))
            ));
        }
    }

    #[test]
    fn push_mode_survives_one_cancelled_consumer() {
        let (h, primary, _) = hub(ShareMode::Push);
        let sub = h.subscribe().unwrap();
        drop(sub); // consumer cancels before production
        let producer = {
            let h = h.clone();
            std::thread::spawn(move || {
                h.push(batch(5)).unwrap();
                h.finish();
            })
        };
        assert_eq!(drain(primary), vec![5]);
        producer.join().unwrap();
    }

    #[test]
    fn push_mode_all_consumers_gone_cancels_producer() {
        let (h, primary, _) = hub(ShareMode::Push);
        drop(primary);
        assert!(matches!(h.push(batch(1)), Err(EngineError::Cancelled)));
    }
}
