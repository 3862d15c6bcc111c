//! Bounded FIFO batch buffers — QPipe's original push-only dataflow.
//!
//! The engine's inter-operator currency is the [`EngineBatch`]: an
//! `Arc<FactBatch>` pairing a shared page with the selection of rows that
//! survived upstream predicates. Producers `push` batches and block when
//! the queue is full (pipeline backpressure); the single consumer pulls at
//! its own pace. When SP shares an in-flight packet in *push* mode, the
//! producer must deep-copy every batch's page into each attached
//! consumer's FIFO — that per-page copy loop on the producer thread is the
//! serialization point the Shared Pages List removes (see [`crate::spl`]).

use crate::error::EngineError;
use parking_lot::{Condvar, Mutex};
use qs_storage::{fault, FactBatch};
use std::collections::VecDeque;
use std::sync::Arc;

/// The packet flowing between engine operators: a shared page plus the
/// selection of surviving rows (see [`qs_storage::FactBatch`]). Shared by
/// `Arc` so SPL consumers and FIFO queues reference one allocation.
pub type EngineBatch = Arc<FactBatch>;

/// The batch stream abstraction consumed by every operator.
pub trait BatchSource: Send {
    /// Next batch, `Ok(None)` at end of stream, `Err` if the producer
    /// aborted.
    fn next_batch(&mut self) -> Result<Option<EngineBatch>, EngineError>;
}

struct FifoState {
    queue: VecDeque<EngineBatch>,
    finished: bool,
    aborted: Option<String>,
    reader_alive: bool,
}

/// A single-producer single-consumer bounded batch queue.
pub struct FifoBuffer {
    state: Mutex<FifoState>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

impl FifoBuffer {
    /// Create the buffer and its (single) reader.
    pub fn channel(capacity: usize) -> (Arc<FifoBuffer>, FifoReader) {
        let fifo = Arc::new(FifoBuffer {
            state: Mutex::new(FifoState {
                queue: VecDeque::with_capacity(capacity.min(1024)),
                finished: false,
                aborted: None,
                reader_alive: true,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        });
        let reader = FifoReader { fifo: fifo.clone() };
        (fifo, reader)
    }

    /// Push a batch; blocks while the queue is full. Fails with
    /// [`EngineError::Cancelled`] if the reader is gone, or with the abort
    /// cause if the stream was aborted.
    pub fn push(&self, batch: EngineBatch) -> Result<(), EngineError> {
        fault::maybe_delay_abort("fifo.push").map_err(EngineError::Aborted)?;
        let mut st = self.state.lock();
        loop {
            if let Some(msg) = &st.aborted {
                return Err(EngineError::Aborted(msg.clone()));
            }
            if !st.reader_alive {
                return Err(EngineError::Cancelled);
            }
            debug_assert!(!st.finished, "push after finish");
            if st.queue.len() < self.capacity {
                st.queue.push_back(batch);
                self.not_empty.notify_one();
                return Ok(());
            }
            self.not_full.wait(&mut st);
        }
    }

    /// Push a group of batches under one lock acquisition and one
    /// consumer wakeup. Sparse scans emit many tiny batches; per-batch
    /// condvar wakeups would dominate them, so producers buffer and push
    /// in groups (see `ops::EmitBuffer`). Drains `batches`; blocks while
    /// the queue is full, exactly like repeated [`Self::push`].
    pub fn push_many(&self, batches: &mut Vec<EngineBatch>) -> Result<(), EngineError> {
        fault::maybe_delay_abort("fifo.push").map_err(EngineError::Aborted)?;
        let mut st = self.state.lock();
        for batch in batches.drain(..) {
            loop {
                if let Some(msg) = &st.aborted {
                    return Err(EngineError::Aborted(msg.clone()));
                }
                if !st.reader_alive {
                    return Err(EngineError::Cancelled);
                }
                debug_assert!(!st.finished, "push after finish");
                if st.queue.len() < self.capacity {
                    st.queue.push_back(batch);
                    break;
                }
                // The queue is full, so the consumer cannot be parked on
                // `not_empty`; wake it anyway before we park (cheap, and
                // keeps the invariant obvious), then wait for space.
                self.not_empty.notify_one();
                self.not_full.wait(&mut st);
            }
        }
        self.not_empty.notify_one();
        Ok(())
    }

    /// Mark end of stream.
    pub fn finish(&self) {
        let mut st = self.state.lock();
        st.finished = true;
        self.not_empty.notify_all();
    }

    /// Abort the stream; the reader observes the error (already queued
    /// batches are discarded — consumers must not act on partial results).
    pub fn abort(&self, msg: impl Into<String>) {
        let mut st = self.state.lock();
        st.aborted = Some(msg.into());
        st.queue.clear();
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Whether the reader side has been dropped.
    pub fn reader_gone(&self) -> bool {
        !self.state.lock().reader_alive
    }

    /// Batches currently queued (test/debug).
    pub fn len(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Whether the queue is empty (test/debug).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Consumer end of a [`FifoBuffer`].
pub struct FifoReader {
    fifo: Arc<FifoBuffer>,
}

impl BatchSource for FifoReader {
    fn next_batch(&mut self) -> Result<Option<EngineBatch>, EngineError> {
        let mut st = self.fifo.state.lock();
        loop {
            if let Some(msg) = &st.aborted {
                return Err(EngineError::Aborted(msg.clone()));
            }
            if let Some(b) = st.queue.pop_front() {
                self.fifo.not_full.notify_one();
                return Ok(Some(b));
            }
            if st.finished {
                return Ok(None);
            }
            self.fifo.not_empty.wait(&mut st);
        }
    }
}

impl Drop for FifoReader {
    fn drop(&mut self) {
        let mut st = self.fifo.state.lock();
        st.reader_alive = false;
        st.queue.clear();
        // Wake a producer blocked on a full queue so it can observe
        // cancellation instead of hanging.
        self.fifo.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qs_storage::{DataType, Page, Schema, Value};
    use std::time::Duration;

    fn batch(k: i64) -> EngineBatch {
        let s = Schema::from_pairs(&[("k", DataType::Int)]);
        let page = Arc::new(Page::from_values(&s, &[vec![Value::Int(k)]]).unwrap());
        Arc::new(FactBatch::all(page))
    }

    fn key(b: &EngineBatch) -> i64 {
        b.page().row(b.sel()[0] as usize).i64_col(0)
    }

    #[test]
    fn batches_flow_in_order() {
        let (fifo, mut reader) = FifoBuffer::channel(4);
        fifo.push(batch(1)).unwrap();
        fifo.push(batch(2)).unwrap();
        fifo.finish();
        assert_eq!(key(&reader.next_batch().unwrap().unwrap()), 1);
        assert_eq!(key(&reader.next_batch().unwrap().unwrap()), 2);
        assert!(reader.next_batch().unwrap().is_none());
        // EOS is sticky
        assert!(reader.next_batch().unwrap().is_none());
    }

    #[test]
    fn push_blocks_at_capacity_until_pop() {
        let (fifo, mut reader) = FifoBuffer::channel(1);
        fifo.push(batch(1)).unwrap();
        let f2 = fifo.clone();
        let h = std::thread::spawn(move || {
            let t = std::time::Instant::now();
            f2.push(batch(2)).unwrap();
            t.elapsed()
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(key(&reader.next_batch().unwrap().unwrap()), 1);
        let waited = h.join().unwrap();
        assert!(waited >= Duration::from_millis(15), "waited {waited:?}");
        fifo.finish();
        assert_eq!(key(&reader.next_batch().unwrap().unwrap()), 2);
    }

    #[test]
    fn reader_blocks_until_push() {
        let (fifo, mut reader) = FifoBuffer::channel(4);
        let h =
            std::thread::spawn(move || key(&reader.next_batch().unwrap().unwrap()));
        std::thread::sleep(Duration::from_millis(10));
        fifo.push(batch(7)).unwrap();
        assert_eq!(h.join().unwrap(), 7);
    }

    #[test]
    fn abort_reaches_reader_and_producer() {
        let (fifo, mut reader) = FifoBuffer::channel(2);
        fifo.push(batch(1)).unwrap();
        fifo.abort("upstream failed");
        match reader.next_batch() {
            Err(EngineError::Aborted(msg)) => assert!(msg.contains("upstream")),
            other => panic!("expected abort, got {other:?}"),
        }
        assert!(matches!(
            fifo.push(batch(2)),
            Err(EngineError::Aborted(_))
        ));
    }

    #[test]
    fn dropped_reader_cancels_producer() {
        let (fifo, reader) = FifoBuffer::channel(1);
        fifo.push(batch(1)).unwrap(); // fill
        let f2 = fifo.clone();
        let h = std::thread::spawn(move || f2.push(batch(2)));
        std::thread::sleep(Duration::from_millis(10));
        drop(reader);
        assert!(matches!(h.join().unwrap(), Err(EngineError::Cancelled)));
        assert!(fifo.reader_gone());
    }
}
