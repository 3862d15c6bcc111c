//! The Shared Pages List — the paper's pull-based SP data structure.
//!
//! The SPL replaces per-consumer FIFO buffers with one shared,
//! reference-counted list of batches: the single producer *appends* each
//! [`EngineBatch`] once, and every consumer advances its own cursor over
//! the list at its own pace. Sharing a batch is an `Arc` clone, not a
//! copy, so adding a consumer adds no work to the producer — this
//! eliminates the serialization point of push-based SP (paper §3, "Shared
//! Pages List").
//!
//! Consumers can attach at any time before the producer finishes and
//! always see the *complete* stream (the list retains all batches while
//! readers may still need them), which also widens the SP window compared
//! with the strict push-mode window.
//!
//! Trade-off, as in the paper: the SPL is unbounded — a slow consumer
//! does not throttle the producer, it just keeps batches (and their
//! underlying pages) alive longer.

use crate::error::EngineError;
use crate::fifo::{BatchSource, EngineBatch};
use parking_lot::{Condvar, Mutex};
use qs_storage::fault;

struct SplState {
    batches: Vec<EngineBatch>,
    finished: bool,
    aborted: Option<String>,
}

/// Single-producer, multi-consumer shared list of batches.
pub struct SharedPagesList {
    state: Mutex<SplState>,
    appended: Condvar,
}

impl SharedPagesList {
    /// New, empty list.
    pub fn new() -> std::sync::Arc<Self> {
        std::sync::Arc::new(SharedPagesList {
            state: Mutex::new(SplState {
                batches: Vec::new(),
                finished: false,
                aborted: None,
            }),
            appended: Condvar::new(),
        })
    }

    /// Append a batch (producer side). A no-op error after abort.
    pub fn append(&self, batch: EngineBatch) -> Result<(), EngineError> {
        fault::maybe_delay_abort("spl.append").map_err(EngineError::Aborted)?;
        let mut st = self.state.lock();
        if let Some(msg) = &st.aborted {
            return Err(EngineError::Aborted(msg.clone()));
        }
        debug_assert!(!st.finished, "append after finish");
        st.batches.push(batch);
        self.appended.notify_all();
        Ok(())
    }

    /// Append a group of batches under one lock acquisition and one
    /// reader broadcast (the group form of [`Self::append`]; sparse scans
    /// buffer tiny batches so readers are not woken per page). Drains
    /// `batches`.
    pub fn append_many(&self, batches: &mut Vec<EngineBatch>) -> Result<(), EngineError> {
        fault::maybe_delay_abort("spl.append").map_err(EngineError::Aborted)?;
        let mut st = self.state.lock();
        if let Some(msg) = &st.aborted {
            return Err(EngineError::Aborted(msg.clone()));
        }
        debug_assert!(!st.finished, "append after finish");
        st.batches.append(batches);
        self.appended.notify_all();
        Ok(())
    }

    /// Mark end of stream.
    pub fn finish(&self) {
        let mut st = self.state.lock();
        st.finished = true;
        self.appended.notify_all();
    }

    /// Abort the stream; all readers observe the error.
    pub fn abort(&self, msg: impl Into<String>) {
        let mut st = self.state.lock();
        st.aborted = Some(msg.into());
        self.appended.notify_all();
    }

    /// Attach a reader positioned at the start of the list.
    pub fn reader(self: &std::sync::Arc<Self>) -> SplReader {
        SplReader {
            spl: self.clone(),
            cursor: 0,
        }
    }

    /// Number of batches currently in the list.
    pub fn len(&self) -> usize {
        self.state.lock().batches.len()
    }

    /// Whether no batch has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the producer has finished.
    pub fn is_finished(&self) -> bool {
        self.state.lock().finished
    }
}

/// A consumer cursor over a [`SharedPagesList`].
pub struct SplReader {
    spl: std::sync::Arc<SharedPagesList>,
    cursor: usize,
}

impl SplReader {
    /// Batches this reader has consumed so far.
    pub fn position(&self) -> usize {
        self.cursor
    }
}

impl BatchSource for SplReader {
    fn next_batch(&mut self) -> Result<Option<EngineBatch>, EngineError> {
        let mut st = self.spl.state.lock();
        loop {
            if let Some(msg) = &st.aborted {
                return Err(EngineError::Aborted(msg.clone()));
            }
            if self.cursor < st.batches.len() {
                let b = st.batches[self.cursor].clone();
                self.cursor += 1;
                return Ok(Some(b));
            }
            if st.finished {
                return Ok(None);
            }
            self.spl.appended.wait(&mut st);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qs_storage::{DataType, FactBatch, Page, Schema, Value};
    use std::sync::Arc;
    use std::time::Duration;

    fn batch(k: i64) -> EngineBatch {
        let s = Schema::from_pairs(&[("k", DataType::Int)]);
        let page = Arc::new(Page::from_values(&s, &[vec![Value::Int(k)]]).unwrap());
        Arc::new(FactBatch::all(page))
    }

    fn key(b: &EngineBatch) -> i64 {
        b.page().row(b.sel()[0] as usize).i64_col(0)
    }

    fn drain(mut r: SplReader) -> Vec<i64> {
        let mut out = Vec::new();
        while let Some(b) = r.next_batch().unwrap() {
            out.push(key(&b));
        }
        out
    }

    #[test]
    fn all_consumers_see_identical_streams_without_copies() {
        let spl = SharedPagesList::new();
        let r1 = spl.reader();
        let r2 = spl.reader();
        let b1 = batch(1);
        let b2 = batch(2);
        spl.append(b1.clone()).unwrap();
        spl.append(b2.clone()).unwrap();
        spl.finish();
        let a = drain(r1);
        let b = drain(r2);
        assert_eq!(a, vec![1, 2]);
        assert_eq!(a, b);
        // Zero copies: every reader sees the same batch allocation (and
        // therefore the same underlying page).
        let mut r3 = spl.reader();
        let got = r3.next_batch().unwrap().unwrap();
        assert!(Arc::ptr_eq(&got, &b1));
        assert!(Arc::ptr_eq(got.page(), b1.page()));
    }

    #[test]
    fn late_attach_sees_full_history() {
        let spl = SharedPagesList::new();
        spl.append(batch(1)).unwrap();
        spl.append(batch(2)).unwrap();
        let late = spl.reader(); // attaches after 2 batches produced
        spl.append(batch(3)).unwrap();
        spl.finish();
        assert_eq!(drain(late), vec![1, 2, 3]);
    }

    #[test]
    fn consumers_progress_independently() {
        let spl = SharedPagesList::new();
        let mut fast = spl.reader();
        let mut slow = spl.reader();
        spl.append(batch(1)).unwrap();
        spl.append(batch(2)).unwrap();
        assert_eq!(key(&fast.next_batch().unwrap().unwrap()), 1);
        assert_eq!(key(&fast.next_batch().unwrap().unwrap()), 2);
        assert_eq!(fast.position(), 2);
        assert_eq!(slow.position(), 0);
        assert_eq!(key(&slow.next_batch().unwrap().unwrap()), 1);
        spl.finish();
        assert!(fast.next_batch().unwrap().is_none());
        assert_eq!(key(&slow.next_batch().unwrap().unwrap()), 2);
        assert!(slow.next_batch().unwrap().is_none());
    }

    #[test]
    fn reader_blocks_until_producer_appends() {
        let spl = SharedPagesList::new();
        let mut r = spl.reader();
        let spl2 = spl.clone();
        let h =
            std::thread::spawn(move || key(&r.next_batch().unwrap().unwrap()));
        std::thread::sleep(Duration::from_millis(10));
        spl2.append(batch(9)).unwrap();
        assert_eq!(h.join().unwrap(), 9);
    }

    #[test]
    fn abort_propagates_to_all_readers() {
        let spl = SharedPagesList::new();
        let mut r1 = spl.reader();
        let mut r2 = spl.reader();
        spl.append(batch(1)).unwrap();
        spl.abort("boom");
        assert!(matches!(r1.next_batch(), Err(EngineError::Aborted(_))));
        assert!(matches!(r2.next_batch(), Err(EngineError::Aborted(_))));
        assert!(matches!(
            spl.append(batch(2)),
            Err(EngineError::Aborted(_))
        ));
    }

    #[test]
    fn concurrent_producer_and_many_consumers() {
        let spl = SharedPagesList::new();
        let readers: Vec<_> = (0..8).map(|_| spl.reader()).collect();
        let producer = {
            let spl = spl.clone();
            std::thread::spawn(move || {
                for i in 0..100 {
                    spl.append(batch(i)).unwrap();
                }
                spl.finish();
            })
        };
        let hs: Vec<_> = readers
            .into_iter()
            .map(|r| std::thread::spawn(move || drain(r)))
            .collect();
        producer.join().unwrap();
        let expect: Vec<i64> = (0..100).collect();
        for h in hs {
            assert_eq!(h.join().unwrap(), expect);
        }
    }
}
