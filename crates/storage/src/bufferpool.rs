//! Buffer pool with clock (second-chance) eviction and single-flight page
//! loads.
//!
//! Pages are immutable and shared via `Arc`, so eviction never invalidates
//! a reader that already holds a page — it only drops the pool's cached
//! reference, forcing the next access to pay the simulated disk cost. This
//! is precisely the distinction the demo's "memory-resident vs
//! disk-resident" and "buffer-pool size" knobs control.
//!
//! Concurrent misses on the same page are collapsed ("single flight"): one
//! thread performs the simulated read while the rest wait, mirroring how a
//! real buffer pool latches an in-flight frame. Without this, N concurrent
//! scans of the same table would charge N disk reads per page and shared
//! scans would lose their I/O benefit.

use crate::disk::DiskModel;
use crate::error::StorageError;
use crate::fault;
use crate::page::{Page, PageId};
use crate::table::Table;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Buffer pool configuration.
#[derive(Debug, Clone)]
pub struct BufferPoolConfig {
    /// Number of page frames. `0` disables caching entirely (every access
    /// is a miss — useful for stress tests).
    pub capacity_pages: usize,
}

impl BufferPoolConfig {
    /// A pool big enough to hold everything (memory-resident database).
    pub fn unbounded() -> Self {
        BufferPoolConfig {
            capacity_pages: usize::MAX / 2,
        }
    }

    /// A pool of exactly `capacity_pages` frames.
    pub fn with_capacity(capacity_pages: usize) -> Self {
        BufferPoolConfig { capacity_pages }
    }
}

/// Counters exposed by the pool.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Accesses served from a resident frame.
    pub hits: u64,
    /// Accesses that had to read from disk.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
}

impl BufferPoolStats {
    /// Hit ratio in `[0, 1]`; `1.0` for an untouched pool.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Frame {
    key: PageId,
    page: Arc<Page>,
    ref_bit: bool,
}

enum Entry {
    /// A thread is currently reading this page from disk.
    Loading,
    /// Resident in `frames[idx]`.
    Resident(usize),
}

struct Inner {
    frames: Vec<Frame>,
    map: HashMap<PageId, Entry>,
    hand: usize,
}

/// The buffer pool. Cheap to share (`Arc<BufferPool>`); all methods take
/// `&self`.
pub struct BufferPool {
    disk: Arc<DiskModel>,
    capacity: usize,
    inner: Mutex<Inner>,
    loaded: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl BufferPool {
    /// Create a pool over the given simulated disk.
    pub fn new(config: BufferPoolConfig, disk: Arc<DiskModel>) -> Self {
        BufferPool {
            disk,
            capacity: config.capacity_pages,
            inner: Mutex::new(Inner {
                frames: Vec::new(),
                map: HashMap::new(),
                hand: 0,
            }),
            loaded: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The disk this pool reads from.
    pub fn disk(&self) -> &Arc<DiskModel> {
        &self.disk
    }

    /// Fetch page `page_no` of `table`, reading through the simulated disk
    /// on a miss. Concurrent misses for the same page are collapsed into a
    /// single simulated read. A read failure (only the `disk.read`
    /// failpoint in this in-process model) surfaces as
    /// [`StorageError::Io`] to the caller that drew it; hits never fail.
    pub fn get(&self, table: &Table, page_no: usize) -> Result<Arc<Page>, StorageError> {
        let pid = table.page_id(page_no);

        if self.capacity == 0 {
            // Cache disabled: always charge the disk, sized to the page's
            // encoded bytes (compressed columnar pages read faster).
            self.misses.fetch_add(1, Ordering::Relaxed);
            fault::maybe_io("disk.read", "uncached page read")?;
            let page = table.raw_page(page_no).clone();
            self.disk.read_page_sized(page.byte_len());
            return Ok(page);
        }

        loop {
            {
                let mut inner = self.inner.lock();
                match inner.map.get(&pid) {
                    Some(Entry::Resident(idx)) => {
                        let idx = *idx;
                        inner.frames[idx].ref_bit = true;
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(inner.frames[idx].page.clone());
                    }
                    Some(Entry::Loading) => {
                        // Another thread is reading it; wait for the frame.
                        self.loaded.wait(&mut inner);
                        continue;
                    }
                    None => {
                        inner.map.insert(pid, Entry::Loading);
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        // fall through to perform the read outside the lock
                    }
                }
            }

            // Simulated I/O happens outside the pool lock so reads on
            // different spindles overlap; the charge scales with the
            // page's encoded size (columnar compression buys I/O time).
            let read = fault::maybe_io("disk.read", "page read").map(|()| {
                let page = table.raw_page(page_no).clone();
                self.disk.read_page_sized(page.byte_len());
                page
            });

            let mut inner = self.inner.lock();
            match read {
                Ok(page) => {
                    let idx = self.place(&mut inner, pid, page.clone());
                    debug_assert!(idx < inner.frames.len());
                    self.loaded.notify_all();
                    return Ok(page);
                }
                Err(e) => {
                    // We own the `Loading` entry; it must not outlive the
                    // failed read or every waiter blocks forever. Clearing
                    // it makes the next caller retry the load fresh.
                    inner.map.remove(&pid);
                    self.loaded.notify_all();
                    return Err(e);
                }
            }
        }
    }

    /// Install `page` into a frame, evicting if at capacity. Returns the
    /// frame index. Caller holds the lock.
    fn place(&self, inner: &mut Inner, pid: PageId, page: Arc<Page>) -> usize {
        if inner.frames.len() < self.capacity {
            let idx = inner.frames.len();
            inner.frames.push(Frame {
                key: pid,
                page,
                ref_bit: true,
            });
            inner.map.insert(pid, Entry::Resident(idx));
            return idx;
        }
        // Clock sweep: clear reference bits until a victim is found. With
        // immutable Arc pages every resident frame is evictable, so the
        // sweep terminates within two passes.
        let n = inner.frames.len();
        debug_assert!(n > 0, "capacity >= 1 checked by caller");
        let idx = loop {
            let hand = inner.hand;
            inner.hand = (inner.hand + 1) % n;
            if inner.frames[hand].ref_bit {
                inner.frames[hand].ref_bit = false;
            } else {
                break hand;
            }
        };
        let old = inner.frames[idx].key;
        inner.map.remove(&old);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        inner.frames[idx] = Frame {
            key: pid,
            page,
            ref_bit: true,
        };
        inner.map.insert(pid, Entry::Resident(idx));
        idx
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> BufferPoolStats {
        BufferPoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Reset the counters (between experiment points). Resident pages are
    /// kept; call [`BufferPool::clear`] to drop them too.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// Drop every resident page (cold-start a scenario).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.frames.clear();
        inner.map.clear();
        inner.hand = 0;
    }

    /// Number of frames currently resident.
    pub fn resident_pages(&self) -> usize {
        self.inner.lock().frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskConfig;
    use crate::schema::Schema;
    use crate::table::{Table, TableBuilder};
    use crate::value::{DataType, Value};

    fn table(rows: i64, page_bytes: usize) -> Table {
        let schema = Schema::from_pairs(&[("k", DataType::Int)]);
        let mut b = TableBuilder::with_page_bytes("t", schema, page_bytes);
        for i in 0..rows {
            b.push_values(&[Value::Int(i)]).unwrap();
        }
        let (name, sch, pages) = b.into_parts();
        Table::new(1, name, sch, pages)
    }

    fn mem_disk() -> Arc<DiskModel> {
        Arc::new(DiskModel::new(DiskConfig::memory_resident()))
    }

    #[test]
    fn hit_after_miss() {
        let _g = fault::test_guard();
        fault::disarm();
        let t = table(8, 32); // 2 pages
        let pool = BufferPool::new(BufferPoolConfig::with_capacity(4), mem_disk());
        let p0 = pool.get(&t, 0).unwrap();
        assert_eq!(p0.rows(), 4);
        let p0b = pool.get(&t, 0).unwrap();
        assert!(Arc::ptr_eq(&p0, &p0b));
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert_eq!(pool.disk().stats().reads, 1);
    }

    #[test]
    fn eviction_at_capacity_clock_order() {
        let _g = fault::test_guard();
        fault::disarm();
        let t = table(16, 32); // 4 pages
        let pool = BufferPool::new(BufferPoolConfig::with_capacity(2), mem_disk());
        pool.get(&t, 0).unwrap();
        pool.get(&t, 1).unwrap();
        assert_eq!(pool.resident_pages(), 2);
        pool.get(&t, 2).unwrap(); // evicts one of {0,1}
        let s = pool.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(pool.resident_pages(), 2);
        // the page read again is a miss for whichever got evicted
        pool.get(&t, 0).unwrap();
        pool.get(&t, 1).unwrap();
        assert!(pool.stats().misses >= 4);
    }

    #[test]
    fn zero_capacity_always_misses() {
        let _g = fault::test_guard();
        fault::disarm();
        let t = table(4, 32);
        let pool = BufferPool::new(BufferPoolConfig::with_capacity(0), mem_disk());
        pool.get(&t, 0).unwrap();
        pool.get(&t, 0).unwrap();
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (0, 2));
        assert_eq!(pool.disk().stats().reads, 2);
    }

    #[test]
    fn hit_ratio_math() {
        let s = BufferPoolStats {
            hits: 3,
            misses: 1,
            evictions: 0,
        };
        assert!((s.hit_ratio() - 0.75).abs() < 1e-9);
        assert_eq!(BufferPoolStats::default().hit_ratio(), 1.0);
    }

    #[test]
    fn concurrent_same_page_single_flight() {
        let _g = fault::test_guard();
        fault::disarm();
        use std::sync::Arc as A;
        let t = A::new(table(4, 32));
        let disk = Arc::new(DiskModel::new(DiskConfig {
            spindles: 1,
            latency: std::time::Duration::from_millis(5),
        }));
        let pool = A::new(BufferPool::new(BufferPoolConfig::with_capacity(4), disk));
        let hs: Vec<_> = (0..8)
            .map(|_| {
                let t = t.clone();
                let pool = pool.clone();
                std::thread::spawn(move || pool.get(&t, 0).unwrap().rows())
            })
            .collect();
        for h in hs {
            assert_eq!(h.join().unwrap(), 4);
        }
        // Exactly one simulated read despite 8 concurrent requests.
        assert_eq!(pool.disk().stats().reads, 1);
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.stats().hits, 7);
    }

    #[test]
    fn injected_read_fault_is_typed_and_recoverable() {
        let _g = fault::test_guard();
        let t = table(8, 32); // 2 pages
        let pool = BufferPool::new(BufferPoolConfig::with_capacity(4), mem_disk());
        fault::arm(1, &[("disk.read", fault::FaultSpec::prob(1.0))]);
        let err = pool.get(&t, 0).unwrap_err();
        assert!(matches!(err, StorageError::Io(_)), "{err:?}");
        fault::disarm();
        // The failed load must not leave a stuck `Loading` entry: the
        // same page is readable again once the fault clears.
        assert_eq!(pool.get(&t, 0).unwrap().rows(), 4);
    }

    #[test]
    fn clear_drops_residency() {
        let _g = fault::test_guard();
        fault::disarm();
        let t = table(8, 32);
        let pool = BufferPool::new(BufferPoolConfig::unbounded(), mem_disk());
        pool.get(&t, 0).unwrap();
        assert_eq!(pool.resident_pages(), 1);
        pool.clear();
        assert_eq!(pool.resident_pages(), 0);
        pool.get(&t, 0).unwrap();
        assert_eq!(pool.stats().misses, 2);
    }
}
