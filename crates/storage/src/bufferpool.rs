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
//!
//! A sequential reader that knows its next pages (CJOIN's circular fact
//! scan) can ask for them early with [`BufferPool::read_ahead`]. The load
//! goes through the same single-flight entry as [`BufferPool::get`], so a
//! page is never read twice, and runs on the pool's reader threads, so up
//! to [`BufferPool::read_ahead_window`] reads use the disk's spindles at
//! once instead of one after the other. A memory-resident or cacheless
//! pool has a window of zero: it starts no reader and read-ahead is a
//! no-op.

use crate::disk::DiskModel;
use crate::error::StorageError;
use crate::fault;
use crate::page::{Page, PageId};
use crate::table::Table;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;

/// Upper bound on the read-ahead window, whatever the spindle count.
const MAX_READ_AHEAD: usize = 16;

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
    /// Loads issued by [`BufferPool::read_ahead`]. Each is also a miss,
    /// and the later `get` it served counts a hit, so `hits − read_ahead`
    /// is the number of accesses the pool's residency served.
    pub read_ahead: u64,
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

/// The pool's state, shared with its reader threads.
struct Shared {
    disk: Arc<DiskModel>,
    capacity: usize,
    inner: Mutex<Inner>,
    loaded: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    read_ahead: AtomicU64,
}

/// A read-ahead request: page `.1` of table `.0`.
type Job = (Arc<Table>, usize);

/// The reader threads and their queue, started on first read-ahead.
struct Readers {
    queue: mpsc::Sender<Job>,
    threads: Vec<JoinHandle<()>>,
}

/// The buffer pool. Cheap to share (`Arc<BufferPool>`); all methods take
/// `&self`. Dropping it joins its reader threads.
pub struct BufferPool {
    shared: Arc<Shared>,
    readers: OnceLock<Readers>,
}

impl BufferPool {
    /// Create a pool over the given simulated disk.
    pub fn new(config: BufferPoolConfig, disk: Arc<DiskModel>) -> Self {
        BufferPool {
            shared: Arc::new(Shared {
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
                read_ahead: AtomicU64::new(0),
            }),
            readers: OnceLock::new(),
        }
    }

    /// The disk this pool reads from.
    pub fn disk(&self) -> &Arc<DiskModel> {
        &self.shared.disk
    }

    /// Fetch page `page_no` of `table`, reading through the simulated disk
    /// on a miss. Concurrent misses for the same page are collapsed into a
    /// single simulated read. A read failure (only the `disk.read`
    /// failpoint in this in-process model) surfaces as
    /// [`StorageError::Io`] to the caller that drew it; hits never fail.
    pub fn get(&self, table: &Table, page_no: usize) -> Result<Arc<Page>, StorageError> {
        let shared = &self.shared;
        let pid = table.page_id(page_no);

        if shared.capacity == 0 {
            // Cache disabled: always charge the disk, sized to the page's
            // encoded bytes (compressed columnar pages read faster).
            shared.misses.fetch_add(1, Ordering::Relaxed);
            fault::maybe_io("disk.read", "uncached page read")?;
            let page = table.raw_page(page_no).clone();
            shared.disk.read_page_sized(page.byte_len());
            return Ok(page);
        }

        loop {
            let mut inner = shared.inner.lock();
            match inner.map.get(&pid) {
                Some(Entry::Resident(idx)) => {
                    let idx = *idx;
                    inner.frames[idx].ref_bit = true;
                    shared.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(inner.frames[idx].page.clone());
                }
                Some(Entry::Loading) => {
                    // Another thread is reading it; wait for the frame.
                    shared.loaded.wait(&mut inner);
                }
                None => {
                    inner.map.insert(pid, Entry::Loading);
                    shared.misses.fetch_add(1, Ordering::Relaxed);
                    drop(inner);
                    return shared.load(table, page_no, pid);
                }
            }
        }
    }

    /// Start loading page `page_no` of `table` in the background, so that
    /// a later [`BufferPool::get`] finds it resident or in flight. Does
    /// nothing when the page is resident or already loading, or when the
    /// pool has no read-ahead window. A failed load is dropped and its
    /// entry cleared: the next `get` reads the page itself, and only that
    /// read's error reaches a caller.
    pub fn read_ahead(&self, table: &Arc<Table>, page_no: usize) {
        let Some(readers) = self.readers() else {
            return;
        };
        let pid = table.page_id(page_no);
        {
            let mut inner = self.shared.inner.lock();
            if inner.map.contains_key(&pid) {
                return;
            }
            inner.map.insert(pid, Entry::Loading);
        }
        self.shared.misses.fetch_add(1, Ordering::Relaxed);
        self.shared.read_ahead.fetch_add(1, Ordering::Relaxed);
        // The readers outlive every `&self`, so the send cannot fail.
        let _ = readers.queue.send((table.clone(), page_no));
    }

    /// How many pages a sequential reader should keep in flight ahead of
    /// its position: one per spindle, at most a quarter of the pool and
    /// at most 16. Zero for a disk without latency or a pool without
    /// frames.
    ///
    /// Why a quarter: clock evicts a page only once its hand has passed
    /// it twice, `2 × capacity − 1` steps after placing it, and each step
    /// either clears a reference bit or evicts. A page read ahead is used
    /// after at most `window` more placements and `window` gets, which
    /// set at most `2 × window` bits on top of the `capacity` already
    /// set, so the hand moves at most `capacity + 3 × window` steps. With
    /// the window at most a quarter of a pool of more than four frames
    /// that falls short of two passes: while the scan is the pool's only
    /// reader, no page it read ahead is evicted unused.
    pub fn read_ahead_window(&self) -> usize {
        let disk = self.shared.disk.config();
        if disk.latency.is_zero() {
            return 0;
        }
        disk.spindles
            .min(self.shared.capacity / 4)
            .min(MAX_READ_AHEAD)
    }

    /// Number of reader threads this pool has started (test/debug).
    pub fn reader_threads(&self) -> usize {
        self.readers.get().map_or(0, |r| r.threads.len())
    }

    /// The reader threads, started on first use: one per page of the
    /// read-ahead window. `None` when the window is zero or the OS refused
    /// every thread.
    fn readers(&self) -> Option<&Readers> {
        let window = self.read_ahead_window();
        if window == 0 {
            return None;
        }
        let readers = self.readers.get_or_init(|| {
            let (queue, jobs) = mpsc::channel::<Job>();
            let jobs = Arc::new(std::sync::Mutex::new(jobs));
            let threads = (0..window)
                .filter_map(|i| {
                    let (shared, jobs) = (self.shared.clone(), jobs.clone());
                    std::thread::Builder::new()
                        .name(format!("qs-read-ahead-{i}"))
                        .spawn(move || loop {
                            let job = jobs.lock().unwrap_or_else(|p| p.into_inner()).recv();
                            let Ok((table, page_no)) = job else {
                                break; // the pool was dropped
                            };
                            let pid = table.page_id(page_no);
                            let _ = shared.load(&table, page_no, pid);
                        })
                        .ok()
                })
                .collect();
            Readers { queue, threads }
        });
        (!readers.threads.is_empty()).then_some(readers)
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> BufferPoolStats {
        let shared = &self.shared;
        BufferPoolStats {
            hits: shared.hits.load(Ordering::Relaxed),
            misses: shared.misses.load(Ordering::Relaxed),
            evictions: shared.evictions.load(Ordering::Relaxed),
            read_ahead: shared.read_ahead.load(Ordering::Relaxed),
        }
    }

    /// Reset the counters (between experiment points). Resident pages are
    /// kept; call [`BufferPool::clear`] to drop them too.
    pub fn reset_stats(&self) {
        let shared = &self.shared;
        shared.hits.store(0, Ordering::Relaxed);
        shared.misses.store(0, Ordering::Relaxed);
        shared.evictions.store(0, Ordering::Relaxed);
        shared.read_ahead.store(0, Ordering::Relaxed);
    }

    /// Drop every resident page (cold-start a scenario).
    pub fn clear(&self) {
        let mut inner = self.shared.inner.lock();
        inner.frames.clear();
        inner.map.clear();
        inner.hand = 0;
    }

    /// Number of frames currently resident.
    pub fn resident_pages(&self) -> usize {
        self.shared.inner.lock().frames.len()
    }
}

impl Drop for BufferPool {
    fn drop(&mut self) {
        // Closing the queue stops each reader after its current load.
        if let Some(Readers { queue, threads }) = self.readers.take() {
            drop(queue);
            for t in threads {
                let _ = t.join();
            }
        }
    }
}

impl Shared {
    /// Read a page whose `Loading` entry the caller inserted, then install
    /// it or — on a read failure — remove the entry, waking the waiters
    /// either way. The read happens outside the pool lock so reads on
    /// different spindles overlap; the charge scales with the page's
    /// encoded size (columnar compression buys I/O time).
    fn load(&self, table: &Table, page_no: usize, pid: PageId) -> Result<Arc<Page>, StorageError> {
        let read = fault::maybe_io("disk.read", "page read").map(|()| {
            let page = table.raw_page(page_no).clone();
            self.disk.read_page_sized(page.byte_len());
            page
        });
        let mut inner = self.inner.lock();
        match &read {
            Ok(page) => self.place(&mut inner, pid, page.clone()),
            // The `Loading` entry must not outlive the failed read or
            // every waiter blocks forever. Clearing it makes the next
            // caller retry the load fresh.
            Err(_) => {
                inner.map.remove(&pid);
            }
        }
        self.loaded.notify_all();
        read
    }

    /// Install `page` into a frame, evicting if at capacity. Caller holds
    /// the lock.
    fn place(&self, inner: &mut Inner, pid: PageId, page: Arc<Page>) {
        if inner.frames.len() < self.capacity {
            let idx = inner.frames.len();
            inner.frames.push(Frame {
                key: pid,
                page,
                ref_bit: true,
            });
            inner.map.insert(pid, Entry::Resident(idx));
            return;
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
            ..Default::default()
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

    fn slow_disk(spindles: usize) -> Arc<DiskModel> {
        Arc::new(DiskModel::new(DiskConfig {
            spindles,
            latency: std::time::Duration::from_micros(200),
        }))
    }

    /// One revolution of a sequential scan that keeps `window` pages
    /// loading ahead of its position, as CJOIN's fact scan does.
    fn scan_with_read_ahead(pool: &BufferPool, t: &Arc<Table>) {
        let window = pool.read_ahead_window();
        for pos in 0..t.page_count() {
            if pos == 0 {
                (1..=window).for_each(|p| pool.read_ahead(t, p));
            } else if pos + window < t.page_count() {
                pool.read_ahead(t, pos + window);
            }
            assert_eq!(pool.get(t, pos).unwrap().rows(), 4);
        }
    }

    #[test]
    fn read_ahead_revolution_reads_every_page_once() {
        let _g = fault::test_guard();
        fault::disarm();
        // 20 pages, and a pool of 16 frames: pages are evicted behind the
        // scan, never ahead of it.
        let t = Arc::new(table(80, 32));
        let pool = BufferPool::new(BufferPoolConfig::with_capacity(16), slow_disk(4));
        assert_eq!(pool.read_ahead_window(), 4);
        scan_with_read_ahead(&pool, &t);
        assert_eq!(
            pool.disk().stats().reads,
            20,
            "every page read exactly once"
        );
        assert_eq!(pool.reader_threads(), 4);
        let s = pool.stats();
        // Page 0 was the scan's own miss; pages 1..20 were read ahead,
        // and each of those `get`s found its page resident or in flight.
        assert_eq!((s.read_ahead, s.misses, s.hits), (19, 20, 19));
        assert_eq!(
            s.hits - s.read_ahead,
            0,
            "no access was served by residency"
        );
        // Reading ahead a resident page issues nothing.
        pool.read_ahead(&t, 19);
        assert_eq!(pool.stats().read_ahead, 19);
        assert_eq!(pool.disk().stats().reads, 20);
    }

    #[test]
    fn read_ahead_window_is_zero_without_latency_or_frames() {
        let _g = fault::test_guard();
        fault::disarm();
        let t = Arc::new(table(80, 32));
        let pools = [
            BufferPool::new(BufferPoolConfig::unbounded(), mem_disk()),
            BufferPool::new(BufferPoolConfig::with_capacity(0), slow_disk(4)),
            BufferPool::new(BufferPoolConfig::with_capacity(3), slow_disk(4)),
        ];
        for pool in &pools {
            assert_eq!(pool.read_ahead_window(), 0);
            scan_with_read_ahead(pool, &t);
            assert_eq!(pool.reader_threads(), 0, "no reader thread started");
            assert_eq!(pool.stats().read_ahead, 0);
        }
        // The window is one page per spindle, at most a quarter of the
        // pool and at most 16.
        let window = |cap, spindles| {
            BufferPool::new(BufferPoolConfig::with_capacity(cap), slow_disk(spindles))
                .read_ahead_window()
        };
        assert_eq!(window(1000, 7), 7);
        assert_eq!(window(12, 7), 3);
        assert_eq!(window(1000, 64), 16);
    }

    #[test]
    fn failed_read_ahead_is_dropped_and_the_get_reads_itself() {
        let _g = fault::test_guard();
        let t = Arc::new(table(8, 32)); // 2 pages
        let pool = BufferPool::new(BufferPoolConfig::with_capacity(4), slow_disk(2));
        fault::arm(1, &[("disk.read", fault::FaultSpec::prob(1.0))]);
        pool.read_ahead(&t, 1);
        // Wait for the reader to draw the fault (a bounded wait: the
        // load starts as soon as a reader takes the request).
        let start = std::time::Instant::now();
        while fault::fired("disk.read") == 0 {
            assert!(start.elapsed() < std::time::Duration::from_secs(10));
            std::thread::yield_now();
        }
        fault::disarm();
        // The failed load left no entry and no error behind: the `get`
        // misses and reads the page itself.
        assert_eq!(pool.get(&t, 1).unwrap().rows(), 4);
        let s = pool.stats();
        assert_eq!((s.read_ahead, s.misses, s.hits), (1, 2, 0));
        assert_eq!(pool.disk().stats().reads, 1);
    }

    #[test]
    fn dropping_the_pool_joins_its_readers() {
        let _g = fault::test_guard();
        fault::disarm();
        let t = Arc::new(table(80, 32));
        let pool = BufferPool::new(BufferPoolConfig::with_capacity(8), slow_disk(4));
        (0..4).for_each(|p| pool.read_ahead(&t, p));
        let disk = pool.disk().clone();
        drop(pool);
        // Every queued load finished before the drop returned.
        assert_eq!(disk.stats().reads, 4);
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
