//! Morsel-driven worker pool — the fixed set of threads the engine fans
//! intra-operator work across (SIGMOD-2014-contest style fine-grained
//! task parallelism; see the morsel-driven analysis cited in PAPERS.md).
//!
//! One [`WorkerPool`] is built per engine from the `--workers` knob and
//! shared through [`crate::ops::ExecCtx`] by every consumer: parallel
//! group-slot resolution ([`crate::group::GroupTable`]), the parallel
//! shared scan ([`crate::ops`]), and the CJOIN preprocessor's per-chunk
//! admission evaluation (`qs-cjoin`). The design goals, in order:
//!
//! 1. **Scoped**: [`WorkerPool::run`] accepts closures borrowing the
//!    caller's stack and does not return until every task has finished
//!    executing, so callers hand out disjoint `&mut` output slots with
//!    no `Arc`/channel ceremony per batch.
//! 2. **Deadlock-free under nesting**: the submitting thread always
//!    executes tasks itself while it waits, so a `run` completes even
//!    when every pool thread is busy serving another operator (or when
//!    the pool has no threads at all — `workers = 1` runs everything
//!    inline on the caller).
//! 3. **Contained**: a panicking task is caught by the same belt as the
//!    stage workers ([`crate::stage::contain_panic`]); `run` reports it
//!    as an [`EngineError::Aborted`] for the *calling* query only, after
//!    all sibling tasks have still run to completion (their borrows must
//!    not outlive a poisoned early return).
//! 4. **Observable**: `pool_tasks` counts every executed morsel,
//!    `pool_steals` the ones an executor took from another executor's
//!    queue, and the `pool.task` failpoint (delay + abort variants)
//!    injects scheduling stalls and task aborts under the chaos harness.
//!
//! Worker threads are persistent for the life of the pool, so
//! caller-side per-worker scratch (`thread_local!` buffers, or arrays
//! indexed by morsel id) is genuinely reused across batches instead of
//! reallocated per `run`.

use crate::error::EngineError;
use crate::metrics::Metrics;
use crate::stage::contain_panic;
use parking_lot::{Condvar, Mutex};
use qs_storage::fault;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

/// One scoped morsel: a closure borrowing from the submitting stack.
pub type Task<'scope> = Box<dyn FnOnce() + Send + 'scope>;

/// Erased task stored while a run is in flight. Safety: consumed before
/// the owning [`WorkerPool::run`] returns (see the transmute there).
type ErasedTask = Box<dyn FnOnce() + Send + 'static>;

struct RunDone {
    completed: usize,
    failed: Option<String>,
}

/// Shared state of one `run` call: per-executor task queues plus the
/// completion latch the submitting thread blocks on.
struct RunState {
    queues: Vec<Mutex<VecDeque<ErasedTask>>>,
    total: usize,
    done: Mutex<RunDone>,
    all_done: Condvar,
    metrics: Arc<Metrics>,
}

impl RunState {
    /// Drain the home queue, then steal from siblings until no task is
    /// left anywhere. Every executor (pool thread or submitter) runs
    /// this; `home` picks the queue it owns.
    fn work(&self, home: usize) {
        let nq = self.queues.len();
        loop {
            let mut ran = false;
            for k in 0..nq {
                let qi = (home + k) % nq;
                let task = self.queues[qi].lock().pop_front();
                if let Some(task) = task {
                    if k != 0 {
                        self.metrics.pool_steals.fetch_add(1, Ordering::Relaxed);
                    }
                    self.exec(task);
                    ran = true;
                    break;
                }
            }
            if !ran {
                return;
            }
        }
    }

    /// Execute one task under the failpoint and the panic belt, then
    /// count it toward the completion latch. A failure never stops the
    /// run: sibling tasks still execute (their borrows stay valid), and
    /// the first failure message becomes the run's error.
    fn exec(&self, task: ErasedTask) {
        self.metrics.pool_tasks.fetch_add(1, Ordering::Relaxed);
        // An injected abort drops the task unexecuted and fails the run,
        // exactly like a panic — the caller must discard the batch's
        // outputs either way.
        let res = fault::maybe_delay_abort("pool.task")
            .and_then(|()| contain_panic(&self.metrics, "pool task", task));
        let mut done = self.done.lock();
        done.completed += 1;
        if let Err(msg) = res {
            done.failed.get_or_insert(msg);
        }
        if done.completed == self.total {
            self.all_done.notify_all();
        }
    }
}

/// Pending (run, home-queue) assignments plus the shutdown flag.
type JobQueue = (VecDeque<(Arc<RunState>, usize)>, bool);

struct PoolShared {
    jobs: Mutex<JobQueue>,
    jobs_available: Condvar,
}

/// Fixed-size morsel worker pool. `new(n)` gives `n`-way parallelism:
/// `n - 1` persistent threads plus the submitting thread, which always
/// works too.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: Vec<JoinHandle<()>>,
    workers: usize,
    metrics: Arc<Metrics>,
}

impl WorkerPool {
    /// Pool with `n`-way parallelism (`n` is clamped to at least 1; at
    /// `n = 1` no threads are spawned and every run executes inline).
    pub fn new(n: usize, metrics: Arc<Metrics>) -> Arc<WorkerPool> {
        let workers = n.max(1);
        let shared = Arc::new(PoolShared {
            jobs: Mutex::new((VecDeque::new(), false)),
            jobs_available: Condvar::new(),
        });
        let threads = (0..workers - 1)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("qs-pool-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Arc::new(WorkerPool {
            shared,
            threads,
            workers,
            metrics,
        })
    }

    /// Configured parallelism (≥ 1).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `tasks` to completion across the pool plus the calling
    /// thread. Returns only after **every** task has finished executing
    /// (so scoped borrows are released), with `Err` if any task panicked
    /// or hit the `pool.task.abort` failpoint — in which case the caller
    /// must treat all task outputs as garbage and abort its query.
    pub fn run(&self, tasks: Vec<Task<'_>>) -> Result<(), EngineError> {
        let total = tasks.len();
        if total == 0 {
            return Ok(());
        }
        // SAFETY: the 'scope → 'static transmute is sound because this
        // function blocks on the completion latch until `completed ==
        // total`, and a task is counted completed only after it returned
        // (or its unwind was caught). No borrow escapes the call.
        let tasks: Vec<ErasedTask> = unsafe {
            std::mem::transmute::<Vec<Task<'_>>, Vec<ErasedTask>>(tasks)
        };
        let n_exec = if total == 1 { 1 } else { self.workers.min(total) };
        let state = Arc::new(RunState {
            queues: (0..n_exec).map(|_| Mutex::new(VecDeque::new())).collect(),
            total,
            done: Mutex::new(RunDone {
                completed: 0,
                failed: None,
            }),
            all_done: Condvar::new(),
            metrics: self.metrics.clone(),
        });
        for (i, task) in tasks.into_iter().enumerate() {
            state.queues[i % n_exec].lock().push_back(task);
        }
        if n_exec > 1 {
            let mut jobs = self.shared.jobs.lock();
            for home in 1..n_exec {
                jobs.0.push_back((state.clone(), home));
            }
            drop(jobs);
            self.shared.jobs_available.notify_all();
        }
        // The submitter owns queue 0 and keeps stealing until nothing is
        // left, then parks on the latch for tasks still in flight.
        state.work(0);
        let mut done = state.done.lock();
        while done.completed < state.total {
            state.all_done.wait(&mut done);
        }
        match done.failed.take() {
            None => Ok(()),
            Some(msg) => Err(EngineError::Aborted(msg)),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut jobs = self.shared.jobs.lock();
            jobs.1 = true;
        }
        self.shared.jobs_available.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn worker_loop(shared: Arc<PoolShared>) {
    loop {
        let job = {
            let mut jobs = shared.jobs.lock();
            loop {
                if let Some(job) = jobs.0.pop_front() {
                    break Some(job);
                }
                if jobs.1 {
                    break None;
                }
                shared.jobs_available.wait(&mut jobs);
            }
        };
        match job {
            Some((state, home)) => state.work(home),
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tasks_over<'a>(
        slots: &'a mut [u64],
        f: &'a (impl Fn(usize) -> u64 + Send + Sync),
    ) -> Vec<Task<'a>> {
        slots
            .iter_mut()
            .enumerate()
            .map(|(i, s)| {
                let t: Task<'a> = Box::new(move || *s = f(i));
                t
            })
            .collect()
    }

    #[test]
    fn scoped_tasks_write_borrowed_slots() {
        let _g = qs_storage::fault::test_guard();
        qs_storage::fault::disarm();
        for workers in [1, 2, 4] {
            let m = Metrics::new();
            let pool = WorkerPool::new(workers, m.clone());
            let mut out = vec![0u64; 37];
            let tasks = tasks_over(&mut out, &|i| (i as u64) * 3 + 1);
            pool.run(tasks).unwrap();
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, (i as u64) * 3 + 1, "workers={workers} slot {i}");
            }
            assert_eq!(m.snapshot().pool_tasks, 37, "workers={workers}");
        }
    }

    #[test]
    fn panic_fails_run_but_siblings_complete() {
        let _g = qs_storage::fault::test_guard();
        qs_storage::fault::disarm();
        let m = Metrics::new();
        let pool = WorkerPool::new(4, m.clone());
        let mut out = [0u64; 8];
        let mut tasks: Vec<Task<'_>> = Vec::new();
        for (i, s) in out.iter_mut().enumerate() {
            if i == 3 {
                tasks.push(Box::new(|| panic!("morsel blew up")));
            } else {
                tasks.push(Box::new(move || *s = 1));
            }
        }
        let err = pool.run(tasks).unwrap_err();
        match err {
            EngineError::Aborted(msg) => assert!(msg.contains("morsel blew up")),
            other => panic!("expected abort, got {other:?}"),
        }
        // Every non-panicking sibling still executed before run returned.
        let done: u64 = out.iter().sum();
        assert_eq!(done, 7);
        assert_eq!(m.snapshot().panics_contained, 1);
        assert_eq!(m.snapshot().pool_tasks, 8);
    }

    #[test]
    fn single_worker_runs_inline() {
        let _g = qs_storage::fault::test_guard();
        qs_storage::fault::disarm();
        let m = Metrics::new();
        let pool = WorkerPool::new(1, m.clone());
        assert_eq!(pool.workers(), 1);
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        let tasks: Vec<Task<'_>> = (0..4)
            .map(|i| {
                let seen = &seen;
                let t: Task<'_> = Box::new(move || {
                    seen.lock().push((i, std::thread::current().id()));
                });
                t
            })
            .collect();
        pool.run(tasks).unwrap();
        let seen = seen.into_inner();
        assert_eq!(seen.len(), 4);
        for (i, (idx, tid)) in seen.iter().enumerate() {
            assert_eq!(*idx, i, "inline path preserves submission order");
            assert_eq!(*tid, caller);
        }
        assert_eq!(m.snapshot().pool_steals, 0);
    }

    #[test]
    fn concurrent_runs_from_many_threads_do_not_deadlock() {
        let _g = qs_storage::fault::test_guard();
        qs_storage::fault::disarm();
        let m = Metrics::new();
        let pool = WorkerPool::new(2, m.clone());
        std::thread::scope(|s| {
            for _ in 0..6 {
                let pool = &pool;
                s.spawn(move || {
                    for _ in 0..50 {
                        let mut out = vec![0u64; 5];
                        let tasks = tasks_over(&mut out, &|i| i as u64 + 1);
                        pool.run(tasks).unwrap();
                        assert_eq!(out, vec![1, 2, 3, 4, 5]);
                    }
                });
            }
        });
        assert_eq!(m.snapshot().pool_tasks, 6 * 50 * 5);
    }

    #[test]
    fn empty_run_is_a_noop() {
        let pool = WorkerPool::new(3, Metrics::new());
        pool.run(Vec::new()).unwrap();
    }

    #[test]
    fn injected_task_abort_fails_the_run() {
        let _g = qs_storage::fault::test_guard();
        qs_storage::fault::arm(
            7,
            &[("pool.task.abort", qs_storage::fault::FaultSpec::prob(1.0))],
        );
        let m = Metrics::new();
        let pool = WorkerPool::new(2, m.clone());
        let mut out = vec![0u64; 4];
        let tasks = tasks_over(&mut out, &|_| 1);
        let err = pool.run(tasks).unwrap_err();
        match err {
            EngineError::Aborted(msg) => {
                assert!(msg.contains("pool.task.abort"), "{msg}")
            }
            other => panic!("expected abort, got {other:?}"),
        }
        qs_storage::fault::disarm();
        // Disarmed again: the pool works normally.
        let tasks = tasks_over(&mut out, &|_| 2);
        pool.run(tasks).unwrap();
        assert_eq!(out, vec![2, 2, 2, 2]);
    }
}
