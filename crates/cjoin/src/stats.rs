//! CJOIN pipeline counters (the GQP's book-keeping, made visible).

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters of one pipeline.
#[derive(Debug, Default)]
pub struct CjoinMetrics {
    /// Queries admitted since creation.
    pub admissions: AtomicU64,
    /// Queries completed (full fact revolution delivered).
    pub completions: AtomicU64,
    /// Fact pages flowed through the preprocessor.
    pub fact_pages: AtomicU64,
    /// Fact tuples entering the pipeline with a non-zero bitmap.
    pub tuples_in: AtomicU64,
    /// Tuples dropped by shared joins (bitmap went to zero).
    pub tuples_dropped: AtomicU64,
    /// (tuple, query) output pairs materialized by the distributor.
    pub rows_out: AtomicU64,
    /// Dimension-entry predicate evaluations performed by admissions: one
    /// per entry for each distinct predicate a batch evaluates on a
    /// dimension (joining without a predicate counts as one), however
    /// many of the batch's members bring it.
    pub admission_evals: AtomicU64,
    /// (Member, dimension) pairs admitted without an evaluation of their
    /// own: the bits were copied from an active query with the identical
    /// predicate (predicate sharing), or another member of the same batch
    /// brought it.
    pub admission_dedup_hits: AtomicU64,
    /// Queries whose output was aborted by a contained fault (predicate
    /// panic, unreadable fact page, early removal after a stage fault)
    /// while the pipeline and its co-runners kept going.
    pub aborts: AtomicU64,
}

impl CjoinMetrics {
    /// Snapshot the counters.
    pub fn snapshot(&self) -> CjoinStats {
        CjoinStats {
            admissions: self.admissions.load(Ordering::Relaxed),
            completions: self.completions.load(Ordering::Relaxed),
            fact_pages: self.fact_pages.load(Ordering::Relaxed),
            tuples_in: self.tuples_in.load(Ordering::Relaxed),
            tuples_dropped: self.tuples_dropped.load(Ordering::Relaxed),
            rows_out: self.rows_out.load(Ordering::Relaxed),
            admission_evals: self.admission_evals.load(Ordering::Relaxed),
            admission_dedup_hits: self.admission_dedup_hits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
        }
    }

    /// Reset the counters.
    pub fn reset(&self) {
        self.admissions.store(0, Ordering::Relaxed);
        self.completions.store(0, Ordering::Relaxed);
        self.fact_pages.store(0, Ordering::Relaxed);
        self.tuples_in.store(0, Ordering::Relaxed);
        self.tuples_dropped.store(0, Ordering::Relaxed);
        self.rows_out.store(0, Ordering::Relaxed);
        self.admission_evals.store(0, Ordering::Relaxed);
        self.admission_dedup_hits.store(0, Ordering::Relaxed);
        self.aborts.store(0, Ordering::Relaxed);
    }
}

/// Immutable snapshot of [`CjoinMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CjoinStats {
    /// Queries admitted.
    pub admissions: u64,
    /// Queries completed.
    pub completions: u64,
    /// Fact pages processed.
    pub fact_pages: u64,
    /// Tuples entering with non-zero bitmaps.
    pub tuples_in: u64,
    /// Tuples dropped mid-pipeline.
    pub tuples_dropped: u64,
    /// Output rows materialized.
    pub rows_out: u64,
    /// Admission predicate evaluations (see
    /// [`CjoinMetrics::admission_evals`]).
    pub admission_evals: u64,
    /// Admission predicate-sharing hits (see
    /// [`CjoinMetrics::admission_dedup_hits`]).
    pub admission_dedup_hits: u64,
    /// Query outputs aborted by contained faults.
    pub aborts: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_reset() {
        let m = CjoinMetrics::default();
        m.admissions.fetch_add(2, Ordering::Relaxed);
        m.rows_out.fetch_add(100, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.admissions, 2);
        assert_eq!(s.rows_out, 100);
        m.reset();
        assert_eq!(m.snapshot(), CjoinStats::default());
    }
}
