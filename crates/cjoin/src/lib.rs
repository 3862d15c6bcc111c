//! # qs-cjoin — the CJOIN global-query-plan operator
//!
//! Reproduction of CJOIN (Candea, Polyzotis, Vingralek, VLDBJ'11), the
//! proactive-sharing system of the SIGMOD'14 demo: all concurrent star
//! queries are evaluated by **one** shared pipeline — a circular scan of
//! the fact table (preprocessor), a chain of shared hash joins that AND
//! query bitmaps, and a distributor routing joined tuples to the queries
//! whose bit survived.
//!
//! * [`bitmap`] — tuple/query correlation bitmaps (plain + atomic).
//! * [`join`] — the dimension side of a shared hash-join: a read-only
//!   multiply-shift key index, entry-major atomic query bits and the
//!   one-pass probe/AND/compact step over a batch's query-bit column.
//! * [`pipeline`] — the pipeline threads, online query admission, and the
//!   per-query output streams.
//! * [`stats`] — the GQP's book-keeping counters.

pub mod bitmap;
pub mod join;
pub mod pipeline;
pub mod shared_agg;
pub mod stats;

pub use bitmap::{AtomicBitmap, Bitmap};
pub use join::{DimJoin, KeyIndex};
pub use pipeline::{CjoinCancel, CjoinError, CjoinPipeline, CjoinQuery, DimSpec, PipelineSpec};
pub use shared_agg::{AggPlan, SharedAggregator};
pub use stats::{CjoinMetrics, CjoinStats};
