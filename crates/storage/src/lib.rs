//! # qs-storage — Shore-MT-lite storage substrate
//!
//! The SIGMOD'14 demo runs QPipe and CJOIN on top of the Shore-MT storage
//! manager. This crate is the equivalent substrate for the reproduction:
//!
//! * fixed-width row codec over typed schemas ([`schema`], [`row`]),
//! * slotted pages holding encoded rows ([`page`]),
//! * append-only heap tables ([`table`]) registered in a [`catalog`],
//! * a simulated disk with a bounded number of spindles and a per-page
//!   read latency ([`disk`]) — the stand-in for the paper's seven 15kRPM
//!   SAS drives,
//! * a buffer pool with clock eviction, pin counts and single-flight page
//!   loads ([`bufferpool`]) so that memory-resident vs disk-resident
//!   databases behave differently, exactly the knob the demo GUI exposes,
//! * circular (shared) scans ([`scan`]) — the I/O-layer sharing primitive
//!   both QPipe and CJOIN rely on,
//! * page-at-a-time column batches ([`batch`]) — decode the referenced
//!   columns of a page once into typed vectors, the substrate for
//!   vectorized (compiled) predicate evaluation in `qs-plan` and the
//!   aggregation kernels in `qs-engine`,
//! * selection masks and the dense per-tuple query-bit column
//!   ([`bitmap`]) plus the [`batch::FactBatch`] that pairs them with a
//!   page — the batch-at-a-time currency every post-predicate operator
//!   consumes,
//! * a flat open-addressing `key → u32` table ([`flat`]) for group-slot
//!   resolution in `qs-engine` (`i64` and packed-`u128` group keys).
//!
//! Everything is deterministic and in-process; "disk" pages are retained in
//! memory but every buffer-pool miss pays the simulated I/O cost, which
//! preserves the performance *shape* the paper's experiments depend on.

pub mod batch;
pub mod bitmap;
pub mod bufferpool;
pub mod catalog;
pub mod disk;
pub mod error;
pub mod fault;
pub mod flat;
pub mod page;
pub mod row;
pub mod scan;
pub mod schema;
pub mod table;
pub mod value;

pub use batch::{ColumnBatch, ColumnData, FactBatch};
pub use bitmap::{iter_ones, mask_words, BitColumn, Bitmap};
pub use bufferpool::{BufferPool, BufferPoolConfig, BufferPoolStats};
pub use catalog::Catalog;
pub use disk::{DiskConfig, DiskModel, DiskStats};
pub use error::StorageError;
pub use fault::FaultSpec;
pub use flat::{FlatKey, FlatMap};
pub use page::{ColumnArray, ColumnPage, Page, PageBuilder, PageId, PageLayout, DEFAULT_PAGE_BYTES};
pub use row::{RowCursor, RowRef};
pub use scan::CircularCursor;
pub use schema::{Column, Schema};
pub use table::{Table, TableBuilder, TableId};
pub use value::{DataType, Value};

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, StorageError>;
