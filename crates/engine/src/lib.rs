//! # qs-engine — the QPipe-style staged execution engine
//!
//! Reproduction of QPipe (Harizopoulos et al., SIGMOD'05) as integrated in
//! the SIGMOD'14 demo:
//!
//! * every relational operator is a **stage** with a work queue and an
//!   elastic local thread pool ([`stage`]),
//! * a query plan becomes a tree of **packets** whose data flows through
//!   batch-based exchange — every channel carries an [`EngineBatch`]
//!   (`Arc<qs_storage::FactBatch>`: shared page + surviving-row
//!   selection), over bounded FIFO buffers in the original push-only
//!   model ([`fifo`]),
//! * **Simultaneous Pipelining (SP)**: when a packet arrives at a stage
//!   while an identical one (same sub-plan signature) is in flight, it
//!   subscribes to the in-flight packet's output instead of executing
//!   ([`stage::SpRegistry`], [`hub`]),
//! * the **Shared Pages List** ([`spl`]) implements the paper's pull-based
//!   SP, eliminating the copy serialization of the push model,
//! * a **core governor** ([`governor`]) reproduces the demo's "bind the
//!   server to N cores" knob,
//! * a serial **reference evaluator** ([`reference`](mod@reference)) serves as the
//!   testing oracle for all execution modes,
//! * **aggregation kernels** ([`kernels`]) — typed, schema-resolved
//!   batch folds over `qs_storage::ColumnBatch` for the engine's
//!   `Aggregate` operator, pinned to the row-at-a-time oracle in [`agg`],
//! * **group-slot resolution** ([`group`]) — the tiered group-key →
//!   dense-slot registry ([`group::GroupTable`]) that operator probes
//!   batch-at-a-time.

pub mod agg;
pub mod ctl;
pub mod engine;
pub mod error;
pub mod fifo;
pub mod governor;
pub mod group;
pub mod hub;
pub mod kernels;
pub mod metrics;
pub mod ops;
pub mod pool;
pub mod reference;
pub mod spl;
pub mod stage;

pub use ctl::{CancelHandle, QueryCtl, QueryOpts};
pub use engine::{BatchBuilder, EngineConfig, QpipeEngine, QueryTicket, SharingPolicy};
pub use error::{EngineError, RetryHint};
pub use fifo::{BatchSource, EngineBatch, FifoBuffer, FifoReader};
pub use governor::{AdmissionConfig, AdmissionGate, AdmissionPermit, CoreGovernor};
pub use group::{GroupTable, GroupTier, ParallelScratch, RadixScratch, PARALLEL_MIN_ROWS};
pub use hub::{OutputHub, ShareMode};
pub use kernels::{AccVec, AggKernel};
pub use metrics::{Metrics, MetricsSnapshot, StageKind, ALL_STAGES, NUM_STAGES};
pub use ops::{ExecCtx, PhysicalOp};
pub use pool::WorkerPool;
pub use spl::{SharedPagesList, SplReader};
pub use stage::{contain_panic, Packet, SpRegistry, Stage};

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;
