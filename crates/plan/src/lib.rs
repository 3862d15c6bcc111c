//! # qs-plan — logical plans, expressions, signatures
//!
//! The demo compares three execution strategies over the *same* logical
//! plans: query-centric QPipe operators, QPipe with Simultaneous
//! Pipelining (SP), and the CJOIN global query plan. This crate is the
//! shared plan vocabulary:
//!
//! * [`expr`]: predicate/scalar expressions evaluated against encoded rows,
//! * [`compiled`]: predicates lowered into flat typed programs
//!   ([`CompiledPred`]) evaluated row-wise or column-wise over
//!   `qs_storage::ColumnBatch` — the vectorized hot path shared by the
//!   CJOIN preprocessor, admissions and the engine's scan/filter,
//! * [`plan`]: the logical operator tree (`Scan`, `HashJoin`, `Aggregate`,
//!   `Sort`, `Project`, `Limit`) with schema derivation,
//! * [`signature`](mod@signature): stable structural hashes of sub-plans — the key SP uses
//!   at run time to detect that two in-flight packets compute the same
//!   thing,
//! * [`star`]: recognition of star-shaped join plans (fact table joined
//!   with dimension chains), the class of plans CJOIN can evaluate,
//! * [`optimize`](mod@optimize): the query-centric optimizer — predicate pushdown,
//!   projection pruning and sampled star-join reordering, turning naive
//!   front-end plans into the per-table-predicate shape SP signatures and
//!   CJOIN admission work on.

pub mod builder;
pub mod compiled;
pub mod expr;
pub mod optimize;
pub mod plan;
pub mod signature;
pub mod star;

pub use builder::PlanBuilder;
pub use compiled::{CompiledPred, PredScratch};
pub use expr::{CmpOp, Expr};
pub use optimize::{
    estimate_selectivity, optimize, optimize_with, simplify_expr, OptimizerOptions,
};
pub use plan::{AggFunc, AggSpec, LogicalPlan, PlanError};
pub use signature::{signature, SigHasher};
pub use star::{DimJoin, StarQuery};

/// Result alias for plan operations.
pub type Result<T> = std::result::Result<T, PlanError>;
