//! Engine error type.

use qs_plan::PlanError;
use qs_sql::SqlError;
use qs_storage::StorageError;
use std::fmt;

/// Load snapshot taken by the [`AdmissionGate`](crate::AdmissionGate) at
/// the instant a query is shed, so callers (a serving front door, a retry
/// loop) can compute a Retry-After instead of treating `Shed` as opaque.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryHint {
    /// Submitters waiting for an admission slot when the query was shed.
    pub queue_depth: usize,
    /// Queries holding admission permits when the query was shed.
    pub running: usize,
}

/// Errors surfaced by query execution.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// SQL text that does not lex, parse or bind against the catalog.
    Sql(SqlError),
    /// Plan construction/validation failure.
    Plan(PlanError),
    /// Storage failure.
    Storage(StorageError),
    /// A producer aborted; the message describes the root cause.
    Aborted(String),
    /// The query (or every consumer of a producer) was cancelled.
    Cancelled,
    /// The query ran past the deadline given at submit.
    DeadlineExceeded,
    /// Admission control shed the query before it started: the engine was
    /// at its concurrency bound and the admission queue was full or the
    /// queue wait exceeded its timeout. Carries the gate's load snapshot
    /// at shed time.
    Shed(RetryHint),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Sql(e) => write!(f, "{e}"),
            EngineError::Plan(e) => write!(f, "plan error: {e}"),
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
            EngineError::Aborted(msg) => write!(f, "aborted: {msg}"),
            EngineError::Cancelled => write!(f, "cancelled"),
            EngineError::DeadlineExceeded => write!(f, "deadline exceeded"),
            EngineError::Shed(hint) => write!(
                f,
                "shed by admission control (overload; {} running, {} queued)",
                hint.running, hint.queue_depth
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SqlError> for EngineError {
    fn from(e: SqlError) -> Self {
        EngineError::Sql(e)
    }
}

impl From<PlanError> for EngineError {
    fn from(e: PlanError) -> Self {
        EngineError::Plan(e)
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e: EngineError = StorageError::TableNotFound("x".into()).into();
        assert!(e.to_string().contains("x"));
        let e: EngineError = PlanError::Invalid("bad".into()).into();
        assert!(e.to_string().contains("bad"));
        assert_eq!(EngineError::Cancelled.to_string(), "cancelled");
    }
}
