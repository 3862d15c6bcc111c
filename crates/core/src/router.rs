//! Sharing-aware per-query mode routing.
//!
//! [`ExecutionMode::Auto`] runs every submitted plan through this planner
//! pass instead of pinning one evaluation strategy for the whole server.
//! The decision uses only signals the system already maintains:
//!
//! * **plan shape** — [`StarQuery::detect`]: only star queries can ride the
//!   CJOIN global query plan at all;
//! * **predicate selectivity** — [`estimate_star_selectivity`] over the
//!   compiled predicate tree and [`Table::int_col_stats`]: a star query
//!   selecting a handful of rows pays a full fact-table revolution in
//!   CJOIN but finishes almost instantly as a QPipe packet (the BENCH_PR5
//!   scenario-3 finding, where SP-enabled QPipe beat CJOIN ~4.8×);
//! * **live concurrency** — [`AdmissionGate::load`]: sharing of any kind
//!   only pays off when there is someone to share *with* (scenario 2: the
//!   shared revolution amortizes across clients and CJOIN wins ~2.7×);
//! * **sharing feedback** — the SP hit counters, `pages_shared`,
//!   `admission_evals` and `panics_contained` from the metrics the engine
//!   and CJOIN pipeline already export: evidence that sharing is landing
//!   lowers the concurrency bar for the proactive route.
//!
//! Correctness never depends on the decision: the five fixed modes are
//! byte-identical on every plan (the differential fuzzer's oracle), so the
//! router is free to be a heuristic. It only has to be *fast* (it runs on
//! every submission) and *deterministic given its inputs* so routed runs
//! can be replayed.
//!
//! [`AdmissionGate::load`]: qs_engine::AdmissionGate::load
//! [`Table::int_col_stats`]: qs_storage::Table::int_col_stats

use crate::db::ExecutionMode;
use qs_plan::{CmpOp, Expr, StarQuery};
use qs_storage::{Catalog, Table, Value};
use std::sync::atomic::{AtomicU64, Ordering};

/// Below this combined selectivity estimate a star query is a needle in a
/// haystack: it finishes almost instantly as a QPipe packet, so it takes
/// [`SELECTIVE_GQP_CONCURRENCY_FLOOR`] co-runners (not the usual
/// [`GQP_CONCURRENCY_FLOOR`]) before a shared revolution pays off.
pub const GQP_SELECTIVITY_FLOOR: f64 = 0.02;

/// Co-runners (running + queued, excluding the query being routed) needed
/// before the proactive CJOIN route is worth its admission cost.
pub const GQP_CONCURRENCY_FLOOR: usize = 2;

/// Concurrency floor for highly selective stars. Scenario 2 (1%
/// selectivity, 16 clients) shows the shared revolution winning big at
/// high concurrency even for selective queries; scenario 3 (2 clients)
/// shows it losing ~5× at low concurrency. The crossover sits between.
pub const SELECTIVE_GQP_CONCURRENCY_FLOOR: usize = 6;

/// Everything the router looks at for one query. Gathered by
/// [`SharingDb::submit_with`](crate::SharingDb::submit_with) from state it
/// already tracks; no signal requires extra work per query beyond the
/// star detection the GQP path performs anyway.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouteSignals {
    /// The plan is a recognized star query.
    pub star: bool,
    /// Combined selectivity estimate of the star's fact + dimension
    /// predicates (`None` for non-star plans).
    pub selectivity: Option<f64>,
    /// `(running, queued)` from the admission gate; `None` when the
    /// database runs without one (live concurrency unknown).
    pub load: Option<(usize, usize)>,
    /// A CJOIN pipeline exists or can be started for this catalog.
    pub gqp_available: bool,
    /// An identical CJOIN sub-plan (same join signature) is in flight
    /// right now — subscribing is free, the strongest signal there is.
    pub live_share: bool,
    /// SP hits at the CJOIN stage since the last metrics reset.
    pub cjoin_sp_hits: u64,
    /// SP hits across all QPipe stages.
    pub sp_hits: u64,
    /// Pages shared via SPL (pull-mode SP evidence).
    pub pages_shared: u64,
    /// CJOIN admission predicate evaluations (proactive-path cost paid).
    pub admission_evals: u64,
    /// Panics contained by the engine or the CJOIN pipeline. Containment
    /// means co-runners were unaffected, but a non-zero count makes the
    /// feedback counters untrustworthy for *lowering* thresholds.
    pub panics_contained: u64,
}

/// Pick a fixed execution mode for one query. Never returns
/// [`ExecutionMode::Auto`].
pub fn decide(s: &RouteSignals) -> ExecutionMode {
    if s.star && s.gqp_available {
        // Free ride: an identical admission is already paying for the
        // revolution; subscribing costs one SPL reader.
        if s.live_share {
            return ExecutionMode::GqpSp;
        }
        // Feedback loop: once CJOIN-stage SP hits are landing, keep
        // feeding the shared admission even at low concurrency — but
        // only while the counters are untainted by contained panics.
        let mut floor = if s.cjoin_sp_hits > 0 && s.panics_contained == 0 {
            1
        } else {
            GQP_CONCURRENCY_FLOOR
        };
        // A tiny result set needs much more company before the shared
        // revolution beats just running the query (scenario 3 vs 2).
        if s.selectivity.unwrap_or(1.0) < GQP_SELECTIVITY_FLOOR {
            floor = floor.max(SELECTIVE_GQP_CONCURRENCY_FLOOR);
        }
        // Unknown load (no admission gate) defaults to sharing: the
        // fixed GQP modes make the same bet by existing at all.
        let others = s.load.map(|(r, q)| r + q).unwrap_or(floor);
        if others >= floor {
            return ExecutionMode::GqpSp;
        }
    }
    // Reactive QPipe side. Pull-mode SP dominates push in every committed
    // BENCH series (the SPL shares pages instead of copying them), so the
    // router never picks SP-FIFO; it remains reachable by pinning the mode.
    match s.load {
        // Alone in the system: SP bookkeeping buys nothing.
        Some((0, 0)) => ExecutionMode::QueryCentric,
        // At least one co-runner, or load unknown: the SP window is open.
        _ => ExecutionMode::SpPull,
    }
}

/// Per-mode decision counters for an `Auto` database.
#[derive(Debug, Default)]
pub struct RouterStats {
    query_centric: AtomicU64,
    sp_pull: AtomicU64,
    gqp_sp: AtomicU64,
}

impl RouterStats {
    /// Count one routing decision.
    pub fn record(&self, mode: ExecutionMode) {
        match mode {
            ExecutionMode::QueryCentric | ExecutionMode::SpPush => {
                // SP-FIFO is currently never chosen (see `decide`); fold
                // it into the query-centric bucket rather than lose it.
                self.query_centric.fetch_add(1, Ordering::Relaxed);
            }
            ExecutionMode::SpPull => {
                self.sp_pull.fetch_add(1, Ordering::Relaxed);
            }
            ExecutionMode::Gqp | ExecutionMode::GqpSp => {
                self.gqp_sp.fetch_add(1, Ordering::Relaxed);
            }
            ExecutionMode::Auto => unreachable!("router decisions are fixed modes"),
        }
    }

    /// Read the counters.
    pub fn snapshot(&self) -> RouterSnapshot {
        RouterSnapshot {
            query_centric: self.query_centric.load(Ordering::Relaxed),
            sp_pull: self.sp_pull.load(Ordering::Relaxed),
            gqp_sp: self.gqp_sp.load(Ordering::Relaxed),
        }
    }

    /// Zero the counters (between experiment points).
    pub fn reset(&self) {
        self.query_centric.store(0, Ordering::Relaxed);
        self.sp_pull.store(0, Ordering::Relaxed);
        self.gqp_sp.store(0, Ordering::Relaxed);
    }
}

/// Routing decision counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterSnapshot {
    /// Queries routed query-centric.
    pub query_centric: u64,
    /// Queries routed to pull-mode SP.
    pub sp_pull: u64,
    /// Queries routed to the CJOIN stage (GQP+SP).
    pub gqp_sp: u64,
}

impl RouterSnapshot {
    /// Total routed queries.
    pub fn total(&self) -> u64 {
        self.query_centric + self.sp_pull + self.gqp_sp
    }
}

/// Combined selectivity estimate for a star query: the product of the
/// fact-table predicate's estimate and every dimension predicate's
/// estimate (independence assumed, as everywhere in Selinger-style
/// estimation). `1.0` means "selects everything".
pub fn estimate_star_selectivity(star: &StarQuery, catalog: &Catalog) -> f64 {
    let mut sel = table_selectivity(&star.fact_table, star.fact_predicate.as_ref(), catalog);
    for d in &star.dims {
        sel *= table_selectivity(&d.table, d.predicate.as_ref(), catalog);
    }
    sel
}

fn table_selectivity(table: &str, pred: Option<&Expr>, catalog: &Catalog) -> f64 {
    let Some(pred) = pred else { return 1.0 };
    let table = catalog.get(table).ok();
    estimate_selectivity(pred, table.as_deref())
}

/// Estimate the fraction of rows satisfying `pred`. Column statistics
/// ([`Table::int_col_stats`]) refine `Int` comparisons; everything else
/// falls back to textbook constants. Results are clamped to `[0, 1]`.
pub fn estimate_selectivity(pred: &Expr, table: Option<&Table>) -> f64 {
    let sel = match pred {
        Expr::Const(b) => {
            if *b {
                1.0
            } else {
                0.0
            }
        }
        Expr::Not(inner) => 1.0 - estimate_selectivity(inner, table),
        Expr::And(parts) => parts
            .iter()
            .map(|p| estimate_selectivity(p, table))
            .product(),
        Expr::Or(parts) => {
            // P(a ∨ b) = 1 − Π(1 − pᵢ) under independence.
            1.0 - parts
                .iter()
                .map(|p| 1.0 - estimate_selectivity(p, table))
                .product::<f64>()
        }
        Expr::Cmp { col, op, lit } => cmp_selectivity(*col, *op, lit, table),
        Expr::Between { col, lo, hi } => between_selectivity(*col, lo, hi, table),
        Expr::InList { col, items } => items
            .iter()
            .map(|v| cmp_selectivity(*col, CmpOp::Eq, v, table))
            .sum(),
    };
    sel.clamp(0.0, 1.0)
}

/// Integer view of a literal, when the column's stats can speak to it.
fn int_lit(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        Value::Date(d) => Some(*d as i64),
        Value::Float(_) | Value::Str(_) => None,
    }
}

fn cmp_selectivity(col: usize, op: CmpOp, lit: &Value, table: Option<&Table>) -> f64 {
    let stats = table.and_then(|t| t.int_col_stats(col));
    if let (Some(s), Some(v)) = (stats, int_lit(lit)) {
        let span = (s.max - s.min) as f64 + 1.0;
        let eq = if v < s.min || v > s.max {
            0.0
        } else {
            1.0 / s.distinct.max(1) as f64
        };
        let frac_lt = (((v - s.min) as f64) / span).clamp(0.0, 1.0);
        return match op {
            CmpOp::Eq => eq,
            CmpOp::Ne => 1.0 - eq,
            CmpOp::Lt => frac_lt,
            CmpOp::Le => (frac_lt + eq).min(1.0),
            CmpOp::Ge => 1.0 - frac_lt,
            CmpOp::Gt => (1.0 - frac_lt - eq).max(0.0),
        };
    }
    // No statistics (Float/Str/Date columns, or an unstatted table).
    match op {
        CmpOp::Eq => 0.1,
        CmpOp::Ne => 0.9,
        _ => 1.0 / 3.0,
    }
}

fn between_selectivity(col: usize, lo: &Value, hi: &Value, table: Option<&Table>) -> f64 {
    let stats = table.and_then(|t| t.int_col_stats(col));
    if let (Some(s), Some(lo), Some(hi)) = (stats, int_lit(lo), int_lit(hi)) {
        if hi < lo {
            return 0.0;
        }
        let span = (s.max - s.min) as f64 + 1.0;
        let overlap = (hi.min(s.max) - lo.max(s.min) + 1).max(0) as f64;
        return overlap / span;
    }
    0.2
}

#[cfg(test)]
mod tests {
    use super::*;
    use qs_storage::{DataType, Schema, TableBuilder};

    fn stats_table() -> std::sync::Arc<Table> {
        // one Int column with values 0..100
        let cat = Catalog::new();
        let schema = Schema::from_pairs(&[("v", DataType::Int)]);
        let mut b = TableBuilder::new("t", schema);
        for i in 0..100i64 {
            b.push_values(&[Value::Int(i)]).unwrap();
        }
        cat.register(b);
        cat.get("t").unwrap()
    }

    #[test]
    fn estimator_orders_ranges_sensibly() {
        let t = stats_table();
        let narrow = estimate_selectivity(&Expr::between(0, 10i64, 12i64), Some(&t));
        let wide = estimate_selectivity(&Expr::between(0, 10i64, 80i64), Some(&t));
        assert!(narrow < wide, "narrow {narrow} !< wide {wide}");
        assert!((0.0..=0.05).contains(&narrow));
        assert!(wide > 0.6);

        let eq = estimate_selectivity(&Expr::eq(0, 7i64), Some(&t));
        assert!((eq - 0.01).abs() < 1e-9, "1/distinct, got {eq}");
        let miss = estimate_selectivity(&Expr::eq(0, 500i64), Some(&t));
        assert_eq!(miss, 0.0);

        let conj = estimate_selectivity(
            &Expr::And(vec![Expr::between(0, 10i64, 12i64), Expr::eq(0, 11i64)]),
            Some(&t),
        );
        assert!(conj <= narrow);
    }

    #[test]
    fn estimator_survives_missing_stats() {
        // Str column: no int stats, textbook defaults, still in [0, 1].
        let e = Expr::InList {
            col: 0,
            items: vec![Value::Str("a".into()); 20],
        };
        let s = estimate_selectivity(&e, None);
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn decision_table() {
        let star = RouteSignals {
            star: true,
            gqp_available: true,
            selectivity: Some(0.3),
            ..Default::default()
        };
        // Live identical admission: always subscribe.
        assert_eq!(
            decide(&RouteSignals { live_share: true, ..star }),
            ExecutionMode::GqpSp
        );
        // Concurrent star traffic rides the GQP.
        assert_eq!(
            decide(&RouteSignals { load: Some((3, 1)), ..star }),
            ExecutionMode::GqpSp
        );
        // Unknown load defaults to sharing.
        assert_eq!(decide(&star), ExecutionMode::GqpSp);
        // Needle-in-a-haystack star avoids the revolution at moderate
        // load (scenario 3's regime)…
        assert_eq!(
            decide(&RouteSignals {
                selectivity: Some(0.001),
                load: Some((3, 0)),
                ..star
            }),
            ExecutionMode::SpPull
        );
        // …but joins it once enough clients split the revolution's cost
        // (scenario 2 ran at 1% selectivity and CJOIN still won 2.7×).
        assert_eq!(
            decide(&RouteSignals {
                selectivity: Some(0.001),
                load: Some((12, 4)),
                ..star
            }),
            ExecutionMode::GqpSp
        );
        // A lone star on an idle system runs query-centric.
        assert_eq!(
            decide(&RouteSignals { load: Some((0, 0)), ..star }),
            ExecutionMode::QueryCentric
        );
        // CJOIN-stage hits lower the concurrency floor…
        assert_eq!(
            decide(&RouteSignals {
                load: Some((1, 0)),
                cjoin_sp_hits: 5,
                ..star
            }),
            ExecutionMode::GqpSp
        );
        // …but not when panics have been contained since the last reset.
        assert_eq!(
            decide(&RouteSignals {
                load: Some((1, 0)),
                cjoin_sp_hits: 5,
                panics_contained: 1,
                ..star
            }),
            ExecutionMode::SpPull
        );
        // Non-star plans never route proactive.
        assert_eq!(
            decide(&RouteSignals {
                star: false,
                selectivity: None,
                load: Some((4, 2)),
                ..star
            }),
            ExecutionMode::SpPull
        );
        // No pipeline available: reactive only.
        assert_eq!(
            decide(&RouteSignals { gqp_available: false, ..star }),
            ExecutionMode::SpPull
        );
    }

    #[test]
    fn stats_counters_roundtrip() {
        let s = RouterStats::default();
        s.record(ExecutionMode::SpPull);
        s.record(ExecutionMode::GqpSp);
        s.record(ExecutionMode::GqpSp);
        s.record(ExecutionMode::QueryCentric);
        let snap = s.snapshot();
        assert_eq!(snap.query_centric, 1);
        assert_eq!(snap.sp_pull, 1);
        assert_eq!(snap.gqp_sp, 2);
        assert_eq!(snap.total(), 4);
        s.reset();
        assert_eq!(s.snapshot().total(), 0);
    }
}
