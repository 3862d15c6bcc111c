//! Output checks, all made after the timed phase.
//!
//! * Oracle: the first answer to each distinct statement must equal, as a
//!   multiset, what `qs_engine::reference::eval` computes from the plan
//!   `qs_workload` builds for the same template parameters. That
//!   interpreter shares no operator code with the engine, and the engine
//!   saw only the SQL text, so the front end is checked too.
//! * Repeats: every later answer to a statement must be the same multiset
//!   as its first (compared by an order-insensitive fingerprint).
//! * Conservation: counters must add up to what the client submitted.

use qs_storage::Value;

/// A result row as the engine returns it.
pub type Row = Vec<Value>;

/// Order-insensitive fingerprint of a multiset of rows: two independent
/// sums of per-row hashes, and the row count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint {
    rows: u64,
    a: u64,
    b: u64,
}

impl Fingerprint {
    /// Fold in one row, given as its canonical bytes.
    pub fn add(&mut self, bytes: &[u8]) {
        // FNV-1a, then a SplitMix64 finaliser for the second sum.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &x in bytes {
            h = (h ^ x as u64).wrapping_mul(0x0100_0000_01b3);
        }
        let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.rows += 1;
        self.a = self.a.wrapping_add(h);
        self.b = self.b.wrapping_add(z ^ (z >> 31));
    }
}

/// A row that can be fingerprinted.
pub trait Answer: Clone {
    /// Canonical bytes of the row.
    fn bytes(&self, out: &mut Vec<u8>);
}

impl Answer for Row {
    fn bytes(&self, out: &mut Vec<u8>) {
        for v in self {
            match v {
                Value::Int(x) => {
                    out.push(b'i');
                    out.extend_from_slice(&x.to_le_bytes());
                }
                Value::Float(x) => {
                    out.push(b'f');
                    out.extend_from_slice(&x.to_bits().to_le_bytes());
                }
                Value::Date(x) => {
                    out.push(b'd');
                    out.extend_from_slice(&x.to_le_bytes());
                }
                Value::Str(s) => {
                    out.push(b's');
                    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
            }
        }
    }
}

impl Answer for String {
    fn bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
}

/// Fingerprint of a whole answer.
pub fn fingerprint<R: Answer>(rows: &[R]) -> Fingerprint {
    let mut fp = Fingerprint::default();
    let mut buf = Vec::new();
    for r in rows {
        buf.clear();
        r.bytes(&mut buf);
        fp.add(&buf);
    }
    fp
}

/// Answers collected by one client: the first answer to each statement in
/// full, and a fingerprint of every later one.
pub struct AnswerLog<R> {
    first: Vec<Option<Vec<R>>>,
    repeats: Vec<(usize, Fingerprint)>,
}

impl<R: Answer> AnswerLog<R> {
    /// A log over `statements` distinct statements.
    pub fn new(statements: usize) -> Self {
        AnswerLog {
            first: vec![None; statements],
            repeats: Vec::new(),
        }
    }

    /// Record the answer to statement `stmt`.
    pub fn record(&mut self, stmt: usize, rows: Vec<R>) {
        match &self.first[stmt] {
            None => self.first[stmt] = Some(rows),
            Some(_) => self.repeats.push((stmt, fingerprint(&rows))),
        }
    }

    /// Fold another client's log into this one; its first answers become
    /// repeats where this log already has one.
    pub fn merge(&mut self, other: AnswerLog<R>) {
        for (stmt, rows) in other.first.into_iter().enumerate() {
            if let Some(rows) = rows {
                self.record(stmt, rows);
            }
        }
        self.repeats.extend(other.repeats);
    }

    /// The first answer to each statement that ran.
    pub fn firsts(&self) -> impl Iterator<Item = (usize, &[R])> {
        self.first
            .iter()
            .enumerate()
            .filter_map(|(i, r)| Some((i, r.as_deref()?)))
    }

    /// Check every repeat against its statement's first answer.
    pub fn check_repeats(&self, problems: &mut Vec<String>) {
        let firsts: Vec<Option<Fingerprint>> = self
            .first
            .iter()
            .map(|r| r.as_deref().map(fingerprint))
            .collect();
        let bad = self
            .repeats
            .iter()
            .filter(|(s, fp)| firsts[*s] != Some(*fp))
            .count();
        if bad > 0 {
            problems.push(format!(
                "{bad} of {} repeated statements returned a different multiset than their first run",
                self.repeats.len()
            ));
        }
    }
}

/// Compare an engine answer with the oracle's as multisets (floats within
/// a relative `1e-9`). `Err` names the first difference.
pub fn rows_match(actual: &[Row], expected: &[Row]) -> Result<(), String> {
    let a = qs_engine::reference::canon(actual.to_vec());
    let e = qs_engine::reference::canon(expected.to_vec());
    if a.len() != e.len() {
        return Err(format!("{} rows, oracle has {}", a.len(), e.len()));
    }
    for (i, (ra, re)) in a.iter().zip(&e).enumerate() {
        let same = ra.len() == re.len()
            && ra.iter().zip(re).all(|(x, y)| match (x, y) {
                (Value::Float(x), Value::Float(y)) => (x - y).abs() <= 1e-9 * (1.0 + y.abs()),
                (x, y) => x == y,
            });
        if !same {
            return Err(format!("row {i}: got {ra:?}, oracle has {re:?}"));
        }
    }
    Ok(())
}

/// Render rows the way the wire protocol frames them (`v1|v2|...`),
/// sorted, for comparison with `ROW` payloads.
pub fn wire_rows(rows: &[Row]) -> Vec<String> {
    let mut out: Vec<String> = rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    out.sort();
    out
}

/// GQP+SP conservation: every star statement submitted was either
/// admitted to CJOIN or shared an in-flight admission (an SP hit at the
/// CJOIN stage), and admissions never exceed the distinct statements of
/// each batch summed over batches.
pub fn cjoin_conservation(
    admissions: u64,
    sp_hits: u64,
    submitted: u64,
    distinct_per_batch_sum: u64,
) -> Result<(), String> {
    if admissions + sp_hits != submitted {
        return Err(format!(
            "cjoin.admissions {admissions} + cjoin.sp_hits {sp_hits} != {submitted} star statements submitted"
        ));
    }
    if admissions > distinct_per_batch_sum {
        return Err(format!(
            "cjoin.admissions {admissions} exceed the {distinct_per_batch_sum} distinct statements per batch summed over batches"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Row> {
        vec![
            vec![Value::Int(1997), Value::Str("ASIA".into()), Value::Int(42)],
            vec![Value::Int(1996), Value::Str("ASIA".into()), Value::Int(7)],
            vec![Value::Int(1998), Value::Float(0.5), Value::Int(7)],
        ]
    }

    #[test]
    fn oracle_comparison_accepts_reordering_and_rejects_a_perturbed_row() {
        let want = rows();
        let mut got = rows();
        got.reverse();
        assert!(rows_match(&got, &want).is_ok());
        got[1][2] = Value::Int(8);
        assert!(rows_match(&got, &want).is_err());
        let mut short = rows();
        short.pop();
        assert!(rows_match(&short, &want).is_err());
        let mut dup = rows();
        dup[2] = dup[0].clone();
        assert!(rows_match(&dup, &want).is_err(), "multiset, not set");
        assert!(wire_rows(&want).contains(&"1998|0.5000|7".to_string()));
    }

    #[test]
    fn fingerprints_ignore_order_but_not_content() {
        let mut r = rows();
        let fp = fingerprint(&r);
        r.swap(0, 2);
        assert_eq!(fingerprint(&r), fp);
        r[0][0] = Value::Int(1999);
        assert_ne!(fingerprint(&r), fp);
        let mut twice = rows();
        twice.push(twice[0].clone());
        assert_ne!(fingerprint(&twice), fp);
    }

    #[test]
    fn answer_log_flags_a_repeat_that_differs() {
        let mut log = AnswerLog::new(2);
        log.record(0, rows());
        let mut other = AnswerLog::new(2);
        other.record(0, rows());
        other.record(1, vec![vec![Value::Int(1)]]);
        log.merge(other);
        let mut problems = Vec::new();
        log.check_repeats(&mut problems);
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(log.firsts().count(), 2);

        let mut bad = rows();
        bad[0][2] = Value::Int(43);
        log.record(0, bad);
        log.check_repeats(&mut problems);
        assert_eq!(problems.len(), 1);
    }

    #[test]
    fn conservation_rejects_broken_admission_totals() {
        assert!(cjoin_conservation(9, 7, 16, 9).is_ok());
        assert!(cjoin_conservation(9, 6, 16, 9).is_err(), "a lost statement");
        assert!(cjoin_conservation(10, 7, 16, 10).is_err(), "one too many");
        assert!(
            cjoin_conservation(10, 6, 16, 9).is_err(),
            "more admissions than distinct statements"
        );
    }
}
