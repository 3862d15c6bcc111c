//! Aggregate accumulators folded one row at a time: the row-at-a-time
//! oracle. The engine's `Aggregate` operator runs the batch kernels in
//! [`crate::kernels`]; the kernel unit tests and
//! `crates/engine/tests/kernel_props.rs` compare those kernels against
//! [`make_acc`] / [`update_acc`] / [`finalize_acc`].

use qs_plan::AggFunc;
use qs_storage::{DataType, RowRef, Schema, Value};

#[derive(Debug, Clone)]
/// One accumulator instance per (group, aggregate-spec) pair.
pub enum Acc {
    Count(i64),
    SumI(i64),
    SumF(f64),
    Avg { sum: f64, n: i64 },
    MinI(Option<i64>),
    MaxI(Option<i64>),
    MinF(Option<f64>),
    MaxF(Option<f64>),
    MinD(Option<u32>),
    MaxD(Option<u32>),
    MinS(Option<String>),
    MaxS(Option<String>),
    SumProdI(i64),
    SumProdF(f64),
    SumDiffI(i64),
    SumDiffF(f64),
}

/// Fresh accumulator for `func` over rows of `in_schema`.
pub fn make_acc(func: &AggFunc, in_schema: &Schema) -> Acc {
    let is_int = |c: usize| in_schema.dtype(c) == DataType::Int;
    match func {
        AggFunc::Count => Acc::Count(0),
        AggFunc::Sum(c) => {
            if is_int(*c) {
                Acc::SumI(0)
            } else {
                Acc::SumF(0.0)
            }
        }
        AggFunc::Avg(_) => Acc::Avg { sum: 0.0, n: 0 },
        AggFunc::Min(c) => match in_schema.dtype(*c) {
            DataType::Int => Acc::MinI(None),
            DataType::Float => Acc::MinF(None),
            DataType::Date => Acc::MinD(None),
            DataType::Char(_) => Acc::MinS(None),
        },
        AggFunc::Max(c) => match in_schema.dtype(*c) {
            DataType::Int => Acc::MaxI(None),
            DataType::Float => Acc::MaxF(None),
            DataType::Date => Acc::MaxD(None),
            DataType::Char(_) => Acc::MaxS(None),
        },
        AggFunc::SumProd(a, b) => {
            if is_int(*a) && is_int(*b) {
                Acc::SumProdI(0)
            } else {
                Acc::SumProdF(0.0)
            }
        }
        AggFunc::SumDiff(a, b) => {
            if is_int(*a) && is_int(*b) {
                Acc::SumDiffI(0)
            } else {
                Acc::SumDiffF(0.0)
            }
        }
    }
}

/// Fold one row into `acc`.
#[inline]
pub fn update_acc(acc: &mut Acc, func: &AggFunc, row: &RowRef<'_>) {
    match (acc, func) {
        (Acc::Count(n), AggFunc::Count) => *n += 1,
        (Acc::SumI(s), AggFunc::Sum(c)) => *s += row.i64_col(*c),
        (Acc::SumF(s), AggFunc::Sum(c)) => *s += row.numeric(*c),
        (Acc::Avg { sum, n }, AggFunc::Avg(c)) => {
            *sum += row.numeric(*c);
            *n += 1;
        }
        (Acc::MinI(m), AggFunc::Min(c)) => {
            let v = row.i64_col(*c);
            *m = Some(m.map_or(v, |x| x.min(v)));
        }
        (Acc::MaxI(m), AggFunc::Max(c)) => {
            let v = row.i64_col(*c);
            *m = Some(m.map_or(v, |x| x.max(v)));
        }
        (Acc::MinF(m), AggFunc::Min(c)) => {
            let v = row.f64_col(*c);
            *m = Some(m.map_or(v, |x| x.min(v)));
        }
        (Acc::MaxF(m), AggFunc::Max(c)) => {
            let v = row.f64_col(*c);
            *m = Some(m.map_or(v, |x| x.max(v)));
        }
        (Acc::MinD(m), AggFunc::Min(c)) => {
            let v = row.date_col(*c);
            *m = Some(m.map_or(v, |x| x.min(v)));
        }
        (Acc::MaxD(m), AggFunc::Max(c)) => {
            let v = row.date_col(*c);
            *m = Some(m.map_or(v, |x| x.max(v)));
        }
        (Acc::MinS(m), AggFunc::Min(c)) => {
            let v = row.str_col(*c);
            match m {
                Some(x) if x.as_str() <= v => {}
                _ => *m = Some(v.to_string()),
            }
        }
        (Acc::MaxS(m), AggFunc::Max(c)) => {
            let v = row.str_col(*c);
            match m {
                Some(x) if x.as_str() >= v => {}
                _ => *m = Some(v.to_string()),
            }
        }
        (Acc::SumProdI(s), AggFunc::SumProd(a, b)) => *s += row.i64_col(*a) * row.i64_col(*b),
        (Acc::SumProdF(s), AggFunc::SumProd(a, b)) => *s += row.numeric(*a) * row.numeric(*b),
        (Acc::SumDiffI(s), AggFunc::SumDiff(a, b)) => *s += row.i64_col(*a) - row.i64_col(*b),
        (Acc::SumDiffF(s), AggFunc::SumDiff(a, b)) => *s += row.numeric(*a) - row.numeric(*b),
        (acc, func) => unreachable!("accumulator/function mismatch: {acc:?} vs {func:?}"),
    }
}

/// Final aggregate value.
pub fn finalize_acc(acc: &Acc) -> Value {
    match acc {
        Acc::Count(n) => Value::Int(*n),
        Acc::SumI(s) => Value::Int(*s),
        Acc::SumF(s) => Value::Float(*s),
        Acc::Avg { sum, n } => Value::Float(if *n == 0 { 0.0 } else { sum / *n as f64 }),
        Acc::MinI(m) | Acc::MaxI(m) => Value::Int(m.unwrap_or(0)),
        Acc::MinF(m) | Acc::MaxF(m) => Value::Float(m.unwrap_or(0.0)),
        Acc::MinD(m) | Acc::MaxD(m) => Value::Date(m.unwrap_or(0)),
        Acc::MinS(m) | Acc::MaxS(m) => Value::Str(m.clone().unwrap_or_default()),
        Acc::SumProdI(s) | Acc::SumDiffI(s) => Value::Int(*s),
        Acc::SumProdF(s) | Acc::SumDiffF(s) => Value::Float(*s),
    }
}


#[cfg(test)]
mod tests {
    use super::*;
    use qs_storage::Page;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::from_pairs(&[
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("d", DataType::Date),
            ("s", DataType::Char(4)),
        ])
    }

    fn page() -> Page {
        Page::from_values(
            &schema(),
            &[
                vec![
                    Value::Int(3),
                    Value::Float(1.5),
                    Value::Date(19970105),
                    Value::Str("bb".into()),
                ],
                vec![
                    Value::Int(-2),
                    Value::Float(4.5),
                    Value::Date(19961231),
                    Value::Str("aa".into()),
                ],
                vec![
                    Value::Int(7),
                    Value::Float(0.25),
                    Value::Date(19980820),
                    Value::Str("cc".into()),
                ],
            ],
        )
        .unwrap()
    }

    fn fold(func: AggFunc) -> Value {
        let s = schema();
        let p = page();
        let mut acc = make_acc(&func, &s);
        for row in p.iter() {
            update_acc(&mut acc, &func, &row);
        }
        finalize_acc(&acc)
    }

    #[test]
    fn count_and_sums() {
        assert_eq!(fold(AggFunc::Count), Value::Int(3));
        assert_eq!(fold(AggFunc::Sum(0)), Value::Int(8));
        assert_eq!(fold(AggFunc::Sum(1)), Value::Float(6.25));
    }

    #[test]
    fn min_max_all_types() {
        assert_eq!(fold(AggFunc::Min(0)), Value::Int(-2));
        assert_eq!(fold(AggFunc::Max(0)), Value::Int(7));
        assert_eq!(fold(AggFunc::Min(1)), Value::Float(0.25));
        assert_eq!(fold(AggFunc::Max(1)), Value::Float(4.5));
        assert_eq!(fold(AggFunc::Min(2)), Value::Date(19961231));
        assert_eq!(fold(AggFunc::Max(2)), Value::Date(19980820));
        assert_eq!(fold(AggFunc::Min(3)), Value::Str("aa".into()));
        assert_eq!(fold(AggFunc::Max(3)), Value::Str("cc".into()));
    }

    #[test]
    fn avg_and_two_column_forms() {
        assert_eq!(fold(AggFunc::Avg(0)), Value::Float(8.0 / 3.0));
        // SumProd over (Int, Float) promotes to Float.
        assert_eq!(
            fold(AggFunc::SumProd(0, 1)),
            Value::Float(3.0 * 1.5 + (-2.0) * 4.5 + 7.0 * 0.25)
        );
        // Int-Int stays exact.
        assert_eq!(fold(AggFunc::SumProd(0, 0)), Value::Int(9 + 4 + 49));
        assert_eq!(fold(AggFunc::SumDiff(0, 0)), Value::Int(0));
    }

    #[test]
    fn empty_accumulators_finalize_to_neutral_values() {
        let s = schema();
        for (func, want) in [
            (AggFunc::Count, Value::Int(0)),
            (AggFunc::Sum(0), Value::Int(0)),
            (AggFunc::Sum(1), Value::Float(0.0)),
            (AggFunc::Avg(0), Value::Float(0.0)),
            (AggFunc::Min(0), Value::Int(0)),
            (AggFunc::Max(3), Value::Str(String::new())),
            (AggFunc::Min(2), Value::Date(0)),
        ] {
            let acc = make_acc(&func, &s);
            assert_eq!(finalize_acc(&acc), want, "{func:?}");
        }
    }

    #[test]
    fn accumulator_shape_matches_input_types() {
        let s = schema();
        assert!(matches!(make_acc(&AggFunc::Sum(0), &s), Acc::SumI(_)));
        assert!(matches!(make_acc(&AggFunc::Sum(1), &s), Acc::SumF(_)));
        assert!(matches!(make_acc(&AggFunc::Min(2), &s), Acc::MinD(_)));
        assert!(matches!(make_acc(&AggFunc::Max(3), &s), Acc::MaxS(_)));
        assert!(matches!(
            make_acc(&AggFunc::SumProd(0, 1), &s),
            Acc::SumProdF(_)
        ));
        assert!(matches!(
            make_acc(&AggFunc::SumDiff(0, 0), &s),
            Acc::SumDiffI(_)
        ));
    }
}
