//! Selectivity estimation from samples.
//!
//! Both the SortP baseline (rank-ordering predicates by cost and data
//! reduction, Deshpande et al.) and the PP query optimizer (choosing among
//! implied expressions, §6.2) need estimates of clause selectivities. The
//! estimates here come from evaluating predicates on a (labeled or
//! executed) sample rowset.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::predicate::Predicate;
use crate::row::Rowset;
use crate::Result;

/// Estimates the fraction of rows satisfying `predicate`, over a uniform
/// sample of at most `sample_cap` rows.
pub fn estimate_selectivity(
    predicate: &Predicate,
    rows: &Rowset,
    sample_cap: usize,
    seed: u64,
) -> Result<f64> {
    if rows.is_empty() {
        return Ok(0.0);
    }
    let predicate = predicate.bind(rows.schema());
    let n = rows.len();
    let mut hit = 0usize;
    let mut total = 0usize;
    if n <= sample_cap {
        for row in rows.rows() {
            total += 1;
            if predicate.eval(row)? {
                hit += 1;
            }
        }
    } else {
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(&mut StdRng::seed_from_u64(seed));
        for &i in idx.iter().take(sample_cap) {
            total += 1;
            if predicate.eval(&rows.rows()[i])? {
                hit += 1;
            }
        }
    }
    Ok(hit as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{Clause, CompareOp};
    use crate::row::Row;
    use crate::schema::{Column, DataType, Schema};
    use crate::value::Value;

    fn table(n: usize) -> Rowset {
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]).unwrap();
        Rowset::new(
            schema,
            (0..n)
                .map(|i| Row::new(vec![Value::Int(i as i64)]))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn exact_on_small_tables() {
        let t = table(100);
        let p = Predicate::from(Clause::new("x", CompareOp::Lt, 25i64));
        assert!((estimate_selectivity(&p, &t, 1000, 0).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sampled_on_large_tables() {
        let t = table(10_000);
        let p = Predicate::from(Clause::new("x", CompareOp::Lt, 5_000i64));
        let est = estimate_selectivity(&p, &t, 500, 7).unwrap();
        assert!((est - 0.5).abs() < 0.1, "est={est}");
    }

    #[test]
    fn empty_table_is_zero() {
        let t = Rowset::empty(Schema::new(vec![Column::new("x", DataType::Int)]).unwrap());
        let p = Predicate::True;
        assert_eq!(estimate_selectivity(&p, &t, 10, 0).unwrap(), 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let t = table(10_000);
        let p = Predicate::from(Clause::new("x", CompareOp::Lt, 3_000i64));
        let a = estimate_selectivity(&p, &t, 200, 42).unwrap();
        let b = estimate_selectivity(&p, &t, 200, 42).unwrap();
        assert_eq!(a, b);
    }
}
