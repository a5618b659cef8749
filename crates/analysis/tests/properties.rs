//! Property-based tests for the analysis utilities.

use contention_analysis::stats::ks_distance;
use contention_analysis::{exceed_fraction, fit_linear, fit_two_term, Table};
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    /// A noiseless line is recovered exactly by the linear fit.
    #[test]
    fn fit_recovers_random_lines(a in -100f64..100.0, b in -100f64..100.0, n in 3usize..50) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| a * x + b).collect();
        let fit = fit_linear(&xs, &ys);
        prop_assert!((fit.coefficients[0] - a).abs() < 1e-6);
        prop_assert!((fit.coefficients[1] - b).abs() < 1e-6);
        prop_assert!(fit.r_squared > 1.0 - 1e-9);
    }

    /// A noiseless plane is recovered exactly by the two-term fit.
    #[test]
    fn fit_recovers_random_planes(a in -10f64..10.0, b in -10f64..10.0, c in -10f64..10.0) {
        let mut x1 = Vec::new();
        let mut x2 = Vec::new();
        let mut ys = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                x1.push(f64::from(i));
                x2.push(f64::from(j * j + i * j)); // break collinearity
                ys.push(a * f64::from(i) + b * f64::from(j * j + i * j) + c);
            }
        }
        let fit = fit_two_term(&x1, &x2, &ys);
        prop_assert!((fit.coefficients[0] - a).abs() < 1e-6);
        prop_assert!((fit.coefficients[1] - b).abs() < 1e-6);
        prop_assert!((fit.coefficients[2] - c).abs() < 1e-6);
    }

    /// Exceedance fraction is a survival function: monotone in the budget.
    #[test]
    fn exceed_fraction_is_monotone(samples in vec(0f64..100.0, 1..100), a in 0f64..100.0, b in 0f64..100.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(exceed_fraction(&samples, hi) <= exceed_fraction(&samples, lo));
    }

    /// A sample has KS distance zero to its own empirical CDF.
    #[test]
    fn ks_self_distance_is_zero(samples in vec(0u64..100, 1..200)) {
        let n = samples.len() as f64;
        let sorted = {
            let mut s = samples.clone();
            s.sort_unstable();
            s
        };
        let emp = move |k: u64| sorted.iter().filter(|&&x| x <= k).count() as f64 / n;
        prop_assert!(ks_distance(&samples, emp) < 1e-12);
    }

    /// Tables round-trip their cell contents through TSV.
    #[test]
    fn table_tsv_roundtrip(rows in vec(vec("[a-z0-9]{1,8}", 3), 1..20)) {
        let mut t = Table::new(&["x", "y", "z"]);
        for row in &rows {
            let cells: Vec<&str> = row.iter().map(String::as_str).collect();
            t.row(&cells);
        }
        let tsv = t.to_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        prop_assert_eq!(lines.len(), rows.len() + 1);
        for (line, row) in lines[1..].iter().zip(&rows) {
            let cells: Vec<&str> = line.split('\t').collect();
            let expect: Vec<&str> = row.iter().map(String::as_str).collect();
            prop_assert_eq!(cells, expect);
        }
    }
}
