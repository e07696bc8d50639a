//! Order statistics and the least-squares fit behind the cost
//! coefficients.

/// The `q`-quantile (`0 ≤ q ≤ 1`) by nearest rank; `0.0` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median by nearest rank; `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile by nearest rank of samples that each stand for
/// `count` equal values; `0.0` when empty.
pub fn weighted_quantile(samples: &[(f64, u64)], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = sorted.iter().map(|s| s.1).sum();
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total.max(1));
    let mut seen = 0;
    for (value, count) in sorted {
        seen += count;
        if seen >= rank {
            return value;
        }
    }
    0.0
}

/// Least squares without intercept: the coefficients `c` minimising
/// `Σ (y_i − c · x_i)²`, by Gaussian elimination on the normal equations.
/// `None` when the regressors are linearly dependent.
pub fn least_squares<const N: usize>(xs: &[[f64; N]], ys: &[f64]) -> Option<[f64; N]> {
    let mut a = [[0.0; N]; N];
    let mut b = [0.0; N];
    for (x, &y) in xs.iter().zip(ys) {
        for i in 0..N {
            b[i] += x[i] * y;
            for j in 0..N {
                a[i][j] += x[i] * x[j];
            }
        }
    }
    for col in 0..N {
        let pivot = (col..N).max_by(|&p, &q| a[p][col].abs().total_cmp(&a[q][col].abs()))?;
        if a[pivot][col].abs() < 1e-300 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..N {
            let f = a[row][col] / a[col][col];
            let pivot_row = a[col];
            for (x, p) in a[row][col..].iter_mut().zip(&pivot_row[col..]) {
                *x -= f * p;
            }
            b[row] -= f * b[col];
        }
    }
    let mut c = [0.0; N];
    for row in (0..N).rev() {
        let tail: f64 = (row + 1..N).map(|k| a[row][k] * c[k]).sum();
        c[row] = (b[row] - tail) / a[row][row];
    }
    Some(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[]), 0.0);
        let weighted: Vec<(f64, u64)> = vec![(3.0, 1), (1.0, 98), (2.0, 1)];
        assert_eq!(weighted_quantile(&weighted, 0.5), 1.0);
        assert_eq!(weighted_quantile(&weighted, 0.99), 2.0);
        assert_eq!(weighted_quantile(&weighted, 1.0), 3.0);
        assert_eq!(weighted_quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn least_squares_recovers_exact_coefficients() {
        let xs: Vec<[f64; 3]> = (0..20)
            .map(|i| [i as f64, (i * i % 7) as f64, (i % 3) as f64 + 1.0])
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| 2.0 * x[0] - 0.5 * x[1] + 3.0 * x[2])
            .collect();
        let c = least_squares(&xs, &ys).expect("independent regressors");
        for (got, want) in c.iter().zip([2.0, -0.5, 3.0]) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }
}
