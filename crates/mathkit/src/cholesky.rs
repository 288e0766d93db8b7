//! Cholesky factorisation of symmetric positive-definite matrices.
//!
//! Algorithm 3 of the paper samples synthetic points from `N(0, P~)`; the
//! standard route is `z = L * g` with `P~ = L L^T` and `g` i.i.d. standard
//! normal. Cholesky failure is also used as the canonical positive-definite
//! test inside the Rousseeuw–Molenberghs repair (see [`crate::correlation`]).

use crate::matrix::Matrix;

/// Error returned when a matrix is not positive definite (or not square /
/// not symmetric enough to factor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CholeskyError {
    /// Input was not square.
    NotSquare,
    /// A non-positive pivot was encountered at the given index, meaning the
    /// matrix is not positive definite.
    NotPositiveDefinite(usize),
}

impl std::fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CholeskyError::NotSquare => write!(f, "matrix is not square"),
            CholeskyError::NotPositiveDefinite(i) => {
                write!(f, "matrix is not positive definite (pivot {i} <= 0)")
            }
        }
    }
}

impl std::error::Error for CholeskyError {}

/// Computes the lower-triangular Cholesky factor `L` with `A = L L^T`.
///
/// Only the lower triangle of `A` is read, so slight asymmetry from
/// floating-point noise is harmless.
pub fn cholesky(a: &Matrix) -> Result<Matrix, CholeskyError> {
    if !a.is_square() {
        return Err(CholeskyError::NotSquare);
    }
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(CholeskyError::NotPositiveDefinite(i));
                }
                l[(i, i)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// True when `a` admits a Cholesky factorisation, i.e. is symmetric positive
/// definite (up to floating point).
pub fn is_positive_definite(a: &Matrix) -> bool {
    a.is_square() && cholesky(a).is_ok()
}

/// Solves `A x = b` for symmetric positive-definite `A` via Cholesky
/// (forward then back substitution).
///
/// # Panics
/// Panics if `b.len() != a.rows()`.
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, CholeskyError> {
    assert_eq!(b.len(), a.rows(), "rhs length mismatch");
    let l = cholesky(a)?;
    let n = l.rows();
    // Forward: L y = b
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut s = b[i];
        for k in 0..i {
            s -= l[(i, k)] * y[k];
        }
        y[i] = s / l[(i, i)];
    }
    // Back: L^T x = y
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = y[i];
        for k in (i + 1)..n {
            s -= l[(k, i)] * x[k];
        }
        x[i] = s / l[(i, i)];
    }
    Ok(x)
}

/// Inverts a symmetric positive-definite matrix column by column:
/// column `j` of the inverse is [`solve_spd`] of `A x = e_j`.
pub fn inverse_spd(a: &Matrix) -> Result<Matrix, CholeskyError> {
    let m = a.rows();
    let mut inv = Matrix::zeros(m, m);
    let mut e = vec![0.0; m];
    for j in 0..m {
        e[j] = 1.0;
        let col = solve_spd(a, &e)?;
        for i in 0..m {
            inv[(i, j)] = col[i];
        }
        e[j] = 0.0;
    }
    Ok(inv)
}

/// Log-determinant of a symmetric positive-definite matrix via Cholesky:
/// `log det A = 2 * sum_i log L_ii`.
pub fn log_det_spd(a: &Matrix) -> Result<f64, CholeskyError> {
    let l = cholesky(a)?;
    Ok(2.0 * (0..l.rows()).map(|i| l[(i, i)].ln()).sum::<f64>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_known_matrix() {
        // A = [[4, 2], [2, 3]] => L = [[2, 0], [1, sqrt(2)]]
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let l = cholesky(&a).unwrap();
        assert!((l[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((l[(1, 0)] - 1.0).abs() < 1e-12);
        assert!((l[(1, 1)] - 2.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(l[(0, 1)], 0.0);
        // L L^T reconstructs A.
        let rec = l.matmul(&l.transpose());
        assert!(rec.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert_eq!(cholesky(&a), Err(CholeskyError::NotPositiveDefinite(1)));
        assert!(!is_positive_definite(&a));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert_eq!(cholesky(&a), Err(CholeskyError::NotSquare));
    }

    #[test]
    fn solve_recovers_solution() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let x_true = vec![1.5, -2.0];
        let b = a.matvec(&x_true);
        let x = solve_spd(&a, &b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = Matrix::from_rows(&[&[4.0, 2.0, 0.5], &[2.0, 3.0, 0.2], &[0.5, 0.2, 1.0]]);
        let inv = inverse_spd(&a).unwrap();
        assert!(a.matmul(&inv).max_abs_diff(&Matrix::identity(3)) < 1e-12);
        let indefinite = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(inverse_spd(&indefinite).is_err());
    }

    #[test]
    fn log_det_matches_direct() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        // det = 12 - 4 = 8
        assert!((log_det_spd(&a).unwrap() - 8.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn identity_is_its_own_factor() {
        let i = Matrix::identity(5);
        let l = cholesky(&i).unwrap();
        assert!(l.max_abs_diff(&i) < 1e-15);
        assert!(is_positive_definite(&i));
    }
}
