//! The Gaussian copula density (Definition 3.4, Equation 1) and its
//! log-likelihood — the objective of DPCopula-MLE.

use mathkit::cholesky::{inverse_spd, log_det_spd, CholeskyError};
use mathkit::special::norm_quantile;
use mathkit::Matrix;

/// A Gaussian copula with a fixed (positive-definite) correlation matrix.
#[derive(Debug, Clone)]
pub struct GaussianCopula {
    p: Matrix,
    p_inv: Matrix,
    log_det: f64,
}

impl GaussianCopula {
    /// Builds the copula; fails if `p` is not symmetric positive definite.
    pub fn new(p: Matrix) -> Result<Self, CholeskyError> {
        let log_det = log_det_spd(&p)?;
        let p_inv = inverse_spd(&p)?;
        Ok(Self { p, p_inv, log_det })
    }

    /// Dimension `m`.
    pub fn dim(&self) -> usize {
        self.p.rows()
    }

    /// The correlation matrix.
    pub fn correlation(&self) -> &Matrix {
        &self.p
    }

    /// Log-density of the copula at `u` in `(0,1)^m` (Equation 1):
    /// `log c(u) = -1/2 log|P| - 1/2 z^T (P^{-1} - I) z` with
    /// `z = Phi^{-1}(u)`.
    pub fn log_density(&self, u: &[f64]) -> f64 {
        assert_eq!(u.len(), self.dim(), "dimension mismatch");
        let z: Vec<f64> = u.iter().map(|&ui| norm_quantile(ui)).collect();
        self.log_density_scores(&z)
    }

    /// Log-density given pre-computed normal scores `z = Phi^{-1}(u)`.
    pub fn log_density_scores(&self, z: &[f64]) -> f64 {
        assert_eq!(z.len(), self.dim(), "dimension mismatch");
        let mut quad = 0.0;
        for i in 0..z.len() {
            for j in 0..z.len() {
                let pij = self.p_inv[(i, j)] - if i == j { 1.0 } else { 0.0 };
                quad += z[i] * pij * z[j];
            }
        }
        -0.5 * self.log_det - 0.5 * quad
    }

    /// Density (exponentiated log-density).
    pub fn density(&self, u: &[f64]) -> f64 {
        self.log_density(u).exp()
    }
}

/// Pairwise Gaussian-copula log-likelihood for normal scores `(a, b)` at
/// correlation `rho` — the 2-D specialisation used by the per-partition
/// MLE of Algorithm 2.
pub fn pairwise_log_likelihood(a: &[f64], b: &[f64], rho: f64) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len() as f64;
    let r2 = rho * rho;
    let s_ab: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let s2: f64 = a.iter().zip(b).map(|(x, y)| x * x + y * y).sum();
    -0.5 * n * (1.0 - r2).ln() - (r2 * s2 - 2.0 * rho * s_ab) / (2.0 * (1.0 - r2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathkit::correlation::equicorrelation;

    #[test]
    fn independence_copula_density_is_one() {
        let c = GaussianCopula::new(Matrix::identity(3)).unwrap();
        for u in [[0.5, 0.5, 0.5], [0.1, 0.7, 0.9], [0.25, 0.5, 0.75]] {
            assert!((c.density(&u) - 1.0).abs() < 1e-10, "u={u:?}");
        }
    }

    #[test]
    fn positive_dependence_concentrates_on_diagonal() {
        let c = GaussianCopula::new(equicorrelation(2, 0.8)).unwrap();
        // Density along the diagonal exceeds density at anti-diagonal.
        assert!(c.density(&[0.8, 0.8]) > c.density(&[0.8, 0.2]));
        assert!(c.density(&[0.1, 0.1]) > c.density(&[0.1, 0.9]));
    }

    #[test]
    fn rejects_indefinite_correlation() {
        assert!(GaussianCopula::new(equicorrelation(3, -0.9)).is_err());
    }

    #[test]
    fn bivariate_matches_closed_form() {
        // For the 2-D case the density is
        // 1/sqrt(1-r^2) * exp(-(r^2(a^2+b^2) - 2rab)/(2(1-r^2))).
        let r = 0.6_f64;
        let c = GaussianCopula::new(equicorrelation(2, r)).unwrap();
        let u = [0.3, 0.7];
        let a = norm_quantile(u[0]);
        let b = norm_quantile(u[1]);
        let expect = (1.0 - r * r).powf(-0.5)
            * (-(r * r * (a * a + b * b) - 2.0 * r * a * b) / (2.0 * (1.0 - r * r))).exp();
        assert!((c.density(&u) - expect).abs() < 1e-10);
    }

    #[test]
    fn pairwise_likelihood_peaks_near_true_correlation() {
        // Synthetic scores with known correlation 0.5.
        use mathkit::dist::MultivariateNormal;
        use rngkit::rngs::StdRng;
        use rngkit::SeedableRng;
        let mvn = MultivariateNormal::new(&equicorrelation(2, 0.5)).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let cols = mvn.sample_columns(&mut rng, 5_000);
        let mut best = (-2.0, f64::NEG_INFINITY);
        let mut r = -0.95;
        while r < 0.96 {
            let ll = pairwise_log_likelihood(&cols[0], &cols[1], r);
            if ll > best.1 {
                best = (r, ll);
            }
            r += 0.05;
        }
        assert!((best.0 - 0.5).abs() < 0.1, "argmax {}", best.0);
    }
}
