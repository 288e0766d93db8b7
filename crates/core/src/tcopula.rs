//! The Student-t copula — the paper's first future-work item ("we plan to
//! ... employ other copula families").
//!
//! A t copula adds *tail dependence* that the Gaussian copula cannot
//! express: extreme values co-occur with positive probability even for
//! moderate correlations. It is parameterised by a correlation matrix `P`
//! and degrees of freedom `nu`; as `nu -> inf` it converges to the
//! Gaussian copula.
//!
//! DP estimation reuses the machinery of Algorithm 5 unchanged for `P`:
//! the identity `rho = sin(pi/2 * tau)` holds for **every** elliptical
//! copula, so the noisy-Kendall estimator and its privacy proof carry
//! over verbatim. A fit chooses between the Gaussian and t copulas with
//! 4 or 10 degrees of freedom when its request asks for
//! [`crate::SynthesisRequest::select_family`]: each disjoint block votes
//! for its lowest-AIC candidate, the vote histogram is released through
//! the Laplace mechanism, and the winner is written into the artifact,
//! whose [`crate::FittedModel`] samples through [`TCopulaSampler`]. This
//! module holds the density and the sampler; it releases nothing itself.
//!
//! Sampling follows the classic construction: `x = z / sqrt(w / nu)` with
//! `z ~ N(0, P)` and `w ~ chi^2(nu)`, then `u_j = T_nu(x_j)` and the
//! inverse DP margins as in Algorithm 3.

use crate::empirical::MarginalDistribution;
use mathkit::cholesky::{inverse_spd, log_det_spd, CholeskyError};
use mathkit::dist::{Continuous, Gamma, MultivariateNormal, StudentT};
use mathkit::special::ln_gamma;
use mathkit::Matrix;
use rngkit::Rng;

/// A Student-t copula with correlation matrix `P` and `nu` degrees of
/// freedom.
#[derive(Debug, Clone)]
pub struct TCopula {
    p: Matrix,
    p_inv: Matrix,
    log_det: f64,
    nu: f64,
}

impl TCopula {
    /// Builds the copula; fails when `P` is not positive definite.
    ///
    /// # Panics
    /// Panics when `nu` is not finite and positive.
    pub fn new(p: Matrix, nu: f64) -> Result<Self, CholeskyError> {
        assert!(
            nu.is_finite() && nu > 0.0,
            "degrees of freedom must be positive"
        );
        let log_det = log_det_spd(&p)?;
        let p_inv = inverse_spd(&p)?;
        Ok(Self {
            p,
            p_inv,
            log_det,
            nu,
        })
    }

    /// Dimension `m`.
    pub fn dim(&self) -> usize {
        self.p.rows()
    }

    /// Degrees of freedom.
    pub fn df(&self) -> f64 {
        self.nu
    }

    /// The correlation matrix.
    pub fn correlation(&self) -> &Matrix {
        &self.p
    }

    /// Log-density of the t copula at `u` in `(0,1)^m`:
    ///
    /// `log c(u) = log f_{P,nu}(x) - sum_j log f_nu(x_j)` with
    /// `x_j = T_nu^{-1}(u_j)`, `f_{P,nu}` the multivariate-t density and
    /// `f_nu` the univariate one.
    pub fn log_density(&self, u: &[f64]) -> f64 {
        assert_eq!(u.len(), self.dim(), "dimension mismatch");
        let t = StudentT::new(self.nu).expect("validated df");
        let x: Vec<f64> = u.iter().map(|&ui| t.quantile(ui)).collect();
        self.log_density_scores(&x)
    }

    /// Log-density given the t scores `x = T_nu^{-1}(u)`.
    pub fn log_density_scores(&self, x: &[f64]) -> f64 {
        let m = self.dim() as f64;
        let nu = self.nu;
        // Multivariate t log-density (up to the margin terms).
        let mut quad = 0.0;
        for i in 0..x.len() {
            for j in 0..x.len() {
                quad += x[i] * self.p_inv[(i, j)] * x[j];
            }
        }
        let lg = |v: f64| ln_gamma(v);
        let joint = lg((nu + m) / 2.0)
            - lg(nu / 2.0)
            - 0.5 * self.log_det
            - m / 2.0 * (nu * std::f64::consts::PI).ln()
            - (nu + m) / 2.0 * (1.0 + quad / nu).ln();
        let marginals: f64 = x
            .iter()
            .map(|&xi| {
                lg((nu + 1.0) / 2.0)
                    - lg(nu / 2.0)
                    - 0.5 * (nu * std::f64::consts::PI).ln()
                    - (nu + 1.0) / 2.0 * (1.0 + xi * xi / nu).ln()
            })
            .sum();
        joint - marginals
    }

    /// Density (exponentiated log-density).
    pub fn density(&self, u: &[f64]) -> f64 {
        self.log_density(u).exp()
    }
}

/// Samples synthetic records from a t copula plus DP margins — the
/// t-copula analogue of Algorithm 3.
#[derive(Debug, Clone)]
pub struct TCopulaSampler {
    mvn: MultivariateNormal,
    chi2: Gamma,
    nu: f64,
    t: StudentT,
    margins: Vec<MarginalDistribution>,
}

impl TCopulaSampler {
    /// Builds the sampler.
    ///
    /// # Panics
    /// Panics on a margin-count mismatch or non-positive `nu`.
    pub fn new(
        p: &Matrix,
        nu: f64,
        margins: Vec<MarginalDistribution>,
    ) -> Result<Self, CholeskyError> {
        assert_eq!(p.rows(), margins.len(), "one margin per dimension");
        assert!(
            nu.is_finite() && nu > 0.0,
            "degrees of freedom must be positive"
        );
        Ok(Self {
            mvn: MultivariateNormal::new(p)?,
            chi2: Gamma::new(nu / 2.0, 2.0).expect("valid chi^2 parameters"),
            nu,
            t: StudentT::new(nu).expect("validated df"),
            margins,
        })
    }

    /// Number of attributes.
    pub fn dims(&self) -> usize {
        self.margins.len()
    }

    /// Draws one synthetic record into `out`.
    ///
    /// # Panics
    /// Panics when `out.len() != self.dims()`.
    pub fn sample_record<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [u32]) {
        assert_eq!(out.len(), self.dims(), "output buffer size mismatch");
        let mut z = vec![0.0; self.dims()];
        self.mvn.sample_into(rng, &mut z);
        let w = self.chi2.sample(rng).max(1e-12);
        let scale = (self.nu / w).sqrt();
        for (j, margin) in self.margins.iter().enumerate() {
            let u = self.t.cdf(z[j] * scale);
            out[j] = margin.quantile(u);
        }
    }

    /// Draws `n` records, column-major.
    pub fn sample_columns<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<Vec<u32>> {
        crate::sampler::record_chunk(self.dims(), 0, n, |buf| self.sample_record(rng, buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DpCopulaError;
    use crate::kendall::kendall_tau;
    use crate::selection::dp_select_family;
    use dpmech::Epsilon;
    use mathkit::correlation::equicorrelation;
    use modelstore::CopulaFamily;
    use rngkit::rngs::StdRng;
    use rngkit::SeedableRng;

    fn uniform_margin(domain: usize) -> MarginalDistribution {
        MarginalDistribution::from_noisy_histogram(&vec![1.0; domain])
    }

    #[test]
    fn independence_copula_density_is_one_at_large_nu() {
        // As nu grows the t copula approaches the Gaussian; with P = I
        // the density tends to 1.
        let c = TCopula::new(Matrix::identity(2), 1e6).unwrap();
        for u in [[0.5, 0.5], [0.2, 0.7], [0.9, 0.1]] {
            assert!(
                (c.density(&u) - 1.0).abs() < 0.01,
                "u={u:?} d={}",
                c.density(&u)
            );
        }
    }

    #[test]
    fn t_copula_has_heavier_joint_tails_than_gaussian() {
        use crate::gaussian::GaussianCopula;
        let p = equicorrelation(2, 0.5);
        let t = TCopula::new(p.clone(), 3.0).unwrap();
        let g = GaussianCopula::new(p).unwrap();
        // Joint extreme corner: the t copula puts more density there.
        let corner = [0.001, 0.001];
        assert!(
            t.density(&corner) > g.density(&corner),
            "t {} vs gaussian {}",
            t.density(&corner),
            g.density(&corner)
        );
    }

    #[test]
    fn sampling_respects_domains_and_dependence() {
        let p = equicorrelation(2, 0.7);
        let s =
            TCopulaSampler::new(&p, 5.0, vec![uniform_margin(300), uniform_margin(300)]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let cols = s.sample_columns(8_000, &mut rng);
        assert!(cols.iter().flatten().all(|&v| v < 300));
        // Elliptical copulas share tau = 2/pi asin(rho).
        let tau = kendall_tau(&cols[0], &cols[1]);
        let expect = 2.0 / std::f64::consts::PI * 0.7_f64.asin();
        assert!((tau - expect).abs() < 0.04, "tau {tau} vs {expect}");
    }

    #[test]
    fn sampler_rejects_indefinite_matrix() {
        let p = equicorrelation(3, -0.9);
        let margins = vec![uniform_margin(4); 3];
        assert!(TCopulaSampler::new(&p, 4.0, margins).is_err());
    }

    /// Degrees-of-freedom selection is `dp_select_family` over t candidates
    /// alone: equal AIC penalties leave the vote to the block likelihood.
    fn select_df(
        cols: &[Vec<u32>],
        dfs: &[f64],
        partitions: usize,
        epsilon: f64,
        seed: u64,
    ) -> Result<f64, DpCopulaError> {
        let candidates: Vec<CopulaFamily> = dfs
            .iter()
            .map(|&dof| CopulaFamily::StudentT { dof })
            .collect();
        let best = dp_select_family(
            cols,
            &candidates,
            partitions,
            Epsilon::new(epsilon).unwrap(),
            seed,
        )?;
        match best {
            CopulaFamily::StudentT { dof } => Ok(dof),
            other => panic!("t candidates selected {other:?}"),
        }
    }

    #[test]
    fn df_selection_prefers_small_nu_for_t_data() {
        // Data from a t copula with nu = 3 should vote for small nu.
        let p = equicorrelation(2, 0.6);
        let margins = vec![uniform_margin(500), uniform_margin(500)];
        let gen = TCopulaSampler::new(&p, 3.0, margins).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let cols = gen.sample_columns(12_000, &mut rng);
        let nu = select_df(&cols, &[3.0, 10.0, 1e5], 60, 5.0, 12).unwrap();
        assert_eq!(nu, 3.0, "selected nu {nu}");
    }

    #[test]
    fn df_selection_prefers_large_nu_for_gaussian_data() {
        use crate::sampler::CopulaSampler;
        let p = equicorrelation(2, 0.6);
        let margins = vec![uniform_margin(500), uniform_margin(500)];
        let gen = CopulaSampler::new(&p, margins).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let cols = gen.sample_columns(12_000, &mut rng);
        let nu = select_df(&cols, &[3.0, 1e5], 60, 5.0, 13).unwrap();
        assert_eq!(nu, 1e5, "selected nu {nu}");
    }

    #[test]
    fn df_selection_errors_on_tiny_blocks() {
        let cols = vec![vec![1u32, 2, 3], vec![3u32, 2, 1]];
        let err = select_df(&cols, &[3.0, 10.0], 10, 1.0, 4).unwrap_err();
        assert!(matches!(err, DpCopulaError::InsufficientDataForMle { .. }));
    }
}
