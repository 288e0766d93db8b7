//! Differentially private copula-family selection by AIC — the paper's
//! §3.2 remark ("we can use many approaches to test the goodness-of-fit,
//! such as Akaike's Information Criterion (AIC), to identify the best
//! copula") turned into a working mechanism, plus an adaptive synthesizer
//! that picks between the Gaussian and Student-t families before
//! sampling.
//!
//! The AIC of a copula family `F` with `k_F` parameters is
//! `2 k_F - 2 ln L`. Selection is by **subsample-and-aggregate voting**:
//! each disjoint block computes its own AIC for every candidate (on its
//! block-local pseudo-copula data and block-local correlation estimate)
//! and votes for the minimiser; the vote histogram is released through
//! the Laplace mechanism (one record lives in one block and can flip at
//! most that block's single vote, so the histogram has L1 sensitivity 2)
//! and the arg-max candidate wins. Voting is far more robust than
//! averaging noisy log-likelihoods: the per-block AIC differences that
//! matter are O(block) while a DP mean-log-likelihood release must be
//! calibrated to a worst-case rank rearrangement and drowns the signal.
//!
//! [`dp_select_family`] is the one selection release. Over Student-t
//! candidates alone it selects the degrees of freedom: every candidate
//! pays the same AIC penalty, so each block votes for its highest
//! (clamped) t-copula log-likelihood.

use crate::empirical::{pseudo_copula_column, MarginalDistribution};
use crate::error::{validate_budget, validate_columns, DpCopulaError};
use crate::gaussian::GaussianCopula;
use crate::kendall::{dp_correlation_matrix, SamplingStrategy};
use crate::sampler::CopulaSampler;
use crate::synthesizer::{DpCopulaConfig, Synthesis};
use crate::tcopula::{TCopula, TCopulaSampler};
use dphist::histogram::Histogram1D;
use dpmech::{laplace_noise, Epsilon};
use mathkit::dist::Continuous as _;
use mathkit::special::norm_quantile;
use mathkit::stats::pearson;
use mathkit::Matrix;
use rngkit::Rng;

/// Clamp applied to per-record log-densities so the AIC release has
/// bounded sensitivity.
pub const LL_CLAMP: f64 = 25.0;

/// A copula family candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CopulaFamily {
    /// The Gaussian copula (the paper's default).
    Gaussian,
    /// Student-t copula with fixed degrees of freedom.
    StudentT {
        /// Degrees of freedom `nu > 0`.
        df: f64,
    },
}

impl CopulaFamily {
    /// Number of free parameters beyond the correlation matrix (the
    /// matrix's `C(m,2)` entries are shared by all elliptical families).
    fn extra_params(self) -> f64 {
        match self {
            CopulaFamily::Gaussian => 0.0,
            CopulaFamily::StudentT { .. } => 1.0,
        }
    }
}

impl std::fmt::Display for CopulaFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CopulaFamily::Gaussian => write!(f, "gaussian"),
            CopulaFamily::StudentT { df } => write!(f, "t(nu={df})"),
        }
    }
}

/// One candidate's released support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FamilyScore {
    /// The candidate.
    pub family: CopulaFamily,
    /// Noisy count of blocks whose AIC preferred this candidate
    /// (higher is better).
    pub noisy_votes: f64,
}

/// Selects the best copula family by per-block AIC voting, spending
/// `epsilon` on the vote-histogram release.
pub fn dp_select_family<R: Rng + ?Sized>(
    columns: &[Vec<u32>],
    candidates: &[CopulaFamily],
    partitions: usize,
    epsilon: Epsilon,
    rng: &mut R,
) -> Result<(CopulaFamily, Vec<FamilyScore>), DpCopulaError> {
    assert!(!candidates.is_empty(), "need candidate families");
    let m = columns.len();
    assert!(m >= 2, "family selection needs at least two attributes");
    let n = columns[0].len();
    let l = partitions.max(1);
    let block = n / l;
    if block < 8 {
        return Err(DpCopulaError::InsufficientDataForMle {
            required_partitions: l,
            records: n,
        });
    }
    let pairs = (m * (m - 1) / 2) as f64;

    let mut votes = vec![0.0; candidates.len()];
    let mut u_cols: Vec<Vec<f64>> = vec![Vec::new(); m];
    for t in 0..l {
        let lo = t * block;
        let hi = lo + block;
        for (j, col) in columns.iter().enumerate() {
            u_cols[j] = pseudo_copula_column(&col[lo..hi]);
        }
        let scores: Vec<Vec<f64>> = u_cols
            .iter()
            .map(|u| u.iter().map(|&v| norm_quantile(v)).collect())
            .collect();
        let mut p = Matrix::identity(m);
        for i in 0..m {
            for j in (i + 1)..m {
                let r = pearson(&scores[i], &scores[j]).clamp(-0.95, 0.95);
                p[(i, j)] = r;
                p[(j, i)] = r;
            }
        }
        let p = mathkit::correlation::repair_positive_definite(&p);

        // Per-block AIC for every candidate; vote for the minimiser.
        let mut best = (0usize, f64::INFINITY);
        for (ci, &family) in candidates.iter().enumerate() {
            let mut ll = 0.0;
            match family {
                CopulaFamily::Gaussian => {
                    let c = GaussianCopula::new(p.clone()).expect("repaired matrix is PD");
                    for row in 0..block {
                        let z: Vec<f64> = scores.iter().map(|s| s[row]).collect();
                        ll += c.log_density_scores(&z).clamp(-LL_CLAMP, LL_CLAMP);
                    }
                }
                CopulaFamily::StudentT { df } => {
                    let c = TCopula::new(p.clone(), df).expect("repaired matrix is PD");
                    let tdist = mathkit::dist::StudentT::new(df).expect("positive df");
                    for row in 0..block {
                        let x: Vec<f64> = u_cols.iter().map(|u| tdist.quantile(u[row])).collect();
                        ll += c.log_density_scores(&x).clamp(-LL_CLAMP, LL_CLAMP);
                    }
                }
            }
            let aic = 2.0 * (pairs + family.extra_params()) - 2.0 * ll;
            if aic < best.1 {
                best = (ci, aic);
            }
        }
        votes[best.0] += 1.0;
    }

    // One record flips at most one block's vote (L1 sensitivity 2 on the
    // histogram).
    let scores: Vec<FamilyScore> = candidates
        .iter()
        .zip(&votes)
        .map(|(&family, &v)| FamilyScore {
            family,
            noisy_votes: v + laplace_noise(rng, 2.0 / epsilon.value()),
        })
        .collect();
    let best = scores
        .iter()
        .max_by(|a, b| {
            a.noisy_votes
                .partial_cmp(&b.noisy_votes)
                .expect("finite votes")
        })
        .expect("non-empty");
    Ok((best.family, scores.clone()))
}

/// Configuration of the adaptive (family-selecting) synthesizer.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Base DPCopula configuration; its `epsilon` is the total budget.
    pub base: DpCopulaConfig,
    /// Candidate families (default: Gaussian plus t with nu in {4, 10}).
    pub candidates: Vec<CopulaFamily>,
    /// Fraction of the budget spent on family selection.
    pub selection_fraction: f64,
    /// Subsample-and-aggregate block count for the selection.
    pub partitions: usize,
}

impl AdaptiveConfig {
    /// Sensible defaults around a base configuration.
    pub fn new(base: DpCopulaConfig) -> Self {
        Self {
            base,
            candidates: vec![
                CopulaFamily::Gaussian,
                CopulaFamily::StudentT { df: 4.0 },
                CopulaFamily::StudentT { df: 10.0 },
            ],
            selection_fraction: 0.1,
            partitions: 100,
        }
    }
}

/// Result of an adaptive synthesis: the usual release plus which family
/// won and the score table.
#[derive(Debug, Clone)]
pub struct AdaptiveSynthesis {
    /// The synthetic release.
    pub synthesis: Synthesis,
    /// The selected family.
    pub family: CopulaFamily,
    /// Noisy AIC scores of every candidate.
    pub scores: Vec<FamilyScore>,
}

/// Runs family selection and then the full DPCopula pipeline with the
/// winning family. Budget: `selection_fraction * eps` on selection, the
/// rest split between margins and correlations as usual.
///
/// *Soft-deprecated:* prefer
/// [`crate::request::SynthesisRequest::run_adaptive`], which derives the
/// generator from the request's seed and shares the front-door builder;
/// for a generator seeded identically it releases byte-identical output
/// (`DESIGN.md` §10).
pub fn synthesize_adaptive<R: Rng + ?Sized>(
    config: &AdaptiveConfig,
    columns: &[Vec<u32>],
    domains: &[usize],
    rng: &mut R,
) -> Result<AdaptiveSynthesis, DpCopulaError> {
    validate_columns(columns, domains)?;
    if columns.len() < 2 {
        // Copula-family selection is meaningless without dependence.
        return Err(DpCopulaError::TooFewAttributes {
            attributes: columns.len(),
            required: 2,
        });
    }
    assert!(
        config.selection_fraction > 0.0 && config.selection_fraction < 1.0,
        "selection fraction must be in (0,1)"
    );
    let total = config.base.epsilon;
    let eps_select = total.fraction(config.selection_fraction);
    let eps_rest = Epsilon::new(total.value() - eps_select.value())?;
    validate_budget(eps_rest, config.base.k_ratio, columns.len())?;

    let (family, scores) = dp_select_family(
        columns,
        &config.candidates,
        config.partitions,
        eps_select,
        rng,
    )?;

    // Margins + correlation with the remaining budget.
    let (eps1, eps2) = eps_rest.split_ratio(config.base.k_ratio);
    let m = columns.len();
    let n = columns[0].len();
    let eps_margin = eps1.divide(m);
    let mut margins = Vec::with_capacity(m);
    let mut noisy_margins = Vec::with_capacity(m);
    for (col, &domain) in columns.iter().zip(domains) {
        let exact = Histogram1D::from_values(col, domain);
        let noisy = config.base.margin.publish(exact.counts(), eps_margin, rng);
        margins.push(MarginalDistribution::from_noisy_histogram(&noisy));
        noisy_margins.push(noisy);
    }
    let correlation = dp_correlation_matrix(columns, eps2, SamplingStrategy::Auto, rng);

    let n_out = config.base.output_records.unwrap_or(n);
    let columns_out = match family {
        CopulaFamily::Gaussian => {
            CopulaSampler::new(&correlation, margins)?.sample_columns(n_out, rng)
        }
        CopulaFamily::StudentT { df } => {
            TCopulaSampler::new(&correlation, df, margins)?.sample_columns(n_out, rng)
        }
    };

    Ok(AdaptiveSynthesis {
        synthesis: Synthesis {
            columns: columns_out,
            correlation,
            noisy_margins,
            epsilon_margins: eps1.value(),
            epsilon_correlations: eps2.value(),
        },
        family,
        scores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::empirical::MarginalDistribution;
    use mathkit::correlation::equicorrelation;
    use rngkit::rngs::StdRng;
    use rngkit::SeedableRng;

    fn uniform_margin(domain: usize) -> MarginalDistribution {
        MarginalDistribution::from_noisy_histogram(&vec![1.0; domain])
    }

    fn gaussian_data(n: usize, seed: u64) -> Vec<Vec<u32>> {
        let p = equicorrelation(2, 0.6);
        let s = CopulaSampler::new(&p, vec![uniform_margin(400), uniform_margin(400)]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        s.sample_columns(n, &mut rng)
    }

    fn t_data(n: usize, seed: u64) -> Vec<Vec<u32>> {
        let p = equicorrelation(2, 0.6);
        let s =
            TCopulaSampler::new(&p, 3.0, vec![uniform_margin(400), uniform_margin(400)]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        s.sample_columns(n, &mut rng)
    }

    #[test]
    fn aic_prefers_gaussian_on_gaussian_data() {
        let cols = gaussian_data(12_000, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let (best, scores) = dp_select_family(
            &cols,
            &[CopulaFamily::Gaussian, CopulaFamily::StudentT { df: 3.0 }],
            80,
            Epsilon::new(10.0).unwrap(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(best, CopulaFamily::Gaussian, "scores {scores:?}");
        assert_eq!(scores.len(), 2);
    }

    #[test]
    fn aic_prefers_t_on_t_data() {
        let cols = t_data(12_000, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let (best, scores) = dp_select_family(
            &cols,
            &[CopulaFamily::Gaussian, CopulaFamily::StudentT { df: 3.0 }],
            80,
            Epsilon::new(10.0).unwrap(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(
            best,
            CopulaFamily::StudentT { df: 3.0 },
            "scores {scores:?}"
        );
    }

    #[test]
    fn adaptive_synthesis_runs_end_to_end() {
        let cols = t_data(8_000, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let config = AdaptiveConfig::new(DpCopulaConfig::kendall(Epsilon::new(5.0).unwrap()));
        let out = synthesize_adaptive(&config, &cols, &[400, 400], &mut rng).unwrap();
        assert_eq!(out.synthesis.columns.len(), 2);
        assert_eq!(out.synthesis.columns[0].len(), 8_000);
        assert!(out.synthesis.columns.iter().flatten().all(|&v| v < 400));
        assert_eq!(out.scores.len(), 3);
        // Budget: selection 10% + (margins + correlations) = total.
        let spent = 0.5 + out.synthesis.epsilon_margins + out.synthesis.epsilon_correlations;
        assert!((spent - 5.0).abs() < 1e-9, "spent {spent}");
    }

    #[test]
    fn tiny_blocks_error() {
        let cols = vec![vec![1u32; 20], vec![2u32; 20]];
        let mut rng = StdRng::seed_from_u64(7);
        let err = dp_select_family(
            &cols,
            &[CopulaFamily::Gaussian, CopulaFamily::StudentT { df: 3.0 }],
            10,
            Epsilon::new(1.0).unwrap(),
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, DpCopulaError::InsufficientDataForMle { .. }));
    }
}
