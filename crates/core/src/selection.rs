//! Differentially private copula-family selection by AIC — the paper's
//! §3.2 remark ("we can use many approaches to test the goodness-of-fit,
//! such as Akaike's Information Criterion (AIC), to identify the best
//! copula") turned into a step of the fit. A request that calls
//! [`crate::SynthesisRequest::select_family`] spends a tenth of its ε on
//! a vote inside the `correlation` stage between the Gaussian and
//! Student-t copulas with 4 and 10 degrees of freedom, splits the rest by
//! `k` as usual, and writes the winner into its artifact's family.
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
//! `dp_select_family` is the one selection release. Over Student-t
//! candidates alone it selects the degrees of freedom: every candidate
//! pays the same AIC penalty, so each block votes for its highest
//! (clamped) t-copula log-likelihood.

use crate::empirical::pseudo_copula_column;
use crate::engine::STREAM_SELECTION;
use crate::error::DpCopulaError;
use crate::gaussian::GaussianCopula;
use crate::tcopula::TCopula;
use dpmech::{laplace_noise, Epsilon};
use mathkit::dist::Continuous as _;
use mathkit::special::norm_quantile;
use mathkit::stats::pearson;
use mathkit::Matrix;
use modelstore::CopulaFamily;

/// Clamp applied to per-record log-densities so the AIC release has
/// bounded sensitivity.
pub const LL_CLAMP: f64 = 25.0;

/// The families a selecting fit votes over: the Gaussian, and Student-t
/// with 4 and 10 degrees of freedom.
pub(crate) const CANDIDATES: [CopulaFamily; 3] = [
    CopulaFamily::Gaussian,
    CopulaFamily::StudentT { dof: 4.0 },
    CopulaFamily::StudentT { dof: 10.0 },
];

/// The share of a selecting fit's ε the vote spends.
pub(crate) const SELECTION_SHARE: f64 = 0.1;

/// Subsample-and-aggregate blocks of a selecting fit's vote.
pub(crate) const SELECTION_BLOCKS: usize = 100;

/// Selects the best copula family by per-block AIC voting over
/// `partitions` disjoint blocks of `columns`, spending `epsilon` on the
/// vote-histogram release. Candidate `i`'s Laplace noise comes from
/// `stream_rng(base_seed, STREAM_SELECTION, i)`, so the winner is a pure
/// function of the rows, the candidates and the seed.
///
/// # Panics
/// Panics without candidates, below two columns, or on a hybrid
/// candidate.
pub(crate) fn dp_select_family(
    columns: &[Vec<u32>],
    candidates: &[CopulaFamily],
    partitions: usize,
    epsilon: Epsilon,
    base_seed: u64,
) -> Result<CopulaFamily, DpCopulaError> {
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

        // Per-block AIC for every candidate; vote for the minimiser. A
        // t candidate pays one parameter beyond the shared matrix.
        let mut best = (0usize, f64::INFINITY);
        for (ci, &family) in candidates.iter().enumerate() {
            let mut ll = 0.0;
            let extra = match family {
                CopulaFamily::Gaussian => {
                    let c = GaussianCopula::new(p.clone()).expect("repaired matrix is PD");
                    for row in 0..block {
                        let z: Vec<f64> = scores.iter().map(|s| s[row]).collect();
                        ll += c.log_density_scores(&z).clamp(-LL_CLAMP, LL_CLAMP);
                    }
                    0.0
                }
                CopulaFamily::StudentT { dof } => {
                    let c = TCopula::new(p.clone(), dof).expect("repaired matrix is PD");
                    let tdist = mathkit::dist::StudentT::new(dof).expect("positive dof");
                    for row in 0..block {
                        let x: Vec<f64> = u_cols.iter().map(|u| tdist.quantile(u[row])).collect();
                        ll += c.log_density_scores(&x).clamp(-LL_CLAMP, LL_CLAMP);
                    }
                    1.0
                }
                CopulaFamily::Hybrid { .. } => panic!("the hybrid is not a copula candidate"),
            };
            let aic = 2.0 * (pairs + extra) - 2.0 * ll;
            if aic < best.1 {
                best = (ci, aic);
            }
        }
        votes[best.0] += 1.0;
    }

    // One record flips at most one block's vote (L1 sensitivity 2 on the
    // histogram).
    let noisy: Vec<f64> = votes
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let mut rng = parkit::stream_rng(base_seed, STREAM_SELECTION, i as u64);
            v + laplace_noise(&mut rng, 2.0 / epsilon.value())
        })
        .collect();
    let best = (0..candidates.len())
        .max_by(|&a, &b| noisy[a].partial_cmp(&noisy[b]).expect("finite votes"))
        .expect("non-empty");
    Ok(candidates[best])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::empirical::MarginalDistribution;
    use crate::sampler::CopulaSampler;
    use crate::tcopula::TCopulaSampler;
    use crate::SynthesisRequest;
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

    const GAUSSIAN_OR_T3: [CopulaFamily; 2] =
        [CopulaFamily::Gaussian, CopulaFamily::StudentT { dof: 3.0 }];

    #[test]
    fn aic_prefers_gaussian_on_gaussian_data() {
        let cols = gaussian_data(12_000, 1);
        let eps = Epsilon::new(10.0).unwrap();
        let best = dp_select_family(&cols, &GAUSSIAN_OR_T3, 80, eps, 2).unwrap();
        assert_eq!(best, CopulaFamily::Gaussian);
    }

    #[test]
    fn aic_prefers_t_on_t_data() {
        let cols = t_data(12_000, 3);
        let eps = Epsilon::new(10.0).unwrap();
        let best = dp_select_family(&cols, &GAUSSIAN_OR_T3, 80, eps, 4).unwrap();
        assert_eq!(best, CopulaFamily::StudentT { dof: 3.0 });
    }

    #[test]
    fn vote_noise_comes_from_the_selection_stream() {
        // At ε = 1e-9 the noise (scale 2e9) swamps 100 block votes, so
        // the larger of the two candidates' draws on their
        // `STREAM_SELECTION` generators picks the winner.
        let cols = gaussian_data(800, 9);
        let eps = Epsilon::new(1e-9).unwrap();
        let mut wins = [0; 2];
        for seed in 0..16 {
            let noise = |i| {
                let mut rng = parkit::stream_rng(seed, STREAM_SELECTION, i);
                laplace_noise(&mut rng, 2.0 / eps.value())
            };
            let want = usize::from(noise(1) > noise(0));
            let best = dp_select_family(&cols, &GAUSSIAN_OR_T3, 100, eps, seed).unwrap();
            assert_eq!(best, GAUSSIAN_OR_T3[want], "seed {seed}");
            wins[want] += 1;
        }
        assert!(wins[0] > 0 && wins[1] > 0, "{wins:?}");
    }

    #[test]
    fn adaptive_synthesis_runs_end_to_end() {
        // A selecting request releases rows, a family from the candidate
        // set, and a ledger of the vote's 10% plus the usual split.
        let cols = t_data(8_000, 5);
        let request = SynthesisRequest::new(&cols, &[400, 400], Epsilon::new(5.0).unwrap())
            .select_family()
            .seed(6);
        let (out, _) = request.run().unwrap();
        assert_eq!(out.columns.len(), 2);
        assert_eq!(out.columns[0].len(), 8_000);
        assert!(out.columns.iter().flatten().all(|&v| v < 400));
        let (model, _) = request.fit().unwrap();
        let artifact = model.artifact();
        assert!(
            CANDIDATES.contains(&artifact.family),
            "{:?}",
            artifact.family
        );
        let labels: Vec<&str> = artifact.ledger.entries.iter().map(|e| &*e.label).collect();
        assert_eq!(labels, ["selection", "margins", "correlation"]);
        assert!((artifact.ledger.entries[0].epsilon - 0.5).abs() < 1e-12);
        let spent = 0.5 + out.epsilon_margins + out.epsilon_correlations;
        assert!((spent - 5.0).abs() < 1e-9, "spent {spent}");
        assert!((artifact.ledger.spent() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn tiny_blocks_error() {
        let cols = vec![vec![1u32; 20], vec![2u32; 20]];
        let eps = Epsilon::new(1.0).unwrap();
        let err = dp_select_family(&cols, &GAUSSIAN_OR_T3, 10, eps, 7).unwrap_err();
        assert!(matches!(err, DpCopulaError::InsufficientDataForMle { .. }));
    }
}
