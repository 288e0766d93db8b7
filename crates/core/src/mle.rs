//! DPCopula-MLE (Algorithms 1–2): differentially private maximum
//! likelihood estimation of the Gaussian-copula correlation matrix by
//! subsample-and-aggregate (Dwork & Smith 2009).
//!
//! The data is split into `l` disjoint blocks; each block computes every
//! pairwise MLE on its own pseudo-copula data; the per-pair averages are
//! released with Laplace noise `Lap(C(m,2) * Lambda / (l * eps2))`,
//! `Lambda = 2` being the diameter of a correlation coefficient. One
//! record lives in exactly one block, so it moves each average by at most
//! `Lambda / l` — which is exactly what the noise is calibrated to.
//!
//! [`dp_mle_matrix_par`] is the one implementation: the fit's correlation
//! stage calls it and clamps and repairs the raw matrix it returns.

use crate::empirical::pseudo_copula_column;
use crate::engine::STREAM_MLE_NOISE;
use crate::error::DpCopulaError;
use dpmech::{laplace_noise, Epsilon};
use mathkit::special::norm_quantile;
use mathkit::stats::pearson;
use mathkit::Matrix;

/// Diameter of the correlation-coefficient parameter space `[-1, 1]`.
pub const COEFFICIENT_DIAMETER: f64 = 2.0;

/// The paper's partition-count requirement:
/// `l > C(m,2) / (0.025 * eps2)` so the aggregate noise stays below
/// 0.025 of the coefficient scale. Saturates at `usize::MAX` for a tiny
/// `eps2`, which no dataset can split into.
pub fn required_partitions(m: usize, eps2_total: f64) -> usize {
    let pairs = (m * (m - 1) / 2) as f64;
    ((pairs / (0.025 * eps2_total)).ceil() as usize).saturating_add(1)
}

/// Maximum-likelihood estimate of the bivariate Gaussian-copula
/// correlation from normal scores, by Newton iteration on the score
/// equation (the derivative of the pairwise log-likelihood), which reduces
/// to the cubic `-n r^3 + S_ab r^2 + (n - S2) r + S_ab = 0`.
pub fn pairwise_mle(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "score vectors must match");
    let n = a.len() as f64;
    assert!(n >= 2.0, "need at least two observations");
    let s_ab: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let s2: f64 = a.iter().zip(b).map(|(x, y)| x * x + y * y).sum();

    let f = |r: f64| -n * r * r * r + s_ab * r * r + (n - s2) * r + s_ab;
    let fp = |r: f64| -3.0 * n * r * r + 2.0 * s_ab * r + (n - s2);

    // Start from the Pearson correlation of the scores (a consistent
    // estimator) and polish with Newton, falling back to bisection
    // whenever Newton leaves (-1, 1).
    let mut r = pearson(a, b).clamp(-0.99, 0.99);
    for _ in 0..50 {
        let d = fp(r);
        if d.abs() < 1e-12 {
            break;
        }
        let step = f(r) / d;
        let next = r - step;
        if !(-0.999_999..=0.999_999).contains(&next) {
            // Bisection fallback against the sign of f at the boundary.
            let lo = -0.999_999;
            let hi = 0.999_999;
            r = bisect_root(&f, lo, hi).unwrap_or(r);
            break;
        }
        if (next - r).abs() < 1e-14 {
            r = next;
            break;
        }
        r = next;
    }
    r.clamp(-1.0, 1.0)
}

fn bisect_root(f: &dyn Fn(f64) -> f64, mut lo: f64, mut hi: f64) -> Option<f64> {
    let (flo, fhi) = (f(lo), f(hi));
    if flo == 0.0 {
        return Some(lo);
    }
    if fhi == 0.0 {
        return Some(hi);
    }
    if flo.signum() == fhi.signum() {
        return None;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        let fm = f(mid);
        if fm == 0.0 || (hi - lo) < 1e-14 {
            return Some(mid);
        }
        if fm.signum() == flo.signum() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

/// How many blocks to use for subsample-and-aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// The paper's rule: `required_partitions(m, eps2)`; errors when the
    /// dataset is too small to give every block at least
    /// [`MIN_BLOCK_SIZE`] records.
    Auto,
    /// An explicit block count (privacy holds for any `l >= 1`; small `l`
    /// just means proportionally larger noise).
    Fixed(usize),
}

/// Minimum records per block for the rank transform to be meaningful.
pub const MIN_BLOCK_SIZE: usize = 4;

/// The DP correlation-matrix estimator of Algorithm 2: block MLEs fanned
/// out across `workers` threads (one task per block — pure, no
/// randomness), summed in block order so the floating-point reduction is
/// fixed, then released with per-pair Laplace noise from index-keyed
/// streams. `eps2_total` is the budget for all `C(m,2)` coefficients
/// together. Returns the **raw** noisy matrix; clamping and the
/// positive-definite repair are a separate pipeline stage (see
/// [`crate::engine`]).
///
/// Bit-identical at any worker count: block results are keyed by block
/// id, pair `k`'s noise comes from
/// `stream_rng(base_seed, STREAM_MLE_NOISE, k)`.
///
/// Observability: the block fan-out is recorded under
/// `parkit_*{stage="correlation"}` and the release-time noise draws
/// under `noise_draws_total{stage="correlation"}`; pass
/// [`obskit::MetricsSink::off`] to skip all recording.
pub fn dp_mle_matrix_par(
    columns: &[Vec<u32>],
    eps2_total: Epsilon,
    strategy: PartitionStrategy,
    base_seed: u64,
    workers: usize,
    sink: &obskit::MetricsSink,
) -> Result<Matrix, DpCopulaError> {
    let m = columns.len();
    if m == 0 {
        return Err(DpCopulaError::EmptyInput);
    }
    if m == 1 {
        return Ok(Matrix::identity(1));
    }
    let n = columns[0].len();
    let pairs = m * (m - 1) / 2;

    let l = match strategy {
        PartitionStrategy::Auto => required_partitions(m, eps2_total.value()),
        PartitionStrategy::Fixed(l) => l.max(1),
    };
    let block = n / l;
    if block < MIN_BLOCK_SIZE {
        return Err(DpCopulaError::InsufficientDataForMle {
            required_partitions: l,
            records: n,
        });
    }

    // One pure task per block: its per-pair MLE vector.
    let block_ids: Vec<usize> = (0..l).collect();
    let per_block: Vec<Vec<f64>> =
        parkit::par_map_observed(workers, &block_ids, sink, "correlation", |_, &t| {
            let lo = t * block;
            let hi = lo + block; // the remainder tail (< block) is dropped
            let scores: Vec<Vec<f64>> = columns
                .iter()
                .map(|col| {
                    pseudo_copula_column(&col[lo..hi])
                        .iter()
                        .map(|&u| norm_quantile(u))
                        .collect()
                })
                .collect();
            let mut v = Vec::with_capacity(pairs);
            for i in 0..m {
                for j in (i + 1)..m {
                    v.push(pairwise_mle(&scores[i], &scores[j]));
                }
            }
            v
        });

    // Fixed-order reduction: summing blocks 0..l keeps the f64 result
    // independent of which worker computed which block.
    let mut sums = vec![0.0; pairs];
    for v in &per_block {
        for (s, &x) in sums.iter_mut().zip(v) {
            *s += x;
        }
    }

    let noise_scale = (pairs as f64) * COEFFICIENT_DIAMETER / ((l as f64) * eps2_total.value());
    let p = crate::engine::harvest_draws(sink, "correlation", || {
        let mut p = Matrix::identity(m);
        let mut k = 0;
        for i in 0..m {
            for j in (i + 1)..m {
                let mut rng = parkit::stream_rng(base_seed, STREAM_MLE_NOISE, k as u64);
                let noisy = sums[k] / l as f64 + laplace_noise(&mut rng, noise_scale);
                p[(i, j)] = noisy;
                p[(j, i)] = noisy;
                k += 1;
            }
        }
        p
    });
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathkit::cholesky::is_positive_definite;
    use mathkit::correlation::{clamp_to_correlation, equicorrelation, repair_positive_definite};
    use mathkit::dist::MultivariateNormal;
    use rngkit::rngs::StdRng;
    use rngkit::SeedableRng;

    fn correlated_columns(rho: f64, m: usize, n: usize, seed: u64) -> Vec<Vec<u32>> {
        let mvn = MultivariateNormal::new(&equicorrelation(m, rho)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        mvn.sample_columns(&mut rng, n)
            .into_iter()
            .map(|col| {
                col.into_iter()
                    .map(|z| ((z + 5.0).max(0.0) * 100.0).min(999.0) as u32)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn pairwise_mle_recovers_known_correlation() {
        let mvn = MultivariateNormal::new(&equicorrelation(2, 0.6)).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let cols = mvn.sample_columns(&mut rng, 10_000);
        let r = pairwise_mle(&cols[0], &cols[1]);
        assert!((r - 0.6).abs() < 0.03, "mle {r}");
    }

    #[test]
    fn pairwise_mle_handles_extremes() {
        let a: Vec<f64> = (0..100).map(|i| f64::from(i) / 10.0 - 5.0).collect();
        // Perfectly correlated scores.
        let r = pairwise_mle(&a, &a);
        assert!(r > 0.99, "r {r}");
        let neg: Vec<f64> = a.iter().map(|v| -v).collect();
        let r2 = pairwise_mle(&a, &neg);
        assert!(r2 < -0.99, "r2 {r2}");
    }

    #[test]
    fn required_partitions_rule() {
        // m=8, eps2 = 1/9: C(8,2)=28; 28/(0.025/9) = 10080.
        let req = required_partitions(8, 1.0 / 9.0);
        assert!((10_080..=10_082).contains(&req), "req {req}");
    }

    #[test]
    fn required_partitions_saturates_at_tiny_epsilon() {
        // C(4,2)/(0.025·1e-100) overflows usize: no dataset is that big.
        assert_eq!(required_partitions(4, 1e-100), usize::MAX);
        let cols = correlated_columns(0.5, 2, 500, 2);
        let err = dp_mle_matrix_par(
            &cols,
            Epsilon::new(1e-100).unwrap(),
            PartitionStrategy::Auto,
            3,
            1,
            &obskit::MetricsSink::off(),
        )
        .unwrap_err();
        assert!(matches!(err, DpCopulaError::InsufficientDataForMle { .. }));
    }

    #[test]
    fn auto_errors_on_small_data() {
        let cols = correlated_columns(0.5, 4, 500, 2);
        let err = dp_mle_matrix_par(
            &cols,
            Epsilon::new(0.1).unwrap(),
            PartitionStrategy::Auto,
            3,
            1,
            &obskit::MetricsSink::off(),
        )
        .unwrap_err();
        assert!(matches!(err, DpCopulaError::InsufficientDataForMle { .. }));
    }

    #[test]
    fn fixed_partitions_recover_correlation() {
        let cols = correlated_columns(0.7, 3, 30_000, 4);
        let mut p = dp_mle_matrix_par(
            &cols,
            Epsilon::new(5.0).unwrap(),
            PartitionStrategy::Fixed(100),
            5,
            2,
            &obskit::MetricsSink::off(),
        )
        .unwrap();
        // The engine's pd_repair stage.
        clamp_to_correlation(&mut p);
        let p = repair_positive_definite(&p);
        assert!(is_positive_definite(&p));
        for i in 0..3 {
            for j in (i + 1)..3 {
                assert!((p[(i, j)] - 0.7).abs() < 0.15, "p[{i}{j}] = {}", p[(i, j)]);
            }
        }
    }

    #[test]
    fn par_mle_matrix_is_worker_count_invariant() {
        let cols = correlated_columns(0.6, 3, 6_000, 7);
        let eps = Epsilon::new(2.0).unwrap();
        let base = dp_mle_matrix_par(
            &cols,
            eps,
            PartitionStrategy::Fixed(50),
            31,
            1,
            &obskit::MetricsSink::off(),
        )
        .unwrap();
        for workers in [2, 7] {
            let p = dp_mle_matrix_par(
                &cols,
                eps,
                PartitionStrategy::Fixed(50),
                31,
                workers,
                &obskit::MetricsSink::off(),
            )
            .unwrap();
            assert_eq!(p, base, "workers={workers}");
        }
        // The raw release still carries the signal.
        assert!(base[(0, 1)] > 0.3, "p01 {}", base[(0, 1)]);
    }

    #[test]
    fn par_mle_matrix_rejects_degenerate_inputs() {
        let eps = Epsilon::new(1.0).unwrap();
        assert_eq!(
            dp_mle_matrix_par(
                &[],
                eps,
                PartitionStrategy::Auto,
                1,
                1,
                &obskit::MetricsSink::off()
            )
            .unwrap_err(),
            DpCopulaError::EmptyInput
        );
        let tiny = vec![vec![1u32, 2, 3], vec![3u32, 2, 1]];
        assert!(matches!(
            dp_mle_matrix_par(
                &tiny,
                eps,
                PartitionStrategy::Fixed(1),
                1,
                1,
                &obskit::MetricsSink::off()
            )
            .unwrap_err(),
            DpCopulaError::InsufficientDataForMle { .. }
        ));
    }

    #[test]
    fn single_column_is_identity() {
        let p = dp_mle_matrix_par(
            &[vec![1u32, 2, 3, 4]],
            Epsilon::new(1.0).unwrap(),
            PartitionStrategy::Auto,
            6,
            1,
            &obskit::MetricsSink::off(),
        )
        .unwrap();
        assert_eq!(p, Matrix::identity(1));
    }

    #[test]
    fn more_partitions_mean_less_noise() {
        // With everything else fixed, the noise scale is C(m,2)*2/(l*eps).
        let m = 3;
        let pairs = 3.0;
        let eps = 0.5;
        let scale_small_l = pairs * 2.0 / (10.0 * eps);
        let scale_big_l = pairs * 2.0 / (1000.0 * eps);
        assert!(scale_big_l < scale_small_l / 50.0);
        let _ = m;
    }
}
