//! Spearman's rank correlation under differential privacy — the
//! alternative the paper *rejects* in §3.2 ("we choose to use Kendall's
//! tau instead of other correlation metrics such as Pearson or Spearman
//! ... \[Kendall\] has better statistical properties than Spearman").
//! Implemented so that the choice can be tested rather than taken on
//! faith: the `ablation_rank_correlation` experiment compares
//! DPCopula-Kendall against a DPCopula-Spearman variant built from this
//! module.
//!
//! For elliptical copulas the analogue of `rho = sin(pi/2 tau)` is
//! `rho = 2 sin(pi/6 rho_s)` (Pearson's 1907 relation for the Gaussian).
//!
//! ## Sensitivity
//!
//! `rho_s = 1 - 6 * sum d_i^2 / (n^3 - n)` with `d_i` the rank
//! differences. Adding one record (a) appends a new `d` of magnitude at
//! most `n`, and (b) shifts every existing rank by at most 1, changing
//! each `d_i` by at most 2 and therefore `sum d_i^2` by at most
//! `sum ((|d_i|+2)^2 - d_i^2) = 4 sum |d_i| + 4n <= 4 n^2 / sqrt(...)`.
//! Using `sum |d_i| <= n^2/2` (loose), the total change of
//! `6 sum d^2 / (n^3-n)` is at most `6 (n^2 + 2n^2 + 4n) / (n^3 - n)`
//! plus the denominator shift, bounded overall by `30/(n-1)` for
//! `n >= 3`. We release with `Delta = 30/(n-1)` — about 7.5x Kendall's
//! `4/(n+1)`, which is exactly why the paper prefers Kendall. The bound
//! is verified empirically by a property test.
//!
//! [`dp_spearman_matrix_par`] is the one release: the fit's correlation
//! stage calls it under `CorrelationMethod::Spearman`.

use crate::engine::STREAM_SPEARMAN_NOISE;
use crate::error::DpCopulaError;
use dpmech::{laplace_noise, Epsilon};
use mathkit::stats::ranks;
use mathkit::Matrix;

/// Sample Spearman rank correlation (mid-ranks for ties).
///
/// # Panics
/// Panics when the slices differ in length or have fewer than 2 elements.
pub fn spearman_rho(x: &[u32], y: &[u32]) -> f64 {
    assert_eq!(x.len(), y.len(), "spearman_rho length mismatch");
    let n = x.len();
    assert!(n >= 2, "spearman_rho needs at least 2 observations");
    let xf: Vec<f64> = x.iter().map(|&v| f64::from(v)).collect();
    let yf: Vec<f64> = y.iter().map(|&v| f64::from(v)).collect();
    let rx = ranks(&xf);
    let ry = ranks(&yf);
    // Pearson correlation of the ranks (correct under ties, reduces to
    // the 1 - 6 sum d^2 / (n^3 - n) formula without ties).
    mathkit::stats::pearson(&rx, &ry)
}

/// The conservative L1 sensitivity bound used for the DP release,
/// `Delta = 30 / (n - 1)` (see the module docs).
pub fn spearman_sensitivity(n: usize) -> f64 {
    assert!(n >= 2, "need at least 2 observations");
    30.0 / (n as f64 - 1.0)
}

/// The Spearman analogue of Algorithm 5: noisy pairwise `rho_s` at
/// `eps2_total / C(m,2)` each, mapped through `2 sin(pi/6 rho_s)`.
/// Per-column rank vectors are computed once (one pure task per
/// attribute), then the `C(m,2)` coefficients fan out across `workers`
/// threads with per-pair noise streams. Returns the **raw** matrix;
/// clamping and the positive-definite repair are a separate pipeline
/// stage (see [`crate::engine`]).
///
/// Bit-identical at any worker count: pair `k`'s noise comes from
/// `stream_rng(base_seed, STREAM_SPEARMAN_NOISE, k)`.
///
/// Observability: fan-outs are recorded under
/// `parkit_*{stage="correlation"}` and per-pair noise draws under
/// `noise_draws_total{stage="correlation"}`; pass
/// [`obskit::MetricsSink::off`] to skip all recording.
pub fn dp_spearman_matrix_par(
    columns: &[Vec<u32>],
    eps2_total: Epsilon,
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
    if n < 2 {
        return Err(DpCopulaError::TooFewRecords {
            records: n,
            required: 2,
        });
    }
    let pairs = m * (m - 1) / 2;
    let eps_pair = eps2_total.divide(pairs);

    // Rank each column once — `spearman_rho` would redo this per pair.
    let rank_cols: Vec<Vec<f64>> =
        parkit::par_map_observed(workers, columns, sink, "correlation", |_, col| {
            let f: Vec<f64> = col.iter().map(|&v| f64::from(v)).collect();
            ranks(&f)
        });

    let pair_ids: Vec<(usize, usize)> = (0..m)
        .flat_map(|i| ((i + 1)..m).map(move |j| (i, j)))
        .collect();
    let coeffs = parkit::par_map_observed(workers, &pair_ids, sink, "correlation", |k, &(i, j)| {
        crate::engine::harvest_draws(sink, "correlation", || {
            let rho_s = mathkit::stats::pearson(&rank_cols[i], &rank_cols[j]);
            let mut rng = parkit::stream_rng(base_seed, STREAM_SPEARMAN_NOISE, k as u64);
            let noisy = rho_s + laplace_noise(&mut rng, spearman_sensitivity(n) / eps_pair.value());
            2.0 * (std::f64::consts::PI / 6.0 * noisy.clamp(-1.0, 1.0)).sin()
        })
    });

    let mut p = Matrix::identity(m);
    for (&(i, j), &r) in pair_ids.iter().zip(&coeffs) {
        p[(i, j)] = r;
        p[(j, i)] = r;
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kendall::kendall_sensitivity;
    use mathkit::cholesky::is_positive_definite;
    use mathkit::correlation::{clamp_to_correlation, repair_positive_definite};
    use rngkit::rngs::StdRng;
    use rngkit::SeedableRng;

    #[test]
    fn perfect_monotone_relations() {
        let x: Vec<u32> = (0..50).collect();
        assert!((spearman_rho(&x, &x) - 1.0).abs() < 1e-12);
        let rev: Vec<u32> = x.iter().rev().cloned().collect();
        assert!((spearman_rho(&x, &rev) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn matches_classic_formula_without_ties() {
        // Classic example: d = rank differences.
        let x = vec![1u32, 2, 3, 4, 5];
        let y = vec![2u32, 1, 4, 3, 5];
        // d = (-1, 1, -1, 1, 0); sum d^2 = 4; rho = 1 - 24/120 = 0.8.
        assert!((spearman_rho(&x, &y) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn constant_column_gives_zero() {
        let x = vec![3u32; 10];
        let y: Vec<u32> = (0..10).collect();
        assert_eq!(spearman_rho(&x, &y), 0.0);
    }

    #[test]
    fn sensitivity_is_larger_than_kendalls() {
        // The quantitative core of the paper's §3.2 choice.
        for n in [10usize, 100, 10_000] {
            assert!(spearman_sensitivity(n) > 5.0 * kendall_sensitivity(n));
        }
    }

    #[test]
    fn empirical_sensitivity_respects_bound() {
        // Add one record to random datasets and check |delta rho_s| stays
        // under the 30/(n-1) bound.
        let mut rng = StdRng::seed_from_u64(1);
        use rngkit::Rng as _;
        for _ in 0..200 {
            let n = rng.gen_range(3..60);
            let x: Vec<u32> = (0..n).map(|_| rng.gen_range(0..20)).collect();
            let y: Vec<u32> = (0..n).map(|_| rng.gen_range(0..20)).collect();
            let base = spearman_rho(&x, &y);
            let mut x2 = x.clone();
            let mut y2 = y.clone();
            x2.push(rng.gen_range(0..20));
            y2.push(rng.gen_range(0..20));
            let grown = spearman_rho(&x2, &y2);
            assert!(
                (base - grown).abs() <= spearman_sensitivity(n),
                "delta {} exceeds bound {} at n={n}",
                (base - grown).abs(),
                spearman_sensitivity(n)
            );
        }
    }

    #[test]
    fn dp_release_concentrates_for_large_n() {
        let n = 20_000u32;
        let x: Vec<u32> = (0..n).collect();
        let y: Vec<u32> = x.iter().map(|&v| v / 3).collect();
        let exact = 2.0 * (std::f64::consts::PI / 6.0 * spearman_rho(&x, &y)).sin();
        let cols = [x, y];
        let eps = Epsilon::new(1.0).unwrap();
        let avg: f64 = (0..30)
            .map(|seed| {
                dp_spearman_matrix_par(&cols, eps, seed, 1, &obskit::MetricsSink::off()).unwrap()
                    [(0, 1)]
            })
            .sum::<f64>()
            / 30.0;
        assert!((avg - exact).abs() < 0.01, "avg {avg} vs exact {exact}");
    }

    #[test]
    fn spearman_matrix_is_valid_correlation() {
        let mut rng = StdRng::seed_from_u64(3);
        use rngkit::Rng as _;
        let base: Vec<u32> = (0..5_000).map(|_| rng.gen_range(0..500)).collect();
        let cols: Vec<Vec<u32>> = (0..3)
            .map(|j| {
                base.iter()
                    .map(|&v| (v + rng.gen_range(0u32..80) + j) % 500)
                    .collect()
            })
            .collect();
        let mut p = dp_spearman_matrix_par(
            &cols,
            Epsilon::new(1.0).unwrap(),
            3,
            2,
            &obskit::MetricsSink::off(),
        )
        .unwrap();
        // The engine's pd_repair stage.
        clamp_to_correlation(&mut p);
        let p = repair_positive_definite(&p);
        assert!(is_positive_definite(&p));
        assert!(mathkit::correlation::is_correlation_shaped(&p, 1e-9));
        assert!(p[(0, 1)] > 0.3, "p01 {}", p[(0, 1)]);
    }

    #[test]
    fn par_spearman_matrix_is_worker_count_invariant() {
        let mut rng = StdRng::seed_from_u64(17);
        use rngkit::Rng as _;
        let base: Vec<u32> = (0..3_000).map(|_| rng.gen_range(0..200)).collect();
        let cols: Vec<Vec<u32>> = (0..4)
            .map(|j| {
                base.iter()
                    .map(|&v| (v + rng.gen_range(0u32..40) + j) % 200)
                    .collect()
            })
            .collect();
        let eps = Epsilon::new(1.0).unwrap();
        let one = dp_spearman_matrix_par(&cols, eps, 23, 1, &obskit::MetricsSink::off()).unwrap();
        for workers in [2, 7] {
            let p = dp_spearman_matrix_par(&cols, eps, 23, workers, &obskit::MetricsSink::off())
                .unwrap();
            assert_eq!(p, one, "workers={workers}");
        }
        assert!(one[(0, 1)] > 0.2, "p01 {}", one[(0, 1)]);
    }

    #[test]
    fn par_spearman_matrix_rejects_degenerate_inputs() {
        let eps = Epsilon::new(1.0).unwrap();
        assert_eq!(
            dp_spearman_matrix_par(&[], eps, 1, 1, &obskit::MetricsSink::off()).unwrap_err(),
            DpCopulaError::EmptyInput
        );
        assert!(matches!(
            dp_spearman_matrix_par(
                &[vec![1u32], vec![2u32]],
                eps,
                1,
                1,
                &obskit::MetricsSink::off()
            )
            .unwrap_err(),
            DpCopulaError::TooFewRecords { .. }
        ));
        assert_eq!(
            dp_spearman_matrix_par(&[vec![1u32, 2]], eps, 1, 1, &obskit::MetricsSink::off())
                .unwrap(),
            Matrix::identity(1)
        );
    }

    #[test]
    fn gaussian_mapping_agrees_with_kendall_mapping() {
        // On clean Gaussian-copula data both mappings should estimate the
        // same rho.
        use mathkit::correlation::equicorrelation;
        use mathkit::dist::MultivariateNormal;
        let rho = 0.65;
        let mvn = MultivariateNormal::new(&equicorrelation(2, rho)).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let cols: Vec<Vec<u32>> = mvn
            .sample_columns(&mut rng, 20_000)
            .into_iter()
            .map(|c| {
                c.into_iter()
                    .map(|z| ((mathkit::special::norm_cdf(z) * 1000.0) as u32).min(999))
                    .collect()
            })
            .collect();
        let rho_s = spearman_rho(&cols[0], &cols[1]);
        let from_spearman = 2.0 * (std::f64::consts::PI / 6.0 * rho_s).sin();
        let tau = crate::kendall::kendall_tau(&cols[0], &cols[1]);
        let from_kendall = (std::f64::consts::FRAC_PI_2 * tau).sin();
        assert!(
            (from_spearman - rho).abs() < 0.02,
            "spearman-> {from_spearman}"
        );
        assert!(
            (from_kendall - rho).abs() < 0.02,
            "kendall-> {from_kendall}"
        );
    }
}
