//! Edge cases and failure injection across the whole stack: degenerate
//! domains, minimal datasets, extreme budgets, constant attributes, and
//! pathological margins must all either work or fail with the documented
//! error — never panic or emit invalid releases.

use dpcopula::empirical::MarginalDistribution;
use dpcopula::error::DpCopulaError;
use dpcopula::hybrid::{HybridConfig, HybridSynthesizer};
use dpcopula::kendall::SamplingStrategy;
use dpcopula::sampler::CopulaSampler;
use dpcopula::synthesizer::{CorrelationMethod, DpCopula, DpCopulaConfig, MarginMethod};
use dpcopula::SynthesisRequest;
use dpmech::Epsilon;
use mathkit::Matrix;
use rngkit::rngs::StdRng;
use rngkit::SeedableRng;

fn all_margin_methods() -> Vec<MarginMethod> {
    vec![
        MarginMethod::Efpa,
        MarginMethod::EfpaDct,
        MarginMethod::Identity,
        MarginMethod::Privelet,
        MarginMethod::Php,
        MarginMethod::Hierarchical,
        MarginMethod::NoiseFirst,
    ]
}

#[test]
fn single_record_multi_attribute_errors_cleanly() {
    // Pairwise correlation needs two observations; this must be a typed
    // error, not a panic (code-review finding).
    let cols = vec![vec![0u32], vec![1u32]];
    let mut rng = StdRng::seed_from_u64(0);
    let err = DpCopula::new(DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap()))
        .synthesize(&cols, &[2, 2], &mut rng)
        .unwrap_err();
    assert!(matches!(
        err,
        DpCopulaError::TooFewRecords { records: 1, .. }
    ));
    // Single attribute with one record is fine (margins only).
    let ok = DpCopula::new(DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap()))
        .synthesize(&[vec![3u32]], &[5], &mut rng)
        .unwrap();
    assert_eq!(ok.columns[0].len(), 1);
}

#[test]
fn two_record_dataset_synthesizes() {
    let cols = vec![vec![0u32, 49], vec![49u32, 0]];
    let mut rng = StdRng::seed_from_u64(1);
    let out = DpCopula::new(DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap()))
        .synthesize(&cols, &[50, 50], &mut rng)
        .unwrap();
    assert_eq!(out.columns[0].len(), 2);
    assert!(out.columns.iter().flatten().all(|&v| v < 50));
}

#[test]
fn constant_attribute_is_handled() {
    // Kendall's tau over a constant column is 0 by the tie convention;
    // the pipeline must not divide by zero anywhere.
    let cols = vec![vec![7u32; 500], (0..500u32).map(|i| i % 90).collect()];
    let mut rng = StdRng::seed_from_u64(2);
    let out = DpCopula::new(DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap()))
        .synthesize(&cols, &[100, 90], &mut rng)
        .unwrap();
    assert!(out.correlation[(0, 1)].abs() <= 1.0);
    assert!(out.columns[1].iter().all(|&v| v < 90));
}

#[test]
fn extreme_budgets_do_not_break_structure() {
    let cols = vec![
        (0..300u32).map(|i| i % 40).collect::<Vec<_>>(),
        (0..300u32).map(|i| (i * 3) % 40).collect::<Vec<_>>(),
    ];
    for eps in [1e-6, 1e6] {
        let mut rng = StdRng::seed_from_u64(3);
        let out = DpCopula::new(DpCopulaConfig::kendall(Epsilon::new(eps).unwrap()))
            .synthesize(&cols, &[40, 40], &mut rng)
            .unwrap();
        assert_eq!(out.columns[0].len(), 300, "eps={eps}");
        assert!(out.columns.iter().flatten().all(|&v| v < 40));
        assert!(mathkit::cholesky::is_positive_definite(&out.correlation));
    }
}

#[test]
fn tiny_epsilon_kendall_fit_takes_every_record() {
    // Below ε ≈ 3e-16, 50·m(m−1)/ε₂ overflows usize: the Auto τ target
    // saturates to every record (no shuffle), so Auto releases the
    // `Full` matrix instead of scoring an empty sample.
    let data = datagen::census::us_census(2_000, 3);
    let domains = data.domains();
    for eps in [1e-20, 1e-60, 1e-100] {
        let tau_bits = |strategy| {
            let (model, _) =
                SynthesisRequest::new(data.columns(), &domains, Epsilon::new(eps).unwrap())
                    .estimator(CorrelationMethod::Kendall(strategy))
                    .seed(5)
                    .fit()
                    .unwrap_or_else(|e| panic!("eps={eps}: {e}"));
            let correlation = &model.artifact().correlation;
            correlation
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            tau_bits(SamplingStrategy::Auto),
            tau_bits(SamplingStrategy::Full),
            "eps={eps}"
        );
    }
}

#[test]
fn every_margin_method_survives_pathological_histograms() {
    let mut rng = StdRng::seed_from_u64(4);
    let eps = Epsilon::new(0.5).unwrap();
    let cases: Vec<Vec<f64>> = vec![
        vec![0.0; 17],                                       // all-empty bins
        vec![1e9, 0.0, 0.0, 0.0],                            // one giant spike
        vec![5.0],                                           // single bin
        (0..1020).map(|i| f64::from(i % 2) * 3.0).collect(), // oscillating
    ];
    for counts in &cases {
        for method in all_margin_methods() {
            let out = method.publish(counts, eps, &mut rng);
            assert_eq!(
                out.len(),
                counts.len(),
                "{method:?} on {} bins",
                counts.len()
            );
            assert!(
                out.iter().all(|v| v.is_finite()),
                "{method:?} produced non-finite output"
            );
        }
    }
}

#[test]
fn marginal_distribution_handles_all_zero_and_spikes() {
    // All-noise-negative margins fall back to uniform; spikes dominate.
    let m = MarginalDistribution::from_noisy_histogram(&[-3.0, -1.0, -9.0]);
    let mut rng = StdRng::seed_from_u64(5);
    let s = CopulaSampler::new(&Matrix::identity(1), vec![m]).unwrap();
    let cols = s.sample_columns(3_000, &mut rng);
    // Uniform fallback: all three values appear.
    for v in 0..3u32 {
        assert!(cols[0].contains(&v), "value {v} missing");
    }
}

#[test]
fn hybrid_with_empty_partitions_emits_only_noise_counts() {
    // One binary attribute where value 1 never occurs: its partition is
    // empty, gets a pure-noise count, and must still produce valid rows
    // (or be skipped when the noisy count rounds to zero).
    let n = 1_000;
    let cols = vec![
        vec![0u32; n],
        (0..n as u32).map(|i| i % 64).collect::<Vec<_>>(),
    ];
    let mut rng = StdRng::seed_from_u64(6);
    let base = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
    let out = HybridSynthesizer::new(HybridConfig::new(base))
        .synthesize(&cols, &[2, 64], &mut rng)
        .unwrap();
    assert_eq!(out.partitions, 2);
    // Any rows with the never-seen value must still be in-domain.
    assert!(out.columns[1].iter().all(|&v| v < 64));
    let phantom = out.columns[0].iter().filter(|&&g| g == 1).count();
    assert!(phantom < 50, "phantom partition emitted {phantom} rows");
}

#[test]
fn mle_error_is_reported_not_panicked() {
    // Too little data for the Auto partition rule must surface the typed
    // error through the full pipeline.
    let cols = vec![vec![1u32, 2, 3, 4], vec![4u32, 3, 2, 1]];
    let mut rng = StdRng::seed_from_u64(7);
    let config = DpCopulaConfig::mle(Epsilon::new(0.1).unwrap());
    let err = DpCopula::new(config)
        .synthesize(&cols, &[10, 10], &mut rng)
        .unwrap_err();
    assert!(matches!(err, DpCopulaError::InsufficientDataForMle { .. }));
}

#[test]
fn domain_of_one_is_degenerate_but_valid() {
    // An attribute with a single possible value: margins are trivially
    // exact, correlation is meaningless but must stay in range.
    let cols = vec![vec![0u32; 200], (0..200u32).map(|i| i % 30).collect()];
    let mut rng = StdRng::seed_from_u64(8);
    let out = DpCopula::new(DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap()))
        .synthesize(&cols, &[1, 30], &mut rng)
        .unwrap();
    assert!(out.columns[0].iter().all(|&v| v == 0));
}

#[test]
fn output_records_zero_produces_empty_release() {
    let cols = vec![vec![0u32, 1, 2], vec![2u32, 1, 0]];
    let mut rng = StdRng::seed_from_u64(9);
    let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap()).with_output_records(0);
    let out = DpCopula::new(config)
        .synthesize(&cols, &[3, 3], &mut rng)
        .unwrap();
    assert!(out.columns.iter().all(Vec::is_empty));
}
