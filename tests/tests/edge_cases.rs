//! Edge cases and failure injection across the whole stack: degenerate
//! domains, minimal datasets, extreme budgets, constant attributes, and
//! pathological margins must all either work or fail with the documented
//! error — never panic or emit invalid releases.

use dpcopula::empirical::MarginalDistribution;
use dpcopula::error::DpCopulaError;
use dpcopula::hybrid::{HybridConfig, HybridSynthesizer};
use dpcopula::kendall::SamplingStrategy;
use dpcopula::sampler::CopulaSampler;
use dpcopula::synthesizer::{CorrelationMethod, DpCopulaConfig, MarginMethod};
use dpcopula::SynthesisRequest;
use dpmech::Epsilon;
use mathkit::Matrix;
use rngkit::rngs::StdRng;
use rngkit::{RngCore, SeedableRng};

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
    let err = SynthesisRequest::from_config(
        &cols,
        &[2, 2],
        DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap()),
    )
    .seed(rng.next_u64())
    .run()
    .unwrap_err();
    assert!(matches!(
        err,
        DpCopulaError::TooFewRecords { records: 1, .. }
    ));
    // Single attribute with one record is fine (margins only).
    let ok = SynthesisRequest::from_config(
        &[vec![3u32]],
        &[5],
        DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap()),
    )
    .seed(rng.next_u64())
    .run()
    .unwrap()
    .0;
    assert_eq!(ok.columns[0].len(), 1);
}

#[test]
fn two_record_dataset_synthesizes() {
    let cols = vec![vec![0u32, 49], vec![49u32, 0]];
    let mut rng = StdRng::seed_from_u64(1);
    let out = SynthesisRequest::from_config(
        &cols,
        &[50, 50],
        DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap()),
    )
    .seed(rng.next_u64())
    .run()
    .unwrap()
    .0;
    assert_eq!(out.columns[0].len(), 2);
    assert!(out.columns.iter().flatten().all(|&v| v < 50));
}

#[test]
fn constant_attribute_is_handled() {
    // Kendall's tau over a constant column is 0 by the tie convention;
    // the pipeline must not divide by zero anywhere.
    let cols = vec![vec![7u32; 500], (0..500u32).map(|i| i % 90).collect()];
    let mut rng = StdRng::seed_from_u64(2);
    let out = SynthesisRequest::from_config(
        &cols,
        &[100, 90],
        DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap()),
    )
    .seed(rng.next_u64())
    .run()
    .unwrap()
    .0;
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
        let out = SynthesisRequest::from_config(
            &cols,
            &[40, 40],
            DpCopulaConfig::kendall(Epsilon::new(eps).unwrap()),
        )
        .seed(rng.next_u64())
        .run()
        .unwrap()
        .0;
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
fn tiny_per_mechanism_budgets_are_refused_with_a_typed_error() {
    // ε₁/m or ε₂/C(m,2) below the floor overflows a mechanism's
    // arithmetic (EFPA's scores at ε = 1e-150, every Laplace scale at
    // 1e-310, ε₁ = 0 at k = 1e-150): every fit entry point refuses it
    // before it draws.
    use dpcopula::error::MIN_MECHANISM_EPSILON;
    use dpcopula::selection::{synthesize_adaptive, AdaptiveConfig};
    use dpcopula::{distfit, EngineOptions};
    use obskit::MetricsSink;

    let data = datagen::census::us_census(2_000, 3);
    let domains = data.domains();
    let below = |e: &DpCopulaError| matches!(e, DpCopulaError::BudgetBelowFloor { smallest } if *smallest < MIN_MECHANISM_EPSILON);
    for (eps, k) in [(1e-150, 8.0), (1e-310, 8.0), (1.0, 1e-150)] {
        let config = DpCopulaConfig::kendall(Epsilon::new(eps).unwrap()).with_k_ratio(k);
        let err = SynthesisRequest::from_config(data.columns(), &domains, config)
            .fit()
            .unwrap_err();
        assert!(below(&err), "fit eps={eps} k={k}: {err}");

        let mut source = datagen::DatasetSource::new(data.clone());
        let opts = EngineOptions::default();
        let err = distfit::fit_shard(
            &mut source,
            &config,
            0,
            2,
            2_000,
            7,
            &opts,
            &MetricsSink::off(),
        )
        .unwrap_err();
        assert!(below(&err), "fit_shard eps={eps} k={k}: {err}");

        // The vote would draw first: a refusal leaves the generator alone.
        let mut rng = StdRng::seed_from_u64(9);
        let err = synthesize_adaptive(
            &AdaptiveConfig::new(config),
            data.columns(),
            &domains,
            &mut rng,
        )
        .unwrap_err();
        assert!(below(&err), "adaptive eps={eps} k={k}: {err}");
        assert_eq!(rng.next_u64(), StdRng::seed_from_u64(9).next_u64());
    }

    // `.dpcs` files carry their own ε and k into the merge.
    let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
    let shards: Vec<(String, modelstore::ShardArtifact)> = (0..2)
        .map(|i| {
            let part: Vec<Vec<u32>> = data
                .columns()
                .iter()
                .map(|col| col[i * 1_000..(i + 1) * 1_000].to_vec())
                .collect();
            let mut source = datagen::DatasetSource::new(datagen::Dataset::new(
                data.attributes().to_vec(),
                part,
            ));
            let mut artifact = distfit::fit_shard(
                &mut source,
                &config,
                i,
                2,
                2_000,
                7,
                &EngineOptions::default(),
                &MetricsSink::off(),
            )
            .unwrap();
            artifact.config.epsilon = 1e-310;
            (format!("part{i}.dpcs"), artifact)
        })
        .collect();
    let err = distfit::merge_shards(&shards, 1, &MetricsSink::off()).unwrap_err();
    assert!(below(&err), "merge: {err}");
}

#[test]
fn the_budget_floor_fits_every_method_and_refuses_just_below_it() {
    // m = 2 and ε = 4·floor, exact in binary: k = 1 puts each margin
    // exactly on the floor (ε₁/2 = ε/4), k = 3 the pair (ε₂ = ε/4). One
    // ulp less ε puts that mechanism just below it.
    use dpcopula::error::MIN_MECHANISM_EPSILON;
    use dpcopula::mle::PartitionStrategy;

    let data = datagen::census::us_census(500, 5);
    let columns = &data.columns()[..2];
    let domains = &data.domains()[..2];
    let at = 4.0 * MIN_MECHANISM_EPSILON;
    let just_below = f64::from_bits(at.to_bits() - 1);
    let fit = |eps: f64, margin, method, k| {
        SynthesisRequest::new(columns, domains, Epsilon::new(eps).unwrap())
            .margin(margin)
            .estimator(method)
            .k_ratio(k)
            .seed(3)
            .fit()
    };
    let kendall = CorrelationMethod::Kendall(SamplingStrategy::Auto);
    let cases = [
        MarginMethod::Efpa,
        MarginMethod::EfpaDct,
        MarginMethod::Identity,
        MarginMethod::Privelet,
        MarginMethod::Php,
        MarginMethod::Hierarchical,
        MarginMethod::NoiseFirst,
        MarginMethod::StructureFirst,
    ]
    .map(|margin| (margin, kendall, 1.0))
    .into_iter()
    .chain([
        (MarginMethod::Efpa, kendall, 3.0),
        (
            MarginMethod::Efpa,
            CorrelationMethod::Mle(PartitionStrategy::Fixed(10)),
            3.0,
        ),
        (MarginMethod::Efpa, CorrelationMethod::Spearman, 3.0),
    ]);
    for (margin, method, k) in cases {
        let case = format!("{margin:?} {method:?} k={k}");
        let (model, _) = fit(at, margin, method, k).unwrap_or_else(|e| panic!("{case}: {e}"));
        let artifact = model.artifact();
        assert!(artifact.correlation[(0, 1)].is_finite(), "{case}");
        assert!(
            artifact.margins.iter().flatten().all(|c| c.is_finite()),
            "{case}"
        );
        let err = fit(just_below, margin, method, k).unwrap_err();
        assert!(
            matches!(err, DpCopulaError::BudgetBelowFloor { .. }),
            "{case}: {err}"
        );
    }
    // The paper's MLE partition rule asks for more blocks than exist at
    // this budget: a typed refusal, not an overflow.
    let auto = CorrelationMethod::Mle(PartitionStrategy::Auto);
    let err = fit(at, MarginMethod::Efpa, auto, 1.0).unwrap_err();
    assert!(
        matches!(err, DpCopulaError::InsufficientDataForMle { .. }),
        "{err}"
    );
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
    let err = SynthesisRequest::from_config(&cols, &[10, 10], config)
        .seed(rng.next_u64())
        .run()
        .unwrap_err();
    assert!(matches!(err, DpCopulaError::InsufficientDataForMle { .. }));
}

#[test]
fn domain_of_one_is_degenerate_but_valid() {
    // An attribute with a single possible value: margins are trivially
    // exact, correlation is meaningless but must stay in range.
    let cols = vec![vec![0u32; 200], (0..200u32).map(|i| i % 30).collect()];
    let mut rng = StdRng::seed_from_u64(8);
    let out = SynthesisRequest::from_config(
        &cols,
        &[1, 30],
        DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap()),
    )
    .seed(rng.next_u64())
    .run()
    .unwrap()
    .0;
    assert!(out.columns[0].iter().all(|&v| v == 0));
}

#[test]
fn output_records_zero_produces_empty_release() {
    let cols = vec![vec![0u32, 1, 2], vec![2u32, 1, 0]];
    let mut rng = StdRng::seed_from_u64(9);
    let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap()).with_output_records(0);
    let out = SynthesisRequest::from_config(&cols, &[3, 3], config)
        .seed(rng.next_u64())
        .run()
        .unwrap()
        .0;
    assert!(out.columns.iter().all(Vec::is_empty));
}
