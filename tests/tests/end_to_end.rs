//! End-to-end integration: the full DPCopula pipeline on every dataset
//! family in the workspace, checked for structural validity and, with a
//! generous budget, for actual utility.

use datagen::census::{brazil_census, us_census};
use datagen::synthetic::{MarginKind, SyntheticSpec};
use dpcopula::hybrid::{HybridConfig, HybridSynthesizer};
use dpcopula::synthesizer::{DpCopulaConfig, MarginMethod};
use dpcopula::SynthesisRequest;
use dpmech::Epsilon;
use queryeval::{ErrorSummary, Workload};
use rngkit::rngs::StdRng;
use rngkit::{RngCore, SeedableRng};

fn assert_valid_release(columns: &[Vec<u32>], domains: &[usize], expect_n: usize, tol: f64) {
    assert_eq!(columns.len(), domains.len());
    let n = columns[0].len();
    assert!(
        (n as f64 - expect_n as f64).abs() <= tol * expect_n as f64 + 50.0,
        "cardinality {n} too far from {expect_n}"
    );
    for (col, &d) in columns.iter().zip(domains) {
        assert_eq!(col.len(), n);
        assert!(col.iter().all(|&v| (v as usize) < d), "domain violation");
    }
}

#[test]
fn synthetic_families_round_trip() {
    for margin in [
        MarginKind::Gaussian,
        MarginKind::Uniform,
        MarginKind::Zipf(1.2),
    ] {
        let data = SyntheticSpec {
            records: 3_000,
            dims: 4,
            domain: 200,
            margin,
            ..Default::default()
        }
        .generate();
        let mut rng = StdRng::seed_from_u64(1);
        let out = SynthesisRequest::from_config(
            data.columns(),
            &data.domains(),
            DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap()),
        )
        .seed(rng.next_u64())
        .run()
        .unwrap()
        .0;
        assert_valid_release(&out.columns, &data.domains(), data.len(), 0.0);
    }
}

#[test]
fn us_census_hybrid_release() {
    let data = us_census(20_000, 3);
    let base = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
    let mut rng = StdRng::seed_from_u64(2);
    let out = HybridSynthesizer::new(HybridConfig::new(base))
        .synthesize(data.columns(), &data.domains(), &mut rng)
        .unwrap();
    // Gender is the only small-domain attribute: 2 partitions.
    assert_eq!(out.partitions, 2);
    assert_eq!(out.small_attributes, vec![3]);
    assert_valid_release(&out.columns, &data.domains(), data.len(), 0.02);
}

#[test]
fn brazil_census_hybrid_release() {
    let data = brazil_census(20_000, 4);
    let base = DpCopulaConfig::kendall(Epsilon::new(2.0).unwrap()).with_margin(MarginMethod::Php);
    let mut rng = StdRng::seed_from_u64(5);
    let out = HybridSynthesizer::new(HybridConfig::new(base))
        .synthesize(data.columns(), &data.domains(), &mut rng)
        .unwrap();
    // Three binary attributes: 8 partitions.
    assert_eq!(out.partitions, 8);
    assert_eq!(out.small_attributes, vec![1, 2, 3]);
    assert_valid_release(&out.columns, &data.domains(), data.len(), 0.02);
}

#[test]
fn generous_budget_gives_low_query_error() {
    let data = SyntheticSpec {
        records: 20_000,
        dims: 3,
        domain: 500,
        margin: MarginKind::Gaussian,
        ..Default::default()
    }
    .generate();
    let mut rng = StdRng::seed_from_u64(6);
    let workload = Workload::random(&data.domains(), 200, &mut rng);
    let truth = workload.true_counts(data.columns());

    let config =
        DpCopulaConfig::kendall(Epsilon::new(10.0).unwrap()).with_margin(MarginMethod::Php);
    let out = SynthesisRequest::from_config(data.columns(), &data.domains(), config)
        .seed(rng.next_u64())
        .run()
        .unwrap()
        .0;
    let answers = workload.estimate_with(|q| q.count(&out.columns));
    let summary = ErrorSummary::from_answers(&answers, &truth, 1.0);
    assert!(
        summary.mean_relative < 0.6,
        "relative error {} too high for eps=10",
        summary.mean_relative
    );
}

#[test]
fn error_grows_as_budget_shrinks() {
    let data = SyntheticSpec {
        records: 10_000,
        dims: 2,
        domain: 300,
        margin: MarginKind::Gaussian,
        ..Default::default()
    }
    .generate();
    let mut rng = StdRng::seed_from_u64(7);
    let workload = Workload::random(&data.domains(), 200, &mut rng);
    let truth = workload.true_counts(data.columns());

    let rel_at = |eps: f64| -> f64 {
        let mut total = 0.0;
        for s in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(70 + s);
            let config =
                DpCopulaConfig::kendall(Epsilon::new(eps).unwrap()).with_margin(MarginMethod::Php);
            let out = SynthesisRequest::from_config(data.columns(), &data.domains(), config)
                .seed(rng.next_u64())
                .run()
                .unwrap()
                .0;
            let answers = workload.estimate_with(|q| q.count(&out.columns));
            total += ErrorSummary::from_answers(&answers, &truth, 1.0).mean_relative;
        }
        total / 3.0
    };
    let tight = rel_at(0.01);
    let loose = rel_at(10.0);
    assert!(
        tight > loose,
        "error at eps=0.01 ({tight}) should exceed error at eps=10 ({loose})"
    );
}
