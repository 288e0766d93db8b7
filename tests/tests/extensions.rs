//! Integration tests for the future-work extensions: t copula, AIC
//! family selection, and the empirical-copula diagnostic — exercised
//! together across crates.

use dpcopula::empirical::MarginalDistribution;
use dpcopula::empirical_copula::EmpiricalCopula;
use dpcopula::selection::{synthesize_adaptive, AdaptiveConfig, CopulaFamily};
use dpcopula::synthesizer::{DpCopulaConfig, MarginMethod};
use dpcopula::tcopula::TCopulaSampler;
use dpmech::Epsilon;
use mathkit::correlation::equicorrelation;
use rngkit::rngs::StdRng;
use rngkit::SeedableRng;

fn uniform_margin(domain: usize) -> MarginalDistribution {
    MarginalDistribution::from_noisy_histogram(&vec![1.0; domain])
}

#[test]
fn adaptive_synthesizer_preserves_empirical_copula() {
    // Generate from a t copula, synthesize adaptively, and verify the
    // empirical-copula distance between original and release is small —
    // the cross-module sanity check tying selection + sampling together.
    let p = equicorrelation(2, 0.6);
    let gen = TCopulaSampler::new(&p, 4.0, vec![uniform_margin(300), uniform_margin(300)]).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let data = gen.sample_columns(10_000, &mut rng);

    let config = AdaptiveConfig::new(
        DpCopulaConfig::kendall(Epsilon::new(4.0).unwrap()).with_margin(MarginMethod::Php),
    );
    let out = synthesize_adaptive(&config, &data, &[300, 300], &mut rng).unwrap();

    let c_orig = EmpiricalCopula::from_columns(&data);
    let c_synth = EmpiricalCopula::from_columns(&out.synthesis.columns);
    let d = c_orig.sup_distance(&c_synth, 6);
    assert!(d < 0.08, "empirical copula distance {d}");
}

#[test]
fn family_selection_is_part_of_the_budget() {
    let p = equicorrelation(2, 0.5);
    let gen = TCopulaSampler::new(&p, 5.0, vec![uniform_margin(100), uniform_margin(100)]).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let data = gen.sample_columns(5_000, &mut rng);

    let total = 2.0;
    let mut config = AdaptiveConfig::new(DpCopulaConfig::kendall(Epsilon::new(total).unwrap()));
    config.selection_fraction = 0.25;
    let out = synthesize_adaptive(&config, &data, &[100, 100], &mut rng).unwrap();
    let downstream = out.synthesis.epsilon_margins + out.synthesis.epsilon_correlations;
    assert!(
        (downstream - total * 0.75).abs() < 1e-9,
        "downstream budget {downstream}"
    );
}

#[test]
fn gaussian_data_keeps_gaussian_family_end_to_end() {
    let p = equicorrelation(2, 0.5);
    let gen =
        dpcopula::sampler::CopulaSampler::new(&p, vec![uniform_margin(200), uniform_margin(200)])
            .unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let data = gen.sample_columns(12_000, &mut rng);
    let mut config = AdaptiveConfig::new(DpCopulaConfig::kendall(Epsilon::new(8.0).unwrap()));
    // Only two sharply separated candidates to keep selection noise low.
    config.candidates = vec![CopulaFamily::Gaussian, CopulaFamily::StudentT { df: 2.5 }];
    let out = synthesize_adaptive(&config, &data, &[200, 200], &mut rng).unwrap();
    assert_eq!(
        out.family,
        CopulaFamily::Gaussian,
        "scores {:?}",
        out.scores
    );
}
