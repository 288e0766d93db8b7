//! Integration tests for the future-work extensions: t copula, AIC
//! family selection, and the empirical-copula diagnostic — exercised
//! together across crates.

use dpcopula::empirical::MarginalDistribution;
use dpcopula::empirical_copula::EmpiricalCopula;
use dpcopula::synthesizer::{DpCopulaConfig, MarginMethod};
use dpcopula::tcopula::TCopulaSampler;
use dpcopula::SynthesisRequest;
use dpmech::Epsilon;
use mathkit::correlation::equicorrelation;
use modelstore::CopulaFamily;
use rngkit::rngs::StdRng;
use rngkit::{RngCore, SeedableRng};

fn uniform_margin(domain: usize) -> MarginalDistribution {
    MarginalDistribution::from_noisy_histogram(&vec![1.0; domain])
}

#[test]
fn adaptive_synthesizer_preserves_empirical_copula() {
    // Generate from a t copula, synthesize with family selection, and
    // verify the empirical-copula distance between original and release
    // is small — the cross-module sanity check tying selection +
    // sampling together.
    let p = equicorrelation(2, 0.6);
    let gen = TCopulaSampler::new(&p, 4.0, vec![uniform_margin(300), uniform_margin(300)]).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let data = gen.sample_columns(10_000, &mut rng);

    let config = DpCopulaConfig::kendall(Epsilon::new(4.0).unwrap()).with_margin(MarginMethod::Php);
    let (out, _) = SynthesisRequest::from_config(&data, &[300, 300], config)
        .select_family()
        .seed(rng.next_u64())
        .run()
        .unwrap();

    let c_orig = EmpiricalCopula::from_columns(&data);
    let c_synth = EmpiricalCopula::from_columns(&out.columns);
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
    let request = SynthesisRequest::new(&data, &[100, 100], Epsilon::new(total).unwrap())
        .select_family()
        .seed(rng.next_u64());
    let (out, _) = request.run().unwrap();
    let downstream = out.epsilon_margins + out.epsilon_correlations;
    assert!(
        (downstream - total * 0.9).abs() < 1e-9,
        "downstream budget {downstream}"
    );
    // The vote is the ledger's first entry, and the three sum to ε.
    let (model, _) = request.fit().unwrap();
    let ledger = &model.artifact().ledger;
    assert_eq!(ledger.entries[0].label, "selection");
    assert!((ledger.entries[0].epsilon - total * 0.1).abs() < 1e-12);
    assert!((ledger.spent() - total).abs() < 1e-9);
}

#[test]
fn gaussian_data_keeps_gaussian_family_end_to_end() {
    let p = equicorrelation(2, 0.5);
    let gen =
        dpcopula::sampler::CopulaSampler::new(&p, vec![uniform_margin(200), uniform_margin(200)])
            .unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let data = gen.sample_columns(12_000, &mut rng);
    let (model, _) = SynthesisRequest::new(&data, &[200, 200], Epsilon::new(8.0).unwrap())
        .select_family()
        .seed(rng.next_u64())
        .fit()
        .unwrap();
    assert_eq!(model.artifact().family, CopulaFamily::Gaussian);
}
