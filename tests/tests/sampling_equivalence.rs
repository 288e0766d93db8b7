//! Statistical equivalence of the two sampling profiles.
//!
//! The `Fast` profile (ziggurat normals + blocked Cholesky + quantile
//! lookup tables) deliberately draws a *different* random stream than
//! `Reference`, so it can never be compared byte-for-byte. Its contract
//! is **distributional equality**: both profiles sample the same fitted
//! DP model, so at matching sizes their outputs must agree as samples —
//! per-margin goodness of fit against the model's own distribution,
//! two-sample closeness between the profiles, and matching dependence
//! structure. This tier pins that contract for every margin method in
//! the registry, at fixed seeds with in-crate critical values, so a
//! regression in any fast-path kernel (ziggurat tails, table edges,
//! blocked apply ordering) shows up as a statistical rejection.

use datagen::census::us_census;
use dpcopula::empirical::MarginalDistribution;
use dpcopula::kendall::kendall_tau;
use dpcopula::synthesizer::{DpCopulaConfig, MarginMethod};
use dpcopula::{FittedModel, SamplingProfile, SynthesisRequest};
use dpmech::Epsilon;
use mathkit::Matrix;
use statcheck::{
    chi_square_critical, chi_square_statistic, correlation_mean_abs_error, ks_critical,
};

/// Rows served per profile. Large enough that the GoF tests have real
/// power against tail defects, small enough for a debug-mode test run.
const N_SERVE: usize = 30_000;

/// Per-comparison significance. The harness runs ~100 fixed-seed
/// comparisons; at 1e-4 each a correct implementation passes with
/// probability ≈ 99%, and the seeds are pinned so a pass is permanent.
const ALPHA: f64 = 1e-4;

/// Every registered margin method — the whole `MarginRegistry` surface.
const METHODS: [MarginMethod; 8] = [
    MarginMethod::Efpa,
    MarginMethod::EfpaDct,
    MarginMethod::Identity,
    MarginMethod::Privelet,
    MarginMethod::Php,
    MarginMethod::Hierarchical,
    MarginMethod::NoiseFirst,
    MarginMethod::StructureFirst,
];

fn fit(method: MarginMethod) -> FittedModel {
    let data = us_census(4_000, 42);
    let config = DpCopulaConfig::kendall(Epsilon::new(2.0).unwrap()).with_margin(method);
    let (model, _) = SynthesisRequest::from_config(data.columns(), &data.domains(), config)
        .seed(1234)
        .fit()
        .unwrap_or_else(|e| panic!("fit failed for {method:?}: {e}"));
    model
}

/// Pools adjacent bins until each pooled bin has expectation >= 5
/// (Cochran's rule), so the chi-square statistic's asymptotics hold even
/// on the census's long sparse tails (income domain 1020).
fn pool_bins(observed: &[f64], expected: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut obs = Vec::new();
    let mut exp = Vec::new();
    let (mut o_acc, mut e_acc) = (0.0, 0.0);
    for (&o, &e) in observed.iter().zip(expected) {
        o_acc += o;
        e_acc += e;
        if e_acc >= 5.0 {
            obs.push(o_acc);
            exp.push(e_acc);
            o_acc = 0.0;
            e_acc = 0.0;
        }
    }
    if o_acc > 0.0 || e_acc > 0.0 {
        match (obs.last_mut(), exp.last_mut()) {
            (Some(lo), Some(le)) => {
                *lo += o_acc;
                *le += e_acc;
            }
            _ => {
                obs.push(o_acc);
                exp.push(e_acc);
            }
        }
    }
    (obs, exp)
}

/// Chi-square GoF of one served column against the model's own marginal
/// pmf — the distribution both profiles are contractually sampling.
fn assert_margin_gof(label: &str, column: &[u32], margin: &MarginalDistribution) {
    let n = column.len() as f64;
    let domain = margin.domain();
    let mut observed = vec![0.0; domain];
    for &v in column {
        observed[v as usize] += 1.0;
    }
    let expected: Vec<f64> = (0..domain as u32).map(|k| n * margin.pmf(k)).collect();
    let (obs, exp) = pool_bins(&observed, &expected);
    assert!(obs.len() >= 2, "{label}: margin collapsed to one bin");
    let stat = chi_square_statistic(&obs, &exp);
    let critical = chi_square_critical(obs.len() - 1, ALPHA);
    assert!(
        stat < critical,
        "{label}: chi-square {stat:.2} >= critical {critical:.2} (df {})",
        obs.len() - 1
    );
}

/// Two-sample KS between the fast and reference draws of one attribute:
/// the supremum over the (discrete) support of the distance between the
/// two empirical CDFs, both taken right-continuous. (`ks_statistic` is
/// the *continuous* one-sample form — on heavily tied integer data it
/// compares one CDF post-jump against the other pre-jump, inflating the
/// statistic by the largest bin's pmf, so the sup is computed directly
/// here.) Equal sample sizes, so the critical value is the one-sample
/// `c(alpha)/sqrt(n)` scaled by `sqrt(2)`; discreteness only makes the
/// threshold conservative.
fn assert_two_sample_ks(label: &str, fast: &[u32], reference: &[u32], domain: usize) {
    assert_eq!(fast.len(), reference.len());
    let n = fast.len() as f64;
    let mut fast_counts = vec![0u32; domain];
    let mut ref_counts = vec![0u32; domain];
    for &v in fast {
        fast_counts[v as usize] += 1;
    }
    for &v in reference {
        ref_counts[v as usize] += 1;
    }
    let (mut d, mut cum_fast, mut cum_ref) = (0.0f64, 0.0, 0.0);
    for k in 0..domain {
        cum_fast += fast_counts[k] as f64;
        cum_ref += ref_counts[k] as f64;
        d = d.max((cum_fast - cum_ref).abs() / n);
    }
    let critical = ks_critical(fast.len(), ALPHA) * 2f64.sqrt();
    assert!(
        d < critical,
        "{label}: two-sample KS {d:.5} >= critical {critical:.5}"
    );
}

/// Kendall-tau matrix of a served sample — the dependence structure a
/// profile actually realised.
fn tau_matrix(columns: &[Vec<u32>]) -> Matrix {
    let d = columns.len();
    let mut m = Matrix::identity(d);
    for i in 0..d {
        for j in i + 1..d {
            let t = kendall_tau(&columns[i], &columns[j]);
            m[(i, j)] = t;
            m[(j, i)] = t;
        }
    }
    m
}

#[test]
fn fast_profile_is_distributionally_equal_to_reference_for_every_margin_method() {
    for method in METHODS {
        let model = fit(method);
        let reference = model
            .try_sample_range_profiled(SamplingProfile::Reference, 0, N_SERVE, 2)
            .unwrap();
        let fast = model
            .try_sample_range_profiled(SamplingProfile::Fast, 0, N_SERVE, 3)
            .unwrap();

        let margins: Vec<MarginalDistribution> = model
            .artifact()
            .margins
            .iter()
            .map(|h| MarginalDistribution::from_noisy_histogram(h))
            .collect();

        for (j, margin) in margins.iter().enumerate() {
            let label = format!("{method:?} attr {j}");
            // Both profiles must fit the model's marginal distribution…
            assert_margin_gof(&format!("{label} fast"), &fast[j], margin);
            assert_margin_gof(&format!("{label} reference"), &reference[j], margin);
            // …and each other.
            assert_two_sample_ks(&label, &fast[j], &reference[j], margin.domain());
        }

        // Correlation recovery: both profiles realise the same dependence
        // structure (they share the one DP correlation matrix).
        let mae = correlation_mean_abs_error(&tau_matrix(&reference), &tau_matrix(&fast));
        assert!(
            mae < 0.05,
            "{method:?}: kendall-tau MAE between profiles {mae:.4} >= 0.05"
        );
    }
}

#[test]
fn both_profiles_stay_within_attribute_domains() {
    let model = fit(MarginMethod::Efpa);
    let domains = model.domains();
    for profile in [SamplingProfile::Reference, SamplingProfile::Fast] {
        let cols = model
            .try_sample_range_profiled(profile, 0, 5_000, 2)
            .unwrap();
        for (col, &d) in cols.iter().zip(&domains) {
            assert_eq!(col.len(), 5_000);
            assert!(
                col.iter().all(|&v| (v as usize) < d),
                "{profile:?} violated domain {d}"
            );
        }
    }
}
