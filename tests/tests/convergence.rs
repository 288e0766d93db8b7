//! Empirical verification of the convergence theorems (§4.3): as the
//! cardinality grows, the DP synthetic data converges to the original in
//! margins (Lemma 4.1 of §4.3) and dependence (Lemma 4.2 / Theorem 4.3).

use datagen::synthetic::{MarginKind, SyntheticSpec};
use dpcopula::convergence::ConvergenceReport;
use dpcopula::kendall::{dp_kendall_tau, kendall_tau};
use dpcopula::synthesizer::{DpCopulaConfig, MarginMethod};
use dpcopula::SynthesisRequest;
use dpmech::Epsilon;
use rngkit::rngs::StdRng;
use rngkit::{RngCore, SeedableRng};

fn report_at(n: usize) -> ConvergenceReport {
    let data = SyntheticSpec {
        records: n,
        dims: 3,
        domain: 300,
        margin: MarginKind::Gaussian,
        rho: 0.6,
        seed: 99,
    }
    .generate();
    // Average the distances over a few releases.
    let mut ks_acc = [0.0; 3];
    let mut tau_acc = 0.0;
    let runs = 3;
    for s in 0..runs {
        let mut rng = StdRng::seed_from_u64(1000 + s);
        let config =
            DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap()).with_margin(MarginMethod::Php);
        let out = SynthesisRequest::from_config(data.columns(), &data.domains(), config)
            .seed(rng.next_u64())
            .run()
            .unwrap()
            .0;
        let r = ConvergenceReport::compare(data.columns(), &out.columns);
        for (acc, v) in ks_acc.iter_mut().zip(&r.marginal_ks) {
            *acc += v;
        }
        tau_acc += r.max_tau_gap;
    }
    ConvergenceReport {
        marginal_ks: ks_acc.iter().map(|v| v / runs as f64).collect(),
        max_tau_gap: tau_acc / runs as f64,
    }
}

#[test]
fn margins_and_dependence_converge_with_n() {
    let small = report_at(500);
    let large = report_at(20_000);
    assert!(
        large.max_marginal_ks() < small.max_marginal_ks(),
        "marginal KS should shrink: {} -> {}",
        small.max_marginal_ks(),
        large.max_marginal_ks()
    );
    assert!(
        large.max_tau_gap < small.max_tau_gap + 0.02,
        "tau gap should not grow: {} -> {}",
        small.max_tau_gap,
        large.max_tau_gap
    );
    // At 20k records and eps=1, both distances should be genuinely small.
    // The tau bound leaves ~3x headroom over the per-pair noise scale
    // (4/(n_hat+1) / eps_pair ~ 0.04 under Auto sampling) so it holds for
    // any fixed seeding discipline, not just a lucky draw.
    assert!(
        large.max_marginal_ks() < 0.1,
        "KS {}",
        large.max_marginal_ks()
    );
    assert!(large.max_tau_gap < 0.15, "tau gap {}", large.max_tau_gap);
}

#[test]
fn noisy_kendall_converges_to_exact_kendall() {
    // Lemma 4.2: |tau~ - tau| -> 0 as n grows (noise is 4/((n+1) eps)).
    let eps = Epsilon::new(0.5).unwrap();
    let deviation_at = |n: u32| -> f64 {
        let x: Vec<u32> = (0..n).collect();
        let y: Vec<u32> = x.iter().map(|&v| v / 2).collect();
        let exact = kendall_tau(&x, &y);
        let mut rng = StdRng::seed_from_u64(5);
        (0..30)
            .map(|_| (dp_kendall_tau(&x, &y, eps, &mut rng) - exact).abs())
            .sum::<f64>()
            / 30.0
    };
    let small = deviation_at(100);
    let large = deviation_at(10_000);
    assert!(
        large < small / 10.0,
        "noise should shrink ~1/n: n=100 gives {small}, n=10000 gives {large}"
    );
}

#[test]
fn synthetic_tau_tracks_original_tau() {
    // Theorem 4.3's practical content: dependence observable in the
    // synthetic data matches the original's.
    let data = SyntheticSpec {
        records: 15_000,
        dims: 2,
        domain: 500,
        margin: MarginKind::Gaussian,
        rho: 0.8,
        seed: 3,
    }
    .generate();
    let t_orig = kendall_tau(&data.columns()[0], &data.columns()[1]);
    let mut rng = StdRng::seed_from_u64(1);
    let config = DpCopulaConfig::kendall(Epsilon::new(2.0).unwrap());
    let out = SynthesisRequest::from_config(data.columns(), &data.domains(), config)
        .seed(rng.next_u64())
        .run()
        .unwrap()
        .0;
    let t_synth = kendall_tau(&out.columns[0], &out.columns[1]);
    assert!(
        (t_orig - t_synth).abs() < 0.08,
        "original tau {t_orig} vs synthetic {t_synth}"
    );
}
