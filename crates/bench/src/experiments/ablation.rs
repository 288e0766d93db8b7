//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! * **margins** — which 1-D DP histogram algorithm should publish the
//!   marginal histograms (the paper picks EFPA; our harness picks P-HP —
//!   this table is the evidence);
//! * **sampling** — Kendall's tau on all records vs the paper's
//!   `n_hat > 50 m (m-1)/eps2` record sample (accuracy cost of the
//!   speed-up);
//! * **pd-repair** — how often the noisy `sin(pi/2 tau)` matrix needs the
//!   eigenvalue repair, as a function of epsilon (the paper claims it is
//!   rare for `eps2 >= 0.001`).

use crate::params::ExperimentParams;
use crate::report::{fmt, Table};
use datagen::census::us_census;
use datagen::synthetic::{MarginKind, SyntheticSpec};
use dpcopula::hybrid::{HybridConfig, HybridSynthesizer};
use dpcopula::kendall::SamplingStrategy;
use dpcopula::synthesizer::{CorrelationMethod, DpCopulaConfig, MarginMethod};
use dpcopula::SynthesisRequest;
use dpmech::Epsilon;
use mathkit::cholesky::is_positive_definite;
use mathkit::correlation::clamp_to_correlation;
use mathkit::Matrix;
use queryeval::{ErrorSummary, Workload};
use rngkit::rngs::StdRng;
use rngkit::{RngCore, SeedableRng};

/// Margin-method ablation on the simulated US census.
pub fn run_ablation_margins(params: &ExperimentParams) -> Vec<Table> {
    let n = 100_000;
    let data = us_census(n, 0x05);
    let sanity = 0.0005 * n as f64;
    let mut rng = StdRng::seed_from_u64(0xab1a);
    let workload = Workload::random(&data.domains(), params.queries.min(500), &mut rng);
    let truth = workload.true_counts(data.columns());
    let runs = params.runs.min(3);

    let mut t = Table::new(
        "ablation_margins",
        &[
            "epsilon",
            "EFPA",
            "EFPA-DCT",
            "Identity",
            "Privelet",
            "P-HP",
            "Hierarchical",
            "NoiseFirst",
        ],
    );
    for eps in [0.1, 0.5, 1.0] {
        let mut row = vec![eps.to_string()];
        for margin in [
            MarginMethod::Efpa,
            MarginMethod::EfpaDct,
            MarginMethod::Identity,
            MarginMethod::Privelet,
            MarginMethod::Php,
            MarginMethod::Hierarchical,
            MarginMethod::NoiseFirst,
        ] {
            let mut rel = 0.0;
            for s in 0..runs as u64 {
                let mut rng = StdRng::seed_from_u64(0xab00 + s);
                let base = DpCopulaConfig::kendall(Epsilon::new(eps).unwrap())
                    .with_k_ratio(params.k_ratio)
                    .with_margin(margin);
                let out = HybridSynthesizer::new(HybridConfig::new(base))
                    .synthesize(data.columns(), &data.domains(), &mut rng)
                    .expect("synthesis failed");
                let answers = workload.estimate_with(|q| q.count(&out.columns));
                rel += ErrorSummary::from_answers(&answers, &truth, sanity).mean_relative;
            }
            let rel = rel / runs as f64;
            println!("ablation_margins: eps={eps} {margin:?} -> {rel:.4}");
            row.push(fmt(rel));
        }
        t.push_row(row);
    }
    vec![t]
}

/// Record-sampling ablation: full Kendall vs the paper's sampled variant.
pub fn run_ablation_sampling(params: &ExperimentParams) -> Vec<Table> {
    let data = SyntheticSpec {
        records: params.records,
        dims: 4,
        domain: params.domain,
        margin: MarginKind::Gaussian,
        ..Default::default()
    }
    .generate();
    let mut rng = StdRng::seed_from_u64(0xab2a);
    let workload = Workload::random(&data.domains(), params.queries.min(500), &mut rng);
    let truth = workload.true_counts(data.columns());
    let runs = params.runs.min(3);

    let mut t = Table::new(
        "ablation_sampling",
        &[
            "epsilon",
            "full_rel_err",
            "sampled_rel_err",
            "full_s",
            "sampled_s",
        ],
    );
    for eps in [0.1, 1.0] {
        let mut cells = vec![eps.to_string()];
        let mut times = Vec::new();
        for strategy in [SamplingStrategy::Full, SamplingStrategy::Auto] {
            let mut rel = 0.0;
            let t0 = obskit::Stopwatch::start();
            for s in 0..runs as u64 {
                let mut rng = StdRng::seed_from_u64(0xab20 + s);
                let mut base = DpCopulaConfig::kendall(Epsilon::new(eps).unwrap())
                    .with_k_ratio(params.k_ratio)
                    .with_margin(MarginMethod::Php);
                base.method = CorrelationMethod::Kendall(strategy);
                let (out, _) = SynthesisRequest::from_config(data.columns(), &data.domains(), base)
                    .seed(rng.next_u64())
                    .run()
                    .expect("synthesis failed");
                let answers = workload.estimate_with(|q| q.count(&out.columns));
                rel +=
                    ErrorSummary::from_answers(&answers, &truth, sanity_of(params)).mean_relative;
            }
            let dt = t0.elapsed().as_secs_f64() / runs as f64;
            let rel = rel / runs as f64;
            println!("ablation_sampling: eps={eps} {strategy:?} -> {rel:.4} in {dt:.2}s");
            cells.push(fmt(rel));
            times.push(fmt(dt));
        }
        cells.extend(times);
        t.push_row(cells);
    }
    vec![t]
}

fn sanity_of(params: &ExperimentParams) -> f64 {
    params.sanity
}

/// Kendall vs Spearman rank correlation inside DPCopula — quantifying the
/// paper's §3.2 preference (Kendall's sensitivity is `4/(n+1)` against
/// Spearman's `30/(n-1)` bound).
pub fn run_ablation_rank_correlation(params: &ExperimentParams) -> Vec<Table> {
    let data = SyntheticSpec {
        records: params.records,
        dims: 4,
        domain: params.domain,
        margin: MarginKind::Gaussian,
        ..Default::default()
    }
    .generate();
    let mut rng = StdRng::seed_from_u64(0xab4a);
    let workload = Workload::random(&data.domains(), params.queries.min(500), &mut rng);
    let truth = workload.true_counts(data.columns());
    let runs = params.runs.min(3);

    let mut t = Table::new(
        "ablation_rank_correlation",
        &["epsilon", "kendall_rel_err", "spearman_rel_err"],
    );
    for eps in [0.1, 0.5, 1.0] {
        let mut row = vec![eps.to_string()];
        for method in [
            CorrelationMethod::Kendall(SamplingStrategy::Full),
            CorrelationMethod::Spearman,
        ] {
            let mut rel = 0.0;
            for s in 0..runs as u64 {
                let mut rng = StdRng::seed_from_u64(0xab40 + s);
                let mut base = DpCopulaConfig::kendall(Epsilon::new(eps).unwrap())
                    .with_k_ratio(params.k_ratio)
                    .with_margin(MarginMethod::Php);
                base.method = method;
                let (out, _) = SynthesisRequest::from_config(data.columns(), &data.domains(), base)
                    .seed(rng.next_u64())
                    .run()
                    .expect("synthesis failed");
                let answers = workload.estimate_with(|q| q.count(&out.columns));
                rel += ErrorSummary::from_answers(&answers, &truth, params.sanity).mean_relative;
            }
            let rel = rel / runs as f64;
            println!("ablation_rank_correlation: eps={eps} {method:?} -> {rel:.4}");
            row.push(fmt(rel));
        }
        t.push_row(row);
    }
    vec![t]
}

/// PD-repair frequency: how often the raw noisy correlation matrix is
/// indefinite, by epsilon and dimensionality.
pub fn run_ablation_pd_repair(_params: &ExperimentParams) -> Vec<Table> {
    let mut t = Table::new("ablation_pd_repair", &["m", "eps2", "indefinite_fraction"]);
    let mut rng = StdRng::seed_from_u64(0xab3a);
    for m in [4usize, 8] {
        let data = SyntheticSpec {
            records: 10_000,
            dims: m,
            domain: 100,
            margin: MarginKind::Gaussian,
            ..Default::default()
        }
        .generate();
        for eps2 in [0.001, 0.01, 0.1] {
            let trials = 40;
            let mut indefinite = 0;
            for _ in 0..trials {
                // Raw noisy matrix before repair: recompute the pairwise
                // taus with noise and map through sin, then test.
                let pairs = m * (m - 1) / 2;
                let eps_pair = Epsilon::new(eps2 / pairs as f64).unwrap();
                let mut p = Matrix::identity(m);
                for i in 0..m {
                    for j in (i + 1)..m {
                        let tau = dpcopula::kendall::dp_kendall_tau(
                            &data.columns()[i],
                            &data.columns()[j],
                            eps_pair,
                            &mut rng,
                        );
                        let r = (std::f64::consts::FRAC_PI_2 * tau).sin();
                        p[(i, j)] = r;
                        p[(j, i)] = r;
                    }
                }
                clamp_to_correlation(&mut p);
                if !is_positive_definite(&p) {
                    indefinite += 1;
                }
            }
            let frac = f64::from(indefinite) / f64::from(trials);
            println!("ablation_pd_repair: m={m} eps2={eps2} -> {frac:.2}");
            t.push_row(vec![m.to_string(), eps2.to_string(), fmt(frac)]);
        }
    }
    vec![t]
}
