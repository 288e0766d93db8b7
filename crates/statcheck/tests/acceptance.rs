//! Tier-2 statistical acceptance suite: the statistics of the pipeline,
//! not just its determinism.
//!
//! Every assertion here is a *trend* (error shrinks as ε grows) or a
//! generous absolute bound, evaluated at fixed seeds — deterministic on
//! every run, yet still binding the underlying statistics: mis-scaled
//! noise, a double-spent budget, or a broken estimator shifts or
//! flattens the error-vs-ε curve and trips the trend assertions.
//!
//! The sweeps cover the three statistical layers of the workspace:
//! every registered margin method in `dphist::MarginRegistry`, the
//! Kendall / Spearman / MLE correlation estimators, and the end-to-end
//! `fit → save → load → try_sample_range_profiled` path against generator
//! ground truth.

use datagen::margin::TableMargin;
use datagen::synthetic::{MarginKind, SyntheticSpec};
use dpcopula::kendall::{kendall_tau, SamplingStrategy};
use dpcopula::shard::{
    build_margin_summaries_from_counts, dp_tau_matrix_sharded, merge_margins, shard_specs,
};
use dpcopula::synthesizer::CorrelationMethod;
use dpcopula::{DpCopulaConfig, EngineOptions, FittedModel, SamplingProfile, SynthesisRequest};
use dphist::histogram::Histogram1D;
use dphist::MarginRegistry;
use dpmech::Epsilon;
use modelstore::ModelArtifact;
use obskit::MetricsSink;
use statcheck::{correlation_mean_abs_error, is_decreasing_trend};

/// Expected counts of a discretised-Gaussian margin over `domain` bins,
/// scaled to `total` records — the ground truth the DP publications are
/// scored against.
fn gaussian_truth(domain: usize, total: f64) -> Vec<f64> {
    let margin = TableMargin::gaussian(domain);
    let mut prev = 0.0;
    (0..domain as u32)
        .map(|k| {
            let c = margin.cdf(k);
            let p = c - prev;
            prev = c;
            p * total
        })
        .collect()
}

/// Fits `data` through the request front door.
fn fit(
    config: DpCopulaConfig,
    data: &datagen::Dataset,
    seed: u64,
    opts: EngineOptions,
) -> FittedModel {
    SynthesisRequest::from_config(data.columns(), &data.domains(), config)
        .engine(opts)
        .seed(seed)
        .fit()
        .unwrap()
        .0
}

/// The reference-profile rows `[0, n)` of a fitted model.
fn rows(model: &FittedModel, n: usize, workers: usize) -> Vec<Vec<u32>> {
    model
        .try_sample_range_profiled(SamplingProfile::Reference, 0, n, workers)
        .unwrap()
}

/// Normalised L1 distance between a published histogram and the truth.
fn l1_error(published: &[f64], truth: &[f64]) -> f64 {
    let total: f64 = truth.iter().sum();
    published
        .iter()
        .zip(truth)
        .map(|(p, t)| (p - t).abs())
        .sum::<f64>()
        / total
}

#[test]
fn every_margin_method_improves_with_epsilon() {
    let registry = MarginRegistry::builtin();
    let truth = gaussian_truth(64, 8_000.0);
    let epsilons = [0.05, 0.4, 4.0];
    let seeds = 8u64;
    for name in registry.names() {
        let publisher = registry.get(name).unwrap();
        let errs: Vec<f64> = epsilons
            .iter()
            .enumerate()
            .map(|(ei, &eps)| {
                let eps = Epsilon::new(eps).unwrap();
                (0..seeds)
                    .map(|s| {
                        let mut rng = parkit::stream_rng(0xACCE5, ei as u64, s);
                        l1_error(&publisher.publish(&truth, eps, &mut rng), &truth)
                    })
                    .sum::<f64>()
                    / seeds as f64
            })
            .collect();
        assert!(
            is_decreasing_trend(&errs),
            "margin method `{name}` error does not shrink with epsilon: {errs:?}"
        );
        // At generous budget the publication must actually be close.
        assert!(
            errs[epsilons.len() - 1] < 0.30,
            "margin method `{name}` is inaccurate even at eps = 4: {errs:?}"
        );
    }
}

#[test]
fn sharded_margins_track_single_shard_error_on_every_method() {
    // Sharding is privacy-free for the margins (parallel composition),
    // paying instead with one extra noise term per shard in each merged
    // bin: the error budget grows like sqrt(shards). For every
    // registered margin method and N in {2, 4}, the sharded error must
    // keep the decreasing error-vs-ε trend AND stay within the
    // sqrt(N)-scaled tolerance band of the single-shard error.
    let spec = SyntheticSpec {
        records: 8_000,
        dims: 2,
        domain: 64,
        margin: MarginKind::Gaussian,
        rho: 0.5,
        seed: 0x54A2D,
    };
    let data = spec.generate();
    let col = &data.columns()[..1];
    let n = col[0].len();
    let exact: Vec<f64> = Histogram1D::from_values(&col[0], 64).counts().to_vec();
    let epsilons = [0.1, 0.8, 6.4];
    let seeds = 6u64;
    let sink = MetricsSink::off();

    let sweep = |name: &str, shards: usize| -> Vec<f64> {
        epsilons
            .iter()
            .enumerate()
            .map(|(ei, &eps)| {
                let eps = Epsilon::new(eps).unwrap();
                (0..seeds)
                    .map(|s| {
                        let specs = shard_specs(n, shards);
                        let counts: Vec<Vec<Vec<f64>>> = specs
                            .iter()
                            .map(|spec| {
                                let part = &col[0][spec.start..spec.end];
                                vec![Histogram1D::from_values(part, 64).counts().to_vec()]
                            })
                            .collect();
                        let summaries = build_margin_summaries_from_counts(
                            &counts,
                            &specs,
                            name,
                            eps,
                            0xD1CE + 100 * ei as u64 + s,
                            2,
                            &sink,
                        );
                        l1_error(&merge_margins(&summaries)[0], &exact)
                    })
                    .sum::<f64>()
                    / seeds as f64
            })
            .collect()
    };

    let registry = MarginRegistry::builtin();
    for name in registry.names() {
        let single = sweep(name, 1);
        assert!(
            is_decreasing_trend(&single),
            "`{name}` single-shard error does not shrink with epsilon: {single:?}"
        );
        for shards in [2usize, 4] {
            let sharded = sweep(name, shards);
            assert!(
                is_decreasing_trend(&sharded),
                "`{name}` at {shards} shards: error does not shrink with epsilon: {sharded:?}"
            );
            let tolerance = (shards as f64).sqrt() * 1.8;
            for (ei, (&s_err, &one_err)) in sharded.iter().zip(&single).enumerate() {
                assert!(
                    s_err <= one_err * tolerance + 0.02,
                    "`{name}` at {shards} shards, eps {}: error {s_err} vs \
                     single-shard {one_err} (tolerance x{tolerance:.2})",
                    epsilons[ei]
                );
            }
        }
    }
}

#[test]
fn merged_tau_stays_close_to_exact_pooled_tau() {
    // The sharded Kendall path merges within-shard concordance summaries
    // with cross-shard corrections; at a generous budget the remaining
    // error is the record subsample, so the released τ must sit within
    // MAE 0.05 of the exact pooled τ over ALL records, at pinned seeds.
    let spec = SyntheticSpec {
        records: 4_000,
        dims: 3,
        domain: 64,
        margin: MarginKind::Gaussian,
        rho: 0.6,
        seed: 0x7A0,
    };
    let data = spec.generate();
    let cols = data.columns();
    let pairs = [(0usize, 1usize), (0, 2), (1, 2)];
    let exact: Vec<f64> = pairs
        .iter()
        .map(|&(i, j)| kendall_tau(&cols[i], &cols[j]))
        .collect();
    let eps = Epsilon::new(40.0).unwrap();
    for shards in [2usize, 4] {
        for seed in [3u64, 17, 0xBAD5EED] {
            let specs = shard_specs(cols[0].len(), shards);
            let p = dp_tau_matrix_sharded(
                cols,
                &specs,
                eps,
                SamplingStrategy::Fixed(1_500),
                seed,
                2,
                &MetricsSink::off(),
            )
            .unwrap();
            // Invert the released sin(π/2·τ) map back to τ.
            let mae: f64 = pairs
                .iter()
                .zip(&exact)
                .map(|(&(i, j), &t)| {
                    (p[(i, j)].clamp(-1.0, 1.0).asin() * std::f64::consts::FRAC_2_PI - t).abs()
                })
                .sum::<f64>()
                / pairs.len() as f64;
            assert!(
                mae < 0.05,
                "merged tau MAE vs exact pooled tau at {shards} shards, seed {seed}: {mae}"
            );
        }
    }
}

#[test]
fn sharded_fit_tracks_single_shard_error_end_to_end() {
    // The full fit pipeline at N in {2, 4} shards: correlation recovery
    // keeps its error-vs-ε trend and lands within tolerance of the
    // single-shard fit at every budget level.
    let spec = SyntheticSpec {
        records: 2_000,
        dims: 3,
        domain: 64,
        margin: MarginKind::Gaussian,
        rho: 0.6,
        seed: 0x5AFE,
    };
    let data = spec.generate();
    let truth = spec.correlation();
    let seeds = 6u64;
    let sweep = |shards: usize| -> Vec<f64> {
        [0.3, 2.0, 20.0]
            .iter()
            .enumerate()
            .map(|(ei, &eps)| {
                (0..seeds)
                    .map(|s| {
                        let config = DpCopulaConfig::kendall(Epsilon::new(eps).unwrap());
                        let mut opts = EngineOptions::with_workers(2);
                        opts.shards = shards;
                        let seed = 1000 * (ei as u64 + 1) + s;
                        let model = fit(config, &data, seed, opts);
                        correlation_mean_abs_error(&truth, &model.artifact().correlation)
                    })
                    .sum::<f64>()
                    / seeds as f64
            })
            .collect()
    };
    let single = sweep(1);
    for shards in [2usize, 4] {
        let sharded = sweep(shards);
        assert!(
            is_decreasing_trend(&sharded),
            "{shards}-shard fit error does not shrink with epsilon: {sharded:?}"
        );
        for (ei, (&s_err, &one_err)) in sharded.iter().zip(&single).enumerate() {
            assert!(
                s_err <= one_err * 1.5 + 0.03,
                "{shards}-shard fit error {s_err} vs single-shard {one_err} at sweep \
                 level {ei}"
            );
        }
    }
}

#[test]
fn correlation_estimators_recover_dependence_as_epsilon_grows() {
    // Small n keeps the rank-statistic sensitivities (4/(n+1), 30/(n-1))
    // large enough that the ε-driven noise dominates the error, so the
    // trend is attributable to the budget and not to sampling luck.
    let spec = SyntheticSpec {
        records: 500,
        dims: 3,
        domain: 64,
        margin: MarginKind::Gaussian,
        rho: 0.6,
        seed: 0xC0FE,
    };
    let data = spec.generate();
    let truth = spec.correlation();
    let opts = EngineOptions::with_workers(2);
    let seeds = 6u64;
    // (label, config at eps, eps sweep). MLE's subsample-and-aggregate
    // partition rule needs l > C(m,2)/(0.025 ε₂) partitions of ≥ 2
    // records, so its sweep starts higher and uses a larger dataset.
    let kendall = |e: f64| DpCopulaConfig::kendall(Epsilon::new(e).unwrap());
    let spearman = |e: f64| DpCopulaConfig {
        method: CorrelationMethod::Spearman,
        ..kendall(e)
    };
    for (label, cfg_at) in [
        ("kendall", &kendall as &dyn Fn(f64) -> DpCopulaConfig),
        ("spearman", &spearman),
    ] {
        let errs: Vec<f64> = [0.3, 2.0, 20.0]
            .iter()
            .enumerate()
            .map(|(ei, &eps)| {
                (0..seeds)
                    .map(|s| {
                        let seed = 1000 * (ei as u64 + 1) + s;
                        let model = fit(cfg_at(eps), &data, seed, opts);
                        correlation_mean_abs_error(&truth, &model.artifact().correlation)
                    })
                    .sum::<f64>()
                    / seeds as f64
            })
            .collect();
        assert!(
            is_decreasing_trend(&errs),
            "{label} correlation error does not shrink with epsilon: {errs:?}"
        );
        assert!(
            errs[2] < 0.15,
            "{label} stays far from the generator dependence at eps = 20: {errs:?}"
        );
    }

    // MLE flavour on its own dataset: the Auto partition rule demands
    // `required_partitions(m, ε₂) · MIN_BLOCK_SIZE` records (4324 at
    // ε = 1, m = 3), so it gets a larger sample and a higher ε floor.
    let spec = SyntheticSpec {
        records: 8_000,
        ..spec
    };
    let data = spec.generate();
    let mle_errs: Vec<f64> = [1.0, 4.0, 16.0]
        .iter()
        .enumerate()
        .map(|(ei, &eps)| {
            (0..seeds)
                .map(|s| {
                    let config = DpCopulaConfig::mle(Epsilon::new(eps).unwrap());
                    let seed = 5000 * (ei as u64 + 1) + s;
                    let model = fit(config, &data, seed, opts);
                    correlation_mean_abs_error(&truth, &model.artifact().correlation)
                })
                .sum::<f64>()
                / seeds as f64
        })
        .collect();
    assert!(
        is_decreasing_trend(&mle_errs),
        "MLE correlation error does not shrink with epsilon: {mle_errs:?}"
    );
}

#[test]
fn end_to_end_serving_recovers_generator_truth() {
    let spec = SyntheticSpec {
        records: 6_000,
        dims: 3,
        domain: 32,
        margin: MarginKind::Gaussian,
        rho: 0.7,
        seed: 0xE2E,
    };
    let data = spec.generate();
    let truth_margin = gaussian_truth(32, spec.records as f64);
    let tau_truth = kendall_tau(&data.columns()[0], &data.columns()[1]);
    let dir = std::env::temp_dir().join(format!("statcheck_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let serve_error = |eps: f64, fit_seed: u64| -> (f64, f64) {
        let config = DpCopulaConfig::kendall(Epsilon::new(eps).unwrap());
        let model = fit(config, &data, fit_seed, EngineOptions::with_workers(2));
        // Round-trip through the artifact store: the audit must score
        // what a deployment would actually serve, not the in-memory fit.
        let path = dir.join(format!("m_{eps}_{fit_seed}.dpcm"));
        model.save(&path).unwrap();
        let served = FittedModel::from_artifact(ModelArtifact::load(&path).unwrap()).unwrap();
        let cols = rows(&served, spec.records, 3);
        assert_eq!(cols, rows(&model, spec.records, 1));
        for col in &cols {
            assert!(col.iter().all(|&v| (v as usize) < spec.domain));
        }
        let mut hist = vec![0.0_f64; spec.domain];
        for &v in &cols[0] {
            hist[v as usize] += 1.0;
        }
        let margin_err = l1_error(&hist, &truth_margin);
        let tau_err = (kendall_tau(&cols[0], &cols[1]) - tau_truth).abs();
        (margin_err, tau_err)
    };

    // Average each ε level over a few fit seeds: at ε = 0.1 the noise
    // (Kendall scale 4/((n+1)ε₂), EFPA at ε₁/m) dominates the error, at
    // ε = 20 the residual bias does, so the averaged trend is attributable
    // to the budget rather than to one lucky draw.
    let seeds = 4u64;
    let avg = |eps: f64, base: u64| -> (f64, f64) {
        let (mut m, mut t) = (0.0, 0.0);
        for s in 0..seeds {
            let (me, te) = serve_error(eps, base + s);
            m += me;
            t += te;
        }
        (m / seeds as f64, t / seeds as f64)
    };
    let (m_low, t_low) = avg(0.1, 0xBEEF);
    let (m_high, t_high) = avg(20.0, 0xFACE);
    std::fs::remove_dir_all(&dir).ok();

    assert!(
        is_decreasing_trend(&[m_low, m_high]),
        "served margin error does not improve with budget: {m_low} -> {m_high}"
    );
    assert!(
        is_decreasing_trend(&[t_low, t_high]),
        "served dependence error does not improve with budget: {t_low} -> {t_high}"
    );
    // Generous absolute quality gates at the generous budget.
    assert!(m_high < 0.10, "served margin L1 at eps=20: {m_high}");
    assert!(
        t_high < 0.10,
        "served Kendall-tau error at eps=20: {t_high}"
    );
}
