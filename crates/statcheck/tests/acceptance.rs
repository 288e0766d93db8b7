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
use dpcopula::shard::{dp_tau_matrix_sharded, shard_specs};
use dpcopula::synthesizer::CorrelationMethod;
use dpcopula::{
    distfit, DpCopulaConfig, EngineOptions, FittedModel, MarginMethod, SamplingProfile,
    SynthesisRequest,
};
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
fn sharded_margins_equal_single_shard_margins_on_every_method() {
    // Shards release nothing of their own: each margin is published once
    // from the exact counts of every row, on the 1-shard stream key. So
    // for every margin method, `fit` at 2 and 4 shards and
    // `fit_shard` x 4 + `merge_shards` release the 1-shard margins bit
    // for bit and the 1-shard ledger; under `Full` sampling the pooled τ
    // sample is every row, so the correlation matrix is the same too.
    let spec = SyntheticSpec {
        records: 2_003,
        dims: 3,
        domain: 64,
        margin: MarginKind::Gaussian,
        rho: 0.5,
        seed: 0x54A2D,
    };
    let data = spec.generate();
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let margin_bits = |model: &FittedModel| {
        model
            .artifact()
            .margins
            .iter()
            .map(|m| bits(m))
            .collect::<Vec<_>>()
    };
    let merged = |config: &DpCopulaConfig, opts: &EngineOptions| {
        let parts: Vec<(String, modelstore::ShardArtifact)> = shard_specs(data.len(), 4)
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let part = data
                    .columns()
                    .iter()
                    .map(|col| col[spec.start..spec.end].to_vec())
                    .collect();
                let part = datagen::Dataset::new(data.attributes().to_vec(), part);
                let mut source = datagen::DatasetSource::new(part);
                let artifact = distfit::fit_shard(
                    &mut source,
                    config,
                    i,
                    4,
                    data.len(),
                    21,
                    opts,
                    &MetricsSink::off(),
                )
                .unwrap();
                (format!("part{i}.dpcs"), artifact)
            })
            .collect();
        distfit::merge_shards(&parts, 2, &MetricsSink::off()).unwrap()
    };

    for margin in [
        MarginMethod::Efpa,
        MarginMethod::EfpaDct,
        MarginMethod::Identity,
        MarginMethod::Privelet,
        MarginMethod::Php,
        MarginMethod::Hierarchical,
        MarginMethod::NoiseFirst,
        MarginMethod::StructureFirst,
    ] {
        for strategy in [SamplingStrategy::Auto, SamplingStrategy::Full] {
            let mut config =
                DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap()).with_margin(margin);
            config.method = CorrelationMethod::Kendall(strategy);
            let one = fit(config, &data, 21, EngineOptions::with_workers(2));
            let mut sharded = Vec::new();
            for shards in [2usize, 4] {
                let mut opts = EngineOptions::with_workers(2);
                opts.shards = shards;
                sharded.push((
                    format!("fit --shards {shards}"),
                    fit(config, &data, 21, opts),
                ));
            }
            let mut opts = EngineOptions::with_workers(2);
            opts.shards = 4;
            sharded.push((
                "fit_shard x 4 + merge_shards".into(),
                merged(&config, &opts),
            ));
            for (path, model) in &sharded {
                let case = format!("{margin:?} {strategy:?} {path}");
                assert_eq!(margin_bits(model), margin_bits(&one), "margins: {case}");
                assert_eq!(
                    model.artifact().ledger,
                    one.artifact().ledger,
                    "ledger: {case}"
                );
                if strategy == SamplingStrategy::Full {
                    assert_eq!(
                        bits(model.artifact().correlation.as_slice()),
                        bits(one.artifact().correlation.as_slice()),
                        "correlation: {case}"
                    );
                }
            }
        }
    }
}

#[test]
fn merged_tau_stays_close_to_exact_pooled_tau() {
    // The sharded Kendall path scores τ over the pooled record sample of
    // all shards; at a generous budget the remaining error is the record
    // subsample, so the released τ must sit within MAE 0.05 of the exact
    // pooled τ over ALL records, at pinned seeds.
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
