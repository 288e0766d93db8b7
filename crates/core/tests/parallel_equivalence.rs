//! Serial-vs-parallel bitwise equivalence — the staged engine's
//! determinism contract, pinned down per stage and end-to-end.
//!
//! Every stochastic task in the engine derives its generator from
//! `(base_seed, stream, logical index)`, never from the thread it runs
//! on, so `workers = 1` (serial) and any other worker count must produce
//! **identical bytes**. These tests compare at worker counts {1, 2, 7} —
//! one below, at, and above the task counts involved.

use dpcopula::engine::EngineOptions;
use dpcopula::kendall::SamplingStrategy;
use dpcopula::mle::{dp_mle_matrix_par, PartitionStrategy};
use dpcopula::shard::{dp_tau_matrix_sharded, shard_specs};
use dpcopula::spearman::dp_spearman_matrix_par;
use dpcopula::synthesizer::{CorrelationMethod, DpCopulaConfig, MarginMethod, Synthesis};
use dpcopula::{FittedModel, PipelineReport, SamplingProfile, SynthesisRequest};
use dpmech::Epsilon;
use obskit::MetricsSink;
use rngkit::rngs::StdRng;
use rngkit::{Rng, RngCore, SeedableRng};

const WORKER_COUNTS: [usize; 2] = [2, 7];

/// A disabled sink: the estimator fns take one, equivalence doesn't record.
fn off() -> MetricsSink {
    MetricsSink::off()
}

/// Dependent integer columns with mixed domain sizes.
fn dataset(m: usize, n: usize, seed: u64) -> (Vec<Vec<u32>>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let base: Vec<u32> = (0..n).map(|_| rng.gen_range(0..1000u32)).collect();
    let domains: Vec<usize> = (0..m).map(|j| [16, 64, 256, 1000][j % 4]).collect();
    let columns = domains
        .iter()
        .enumerate()
        .map(|(j, &d)| {
            base.iter()
                .map(|&v| {
                    ((v + rng.gen_range(0..200u32)) as usize * d / 1200 + j) as u32 % d as u32
                })
                .collect()
        })
        .collect();
    (columns, domains)
}

/// One full run through the request front door.
fn staged(
    config: DpCopulaConfig,
    columns: &[Vec<u32>],
    domains: &[usize],
    seed: u64,
    opts: &EngineOptions,
) -> (Synthesis, PipelineReport) {
    SynthesisRequest::from_config(columns, domains, config)
        .engine(*opts)
        .seed(seed)
        .run()
        .unwrap()
}

/// A fitted model through the request front door.
fn fitted(
    config: DpCopulaConfig,
    columns: &[Vec<u32>],
    domains: &[usize],
    seed: u64,
    opts: &EngineOptions,
) -> FittedModel {
    SynthesisRequest::from_config(columns, domains, config)
        .engine(*opts)
        .seed(seed)
        .fit()
        .unwrap()
        .0
}

fn window(
    model: &FittedModel,
    profile: SamplingProfile,
    offset: usize,
    n: usize,
    workers: usize,
) -> Vec<Vec<u32>> {
    model
        .try_sample_range_profiled(profile, offset, n, workers)
        .unwrap()
}

fn bits(cols: &[Vec<f64>]) -> Vec<Vec<u64>> {
    cols.iter()
        .map(|c| c.iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn margins_are_bitwise_equal_across_worker_counts() {
    let (columns, domains) = dataset(5, 3_000, 1);
    for margin in [
        MarginMethod::Efpa,
        MarginMethod::Identity,
        MarginMethod::Privelet,
    ] {
        let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap()).with_margin(margin);
        let (serial, _) = staged(
            config,
            &columns,
            &domains,
            101,
            &EngineOptions::with_workers(1),
        );
        for workers in WORKER_COUNTS {
            let (par, _) = staged(
                config,
                &columns,
                &domains,
                101,
                &EngineOptions::with_workers(workers),
            );
            assert_eq!(
                bits(&par.noisy_margins),
                bits(&serial.noisy_margins),
                "margin={margin:?} workers={workers}"
            );
        }
    }
}

#[test]
fn kendall_matrix_is_bitwise_equal_across_worker_counts() {
    let (columns, _) = dataset(5, 4_000, 2);
    let eps = Epsilon::new(0.5).unwrap();
    for shards in [1, 3] {
        let specs = shard_specs(columns[0].len(), shards);
        for strategy in [
            SamplingStrategy::Full,
            SamplingStrategy::Auto,
            SamplingStrategy::Fixed(700),
        ] {
            let tau = |workers| {
                dp_tau_matrix_sharded(&columns, &specs, eps, strategy, 202, workers, &off())
                    .unwrap()
            };
            let serial = tau(1);
            for workers in WORKER_COUNTS {
                assert_eq!(
                    tau(workers),
                    serial,
                    "shards={shards} strategy={strategy:?} workers={workers}"
                );
            }
        }
    }
}

#[test]
fn mle_matrix_is_bitwise_equal_across_worker_counts() {
    let (columns, _) = dataset(4, 6_000, 3);
    let eps = Epsilon::new(2.0).unwrap();
    let serial =
        dp_mle_matrix_par(&columns, eps, PartitionStrategy::Fixed(120), 303, 1, &off()).unwrap();
    for workers in WORKER_COUNTS {
        let par = dp_mle_matrix_par(
            &columns,
            eps,
            PartitionStrategy::Fixed(120),
            303,
            workers,
            &off(),
        )
        .unwrap();
        assert_eq!(par, serial, "workers={workers}");
    }
}

#[test]
fn spearman_matrix_is_bitwise_equal_across_worker_counts() {
    let (columns, _) = dataset(5, 3_000, 4);
    let eps = Epsilon::new(1.0).unwrap();
    let serial = dp_spearman_matrix_par(&columns, eps, 404, 1, &off()).unwrap();
    for workers in WORKER_COUNTS {
        let par = dp_spearman_matrix_par(&columns, eps, 404, workers, &off()).unwrap();
        assert_eq!(par, serial, "workers={workers}");
    }
}

#[test]
fn sampled_records_are_bitwise_equal_across_worker_counts() {
    let (columns, domains) = dataset(4, 5_000, 5);
    for method in [
        CorrelationMethod::Kendall(SamplingStrategy::Auto),
        CorrelationMethod::Mle(PartitionStrategy::Fixed(100)),
        CorrelationMethod::Spearman,
    ] {
        let mut config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
        config.method = method;
        // Small chunks so several sampling tasks exist per worker.
        let mut opts = EngineOptions::with_workers(1);
        opts.sample_chunk = 512;
        let (serial, _) = staged(config, &columns, &domains, 505, &opts);
        for workers in WORKER_COUNTS {
            let mut opts = EngineOptions::with_workers(workers);
            opts.sample_chunk = 512;
            let (par, _) = staged(config, &columns, &domains, 505, &opts);
            assert_eq!(
                par.columns, serial.columns,
                "method={method:?} workers={workers}"
            );
            assert_eq!(par.correlation, serial.correlation, "method={method:?}");
        }
    }
}

#[test]
fn selecting_fit_is_bitwise_equal_across_worker_counts() {
    // The family vote's noise is keyed by candidate, not by thread, so a
    // selecting fit writes the same `.dpcm` bytes at any worker count.
    let (columns, domains) = dataset(3, 3_000, 10);
    let config = DpCopulaConfig::kendall(Epsilon::new(2.0).unwrap());
    let fit = |workers| {
        SynthesisRequest::from_config(&columns, &domains, config)
            .select_family()
            .engine(EngineOptions::with_workers(workers))
            .seed(909)
            .fit()
            .unwrap()
            .0
            .artifact()
            .encode()
    };
    let serial = fit(1);
    for workers in WORKER_COUNTS {
        assert_eq!(fit(workers), serial, "workers={workers}");
    }
}

#[test]
fn fitted_model_windows_are_bitwise_equal_across_worker_counts() {
    // The serving layer's contract: a window is keyed off absolute
    // row position, so rows [0, N) must equal the concatenation of
    // [0, k) and [k, N) — for every split point, at every worker count,
    // and after an artifact save/load round-trip.
    let (columns, domains) = dataset(4, 3_000, 7);
    let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
    let mut opts = EngineOptions::with_workers(1);
    opts.sample_chunk = 512; // several chunks per window
    let model = fitted(config, &columns, &domains, 606, &opts);

    let n = 2_500;
    let whole = window(&model, SamplingProfile::Reference, 0, n, 1);
    for k in [1, 511, 512, 513, 1_250, 2_499] {
        for &workers in &[1, 2, 7] {
            let head = window(&model, SamplingProfile::Reference, 0, k, workers);
            let tail = window(&model, SamplingProfile::Reference, k, n - k, workers);
            for j in 0..model.dims() {
                let stitched: Vec<u32> = head[j].iter().chain(&tail[j]).copied().collect();
                assert_eq!(stitched, whole[j], "split k={k} workers={workers} col {j}");
            }
        }
    }

    // And the same window served from reloaded bytes.
    let dir = std::env::temp_dir().join(format!("dpcm_equiv_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("m.dpcm");
    model.save(&path).unwrap();
    let reloaded = FittedModel::load(&path).unwrap();
    assert_eq!(
        window(&reloaded, SamplingProfile::Reference, 0, n, 7),
        whole
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reference_profile_is_the_default_and_pins_todays_bytes() {
    // The two-profile contract, reference side: a config that never
    // mentions profiles and one that asks for `Reference` explicitly
    // release identical bytes at workers {1, 2, 7} — introducing the
    // knob must not move the pinned stream.
    let (columns, domains) = dataset(4, 3_000, 8);
    let implicit = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
    let explicit = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap())
        .with_profile(SamplingProfile::Reference);
    let mut opts = EngineOptions::with_workers(1);
    opts.sample_chunk = 512;
    let (base, _) = staged(implicit, &columns, &domains, 707, &opts);
    for &workers in &[1, 2, 7] {
        let mut opts = EngineOptions::with_workers(workers);
        opts.sample_chunk = 512;
        let (exp, _) = staged(explicit, &columns, &domains, 707, &opts);
        assert_eq!(exp.columns, base.columns, "workers={workers}");
    }
}

#[test]
fn fast_profile_is_bitwise_equal_with_itself_across_worker_counts() {
    // The two-profile contract, fast side: same seed ⇒ same bytes at any
    // worker count, through the full engine and through serving.
    let (columns, domains) = dataset(4, 3_000, 9);
    let config =
        DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap()).with_profile(SamplingProfile::Fast);
    let mut opts = EngineOptions::with_workers(1);
    opts.sample_chunk = 512;
    let (serial, _) = staged(config, &columns, &domains, 808, &opts);
    for workers in WORKER_COUNTS {
        let mut opts = EngineOptions::with_workers(workers);
        opts.sample_chunk = 512;
        let (par, _) = staged(config, &columns, &domains, 808, &opts);
        assert_eq!(par.columns, serial.columns, "workers={workers}");
    }

    // Serving side: fast windows split seamlessly, like reference ones.
    let model = fitted(config, &columns, &domains, 808, &opts);
    let fast = SamplingProfile::Fast;
    let n = 2_000;
    let whole = window(&model, fast, 0, n, 1);
    for k in [1, 511, 512, 513, 1_999] {
        for &workers in &[1, 2, 7] {
            let head = window(&model, fast, 0, k, workers);
            let tail = window(&model, fast, k, n - k, workers);
            for j in 0..model.dims() {
                let stitched: Vec<u32> = head[j].iter().chain(&tail[j]).copied().collect();
                assert_eq!(stitched, whole[j], "split k={k} workers={workers} col {j}");
            }
        }
    }
}

#[test]
fn serial_api_reproduces_per_seed_on_any_worker_count() {
    // A caller holding a generator draws the base seed from it and runs
    // the request with default engine options — so the same caller seed
    // must reproduce even when PARKIT_WORKERS (or the core count) varies.
    let (columns, domains) = dataset(3, 2_000, 6);
    let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
    let run = || {
        let mut rng = StdRng::seed_from_u64(99);
        let request = SynthesisRequest::from_config(&columns, &domains, config);
        request.seed(rng.next_u64()).run().unwrap().0
    };
    let a = run();
    let b = run();
    assert_eq!(a.columns, b.columns);
    assert_eq!(a.correlation, b.correlation);
    assert_eq!(bits(&a.noisy_margins), bits(&b.noisy_margins));
}
