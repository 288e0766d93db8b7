//! Byte-identity pins of the fit pipeline's releases.
//!
//! Every pin is one `name fnv1a64 bytes` line of
//! `tests/fixtures/sharded_pins.txt`: the FNV-1a digest and length of a
//! released byte stream, recorded at the commit before the code that
//! produces it changed. Re-record (only for an intentional, documented
//! change of the released bytes) with `PIN_UPDATE=1`; each line it
//! rewrites is printed as `name: old -> new` (pass `--nocapture` to
//! see them). The protocol itself lives in `pins/mod.rs`, which the
//! serving suite shares.

mod pins;

use dpcopula::engine::EngineOptions;
use dpcopula::kendall::SamplingStrategy;
use dpcopula::synthesizer::{CorrelationMethod, DpCopulaConfig, MarginMethod};
use dpcopula::SynthesisRequest;
use dpmech::Epsilon;
use pins::{pin_update, stream_name, INTEGRATION_PINS};
use rngkit::rngs::StdRng;
use rngkit::{Rng, SeedableRng};
use std::path::PathBuf;

/// Dependent integer columns, n large enough that the Kendall `Auto`
/// strategy actually subsamples (exercising `STREAM_KENDALL_SAMPLE`).
fn dataset(m: usize, n: usize, seed: u64) -> (Vec<Vec<u32>>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let base: Vec<u32> = (0..n).map(|_| rng.gen_range(0..1000u32)).collect();
    let domains: Vec<usize> = (0..m).map(|j| [16, 64, 256][j % 3]).collect();
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

/// A window's columns as `u32` little-endian, column after column.
fn u32s(columns: &[Vec<u32>]) -> Vec<u8> {
    columns
        .iter()
        .flatten()
        .flat_map(|v| v.to_le_bytes())
        .collect()
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The 1-shard fits pinned since the pre-shard pipeline, in the order
/// they close `sharded_pins.txt`.
const ONE_SHARD_PINS: [&str; 3] = [
    "pin_kendall_auto.dpcm",
    "pin_kendall_full.dpcm",
    "pin_spearman.dpcm",
];

/// The `.dpcm` bytes of `config`'s default-options fit of the 3 × 4,000
/// dataset at seed 77, checked against its line `name`.
fn assert_one_shard_fit_pinned(config: DpCopulaConfig, name: &str) {
    let (columns, domains) = dataset(3, 4_000, 20240601);
    let (model, _) = SynthesisRequest::from_config(&columns, &domains, config)
        .engine(EngineOptions::default())
        .seed(77)
        .fit()
        .unwrap();
    assert_digests_pinned(&[(name.to_string(), model.artifact().encode())]);
}

#[test]
fn one_shard_kendall_fit_matches_pre_shard_bytes() {
    let mut config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
    config.method = CorrelationMethod::Kendall(SamplingStrategy::Auto);
    assert_one_shard_fit_pinned(config, ONE_SHARD_PINS[0]);
}

#[test]
fn one_shard_kendall_full_fit_matches_pre_shard_bytes() {
    let mut config =
        DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap()).with_margin(MarginMethod::Privelet);
    config.method = CorrelationMethod::Kendall(SamplingStrategy::Full);
    assert_one_shard_fit_pinned(config, ONE_SHARD_PINS[1]);
}

#[test]
fn one_shard_spearman_fit_matches_pre_shard_bytes() {
    let mut config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
    config.method = CorrelationMethod::Spearman;
    assert_one_shard_fit_pinned(config, ONE_SHARD_PINS[2]);
}

/// The sharded byte streams pinned against history in
/// `tests/fixtures/sharded_pins.txt`, one `name fnv1a64 bytes` line per
/// stream, over the same 3 × 4,000 dataset (where `Auto` subsamples to a
/// 2,700-row target):
///
/// * `.dpcm` bytes of in-process fits at shards {2, 4} × {Auto, Full,
///   Fixed(700)};
/// * `.dpcs` bytes of `fit_shard` for each of 4 shards under `Auto`, and
///   the `.dpcm` `merge_shards` makes from them;
/// * the raw `dp_tau_matrix_sharded` matrix (`f64` bits, little-endian)
///   at shards {1, 3} × {Full, Fixed(700)}.
///
/// `distfit_identity` and the CLI `cmp`s compare two paths through the
/// same merge code; these digests hold the merge itself to the bytes it
/// released when they were recorded. Re-record (only for an intentional,
/// documented change of the released bytes) with `PIN_UPDATE=1`.
fn sharded_streams() -> Vec<(String, Vec<u8>)> {
    use datagen::{Attribute, Dataset, DatasetSource};
    use dpcopula::shard::{dp_tau_matrix_sharded, shard_specs};
    use dpcopula::{distfit, FittedModel};
    use obskit::MetricsSink;

    const SEED: u64 = 77;
    let (columns, domains) = dataset(3, 4_000, 20240601);
    let n = columns[0].len();
    let strategies = [
        ("auto", SamplingStrategy::Auto),
        ("full", SamplingStrategy::Full),
        ("fixed700", SamplingStrategy::Fixed(700)),
    ];
    let kendall = |strategy| {
        let mut config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
        config.method = CorrelationMethod::Kendall(strategy);
        config
    };
    let dpcm = |model: &FittedModel| model.artifact().encode();
    let mut streams = Vec::new();

    for shards in [2usize, 4] {
        for (label, strategy) in strategies {
            let mut opts = EngineOptions::with_workers(2);
            opts.shards = shards;
            let (model, _) = SynthesisRequest::from_config(&columns, &domains, kendall(strategy))
                .engine(opts)
                .seed(SEED)
                .fit()
                .unwrap();
            streams.push((format!("fit_shards{shards}_{label}.dpcm"), dpcm(&model)));
        }
    }

    let attributes: Vec<Attribute> = domains
        .iter()
        .enumerate()
        .map(|(j, &d)| Attribute::new(format!("attr{j}"), d))
        .collect();
    let opts = EngineOptions::with_workers(2);
    let config = kendall(SamplingStrategy::Auto);
    let parts: Vec<(String, modelstore::ShardArtifact)> = shard_specs(n, 4)
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let part = columns
                .iter()
                .map(|col| col[spec.start..spec.end].to_vec())
                .collect();
            let mut source = DatasetSource::new(Dataset::new(attributes.clone(), part));
            let artifact = distfit::fit_shard(
                &mut source,
                &config,
                i,
                4,
                n,
                SEED,
                &opts,
                &MetricsSink::off(),
            )
            .unwrap();
            (format!("part{i}.dpcs"), artifact)
        })
        .collect();
    for (i, (_, artifact)) in parts.iter().enumerate() {
        streams.push((format!("fit_shard{i}_of4_auto.dpcs"), artifact.encode()));
    }
    let merged = distfit::merge_shards(&parts, 2, &MetricsSink::off()).unwrap();
    streams.push(("merge_shards4_auto.dpcm".into(), dpcm(&merged)));

    let eps = Epsilon::new(0.5).unwrap();
    for shards in [1usize, 3] {
        for (label, strategy) in [strategies[1], strategies[2]] {
            let p = dp_tau_matrix_sharded(
                &columns,
                &shard_specs(n, shards),
                eps,
                strategy,
                SEED,
                2,
                &MetricsSink::off(),
            )
            .unwrap();
            let bytes = p.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect();
            streams.push((format!("tau_shards{shards}_{label}.f64le"), bytes));
        }
    }
    streams
}

/// Checks each stream against its line in `tests/fixtures/sharded_pins.txt`
/// (rewrites it under `PIN_UPDATE=1`).
fn assert_digests_pinned(streams: &[(String, Vec<u8>)]) {
    pins::assert_digests_pinned(&fixture_path("sharded_pins.txt"), streams);
}

#[test]
fn sharded_streams_match_their_pinned_digests() {
    let streams = sharded_streams();
    assert_digests_pinned(&streams);
    if pin_update() {
        return;
    }
    let pinned = std::fs::read_to_string(fixture_path("sharded_pins.txt")).unwrap();
    let listed: Vec<&str> = pinned.lines().map(stream_name).collect();
    let windows = window_pins();
    let margins = margin_pins();
    let census = census_pins();
    let known: Vec<&str> = streams
        .iter()
        .map(|(name, _)| name.as_str())
        .chain(KERNEL_PINS)
        .chain(RELEASE_PINS)
        .chain(windows.iter().map(String::as_str))
        .chain(HYBRID_PINS)
        .chain(margins.iter().map(String::as_str))
        .chain(ONE_SHARD_PINS)
        .chain(census.iter().map(String::as_str))
        .chain(INTEGRATION_PINS)
        .collect();
    assert_eq!(
        listed, known,
        "sharded_pins.txt lists a different set of streams"
    );
}

/// The Kendall kernel's own streams, pinned in the same file after the
/// sharded ones.
const KERNEL_PINS: [&str; 3] = [
    "concordance_brazil25200.i64le",
    "concordance_us5400.i64le",
    "dp_correlation_matrix_auto.f64le",
];

/// The integers and the serial release of the Kendall kernel, at the
/// shapes the fits score:
///
/// * every pair's [`Concordance`](dpcopula::kendall::Concordance) (`s`,
///   then `pairs`, 8 bytes little-endian each), pair `(i, j)`, `i < j`,
///   in lexicographic order, over `brazil_census(25_200, 7)` (the Auto
///   τ sample of an 8-attribute fit at ε₂ = 1/9) and `us_census(5_400,
///   7)`;
/// * the serial [`dp_correlation_matrix`](dpcopula::kendall::dp_correlation_matrix)
///   behind `selection::synthesize_adaptive` over `us_census(8_000, 7)`
///   at ε₂ = 1/9 under `Auto` (a 5,400-row subsample) with
///   `StdRng::seed_from_u64(99)`, as `f64` bits little-endian.
///
/// The census columns tie heavily (domains 2–1,020), so most pairs score
/// many records per `(x, y)` value cell.
fn kernel_streams() -> Vec<(String, Vec<u8>)> {
    use datagen::census::{brazil_census, us_census};
    use dpcopula::kendall::{concordance_cached, dp_correlation_matrix, RankedColumn};

    let concordances = |columns: &[Vec<u32>]| -> Vec<u8> {
        let ranked: Vec<RankedColumn> = columns
            .iter()
            .map(|col| RankedColumn::new(col.clone()))
            .collect();
        let mut bytes = Vec::new();
        for i in 0..ranked.len() {
            for j in (i + 1)..ranked.len() {
                let c = concordance_cached(&ranked[i], &ranked[j]);
                bytes.extend(c.s.to_le_bytes());
                bytes.extend(c.pairs.to_le_bytes());
            }
        }
        bytes
    };
    let mut rng = StdRng::seed_from_u64(99);
    let p = dp_correlation_matrix(
        us_census(8_000, 7).columns(),
        Epsilon::new(1.0 / 9.0).unwrap(),
        SamplingStrategy::Auto,
        &mut rng,
    );
    let streams = vec![
        concordances(brazil_census(25_200, 7).columns()),
        concordances(us_census(5_400, 7).columns()),
        p.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect(),
    ];
    KERNEL_PINS
        .iter()
        .map(|name| name.to_string())
        .zip(streams)
        .collect()
}

#[test]
fn kendall_kernel_streams_match_their_pinned_digests() {
    assert_digests_pinned(&kernel_streams());
}

/// The releases of the estimators and samplers the sharded fit does not
/// run, pinned in the same file after the kernel's streams.
const RELEASE_PINS: [&str; 7] = [
    "fit_mle_fixed40.dpcm",
    "adaptive_t3_votes.f64le",
    "adaptive_t3_release.bin",
    "t5_window_off0_w1.u32le",
    "t5_window_off0_w3.u32le",
    "t5_window_off511_w1.u32le",
    "t5_window_off511_w3.u32le",
];

/// One release per estimator or sampler outside the sharded fit:
///
/// * the `.dpcm` bytes of an MLE fit (`Mle(Fixed(40))`, 100-row blocks)
///   over the 3 × 4,000 dataset at seed 77;
/// * `selection::synthesize_adaptive` over a 3 × 3,000 t(3)-copula
///   dataset with `StdRng::seed_from_u64(5)`: the winning family and
///   every candidate's family and `noisy_votes` (a family is its degrees
///   of freedom, 0 for the Gaussian; `f64` bits little-endian), then the
///   release — the correlation matrix and the noisy margins as `f64`
///   bits, the columns as `u32`, all little-endian;
/// * reference windows of a `StudentT { dof: 5 }` model (the Kendall
///   `Auto` fit of the dataset with a 512-row sampling chunk, its family
///   set to t) at offset 0 (1,100 rows, three chunks) and offset 511
///   (600 rows across the first chunk edge), at workers {1, 3}; each
///   window is its columns as `u32` little-endian.
fn release_streams() -> Vec<(String, Vec<u8>)> {
    use dpcopula::empirical::MarginalDistribution;
    use dpcopula::mle::PartitionStrategy;
    use dpcopula::selection::{synthesize_adaptive, AdaptiveConfig, CopulaFamily};
    use dpcopula::tcopula::TCopulaSampler;
    use dpcopula::{FittedModel, SamplingProfile};
    use mathkit::correlation::equicorrelation;

    let f64s =
        |values: &[f64]| -> Vec<u8> { values.iter().flat_map(|v| v.to_le_bytes()).collect() };
    let (columns, domains) = dataset(3, 4_000, 20240601);

    let mut config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
    config.method = CorrelationMethod::Mle(PartitionStrategy::Fixed(40));
    let (mle, _) = SynthesisRequest::from_config(&columns, &domains, config)
        .seed(77)
        .fit()
        .unwrap();

    let margins = vec![MarginalDistribution::from_noisy_histogram(&[1.0; 64]); 3];
    let t3 = TCopulaSampler::new(&equicorrelation(3, 0.6), 3.0, margins).unwrap();
    let t3_columns = t3.sample_columns(3_000, &mut StdRng::seed_from_u64(4));
    let adaptive = synthesize_adaptive(
        &AdaptiveConfig::new(DpCopulaConfig::kendall(Epsilon::new(2.0).unwrap())),
        &t3_columns,
        &[64; 3],
        &mut StdRng::seed_from_u64(5),
    )
    .unwrap();
    let dof = |family: CopulaFamily| match family {
        CopulaFamily::Gaussian => 0.0,
        CopulaFamily::StudentT { df } => df,
    };
    let mut votes = vec![dof(adaptive.family)];
    for score in &adaptive.scores {
        votes.extend([dof(score.family), score.noisy_votes]);
    }
    let synthesis = &adaptive.synthesis;
    let mut release = f64s(synthesis.correlation.as_slice());
    for margin in &synthesis.noisy_margins {
        release.extend(f64s(margin));
    }
    release.extend(u32s(&synthesis.columns));

    let (kendall, _) = SynthesisRequest::from_config(
        &columns,
        &domains,
        DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap()),
    )
    .seed(77)
    .sample_chunk(512)
    .fit()
    .unwrap();
    let mut artifact = kendall.artifact().clone();
    artifact.family = modelstore::CopulaFamily::StudentT { dof: 5.0 };
    let t5 = FittedModel::from_artifact(artifact).unwrap();
    let window = |offset, rows, workers| {
        let columns = t5
            .try_sample_range_profiled(SamplingProfile::Reference, offset, rows, workers)
            .unwrap();
        u32s(&columns)
    };

    let streams = vec![
        mle.artifact().encode(),
        f64s(&votes),
        release,
        window(0, 1_100, 1),
        window(0, 1_100, 3),
        window(511, 600, 1),
        window(511, 600, 3),
    ];
    RELEASE_PINS
        .iter()
        .map(|name| name.to_string())
        .zip(streams)
        .collect()
}

#[test]
fn release_streams_match_their_pinned_digests() {
    assert_digests_pinned(&release_streams());
}

/// The absolute offsets of the pinned Gaussian windows, for the default
/// 8,192-row sampling chunk: no burn, a burn of 8,191 rows that then
/// crosses the first chunk edge, a burn of 17 rows in chunk 3, and one
/// row into a chunk past 2^32.
const WINDOW_OFFSETS: [usize; 4] = [0, 8_191, 3 * 8_192 + 17, (1 << 32) + 1];

/// The names of the Gaussian window pins, in the order they follow the
/// releases in the file: profile, then offset, then workers {1, 3}.
fn window_pins() -> Vec<String> {
    let mut names = Vec::new();
    for profile in ["reference", "fast"] {
        for offset in WINDOW_OFFSETS {
            for workers in [1, 3] {
                names.push(format!("window_{profile}_off{offset}_w{workers}.u32le"));
            }
        }
    }
    names
}

/// 600-row windows of a Gaussian model in both sampling profiles at
/// [`WINDOW_OFFSETS`] and workers {1, 3}, each as its columns in `u32`
/// little-endian. The model is the Kendall `Auto` fit of the 3 × 4,000
/// dataset at seed 77 (the model `pin_kendall_auto.dpcm` pins). The burn
/// of 8,191 rows draws about 24,500 fast normals, so the fast windows
/// pass through the ziggurat's wedge and tail branches as well as its
/// core.
fn window_streams() -> Vec<(String, Vec<u8>)> {
    use dpcopula::SamplingProfile;

    let (columns, domains) = dataset(3, 4_000, 20240601);
    let (model, _) = SynthesisRequest::from_config(
        &columns,
        &domains,
        DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap()),
    )
    .seed(77)
    .fit()
    .unwrap();
    let mut streams = Vec::new();
    for profile in [SamplingProfile::Reference, SamplingProfile::Fast] {
        for offset in WINDOW_OFFSETS {
            for workers in [1, 3] {
                let window = model
                    .try_sample_range_profiled(profile, offset, 600, workers)
                    .unwrap();
                streams.push(u32s(&window));
            }
        }
    }
    window_pins().into_iter().zip(streams).collect()
}

#[test]
fn gaussian_window_streams_match_their_pinned_digests() {
    assert_digests_pinned(&window_streams());
}

/// The hybrid's releases, pinned in the same file after the Gaussian
/// windows.
const HYBRID_PINS: [&str; 2] = ["hybrid_brazil6000.u32le", "hybrid_small2x3.u32le"];

/// Every margin method, in the order its fit follows the hybrid's
/// releases in the file.
const MARGIN_METHODS: [MarginMethod; 8] = [
    MarginMethod::Efpa,
    MarginMethod::EfpaDct,
    MarginMethod::Identity,
    MarginMethod::Privelet,
    MarginMethod::Php,
    MarginMethod::Hierarchical,
    MarginMethod::NoiseFirst,
    MarginMethod::StructureFirst,
];

/// The names of the per-margin-method fit pins.
fn margin_pins() -> Vec<String> {
    MARGIN_METHODS
        .iter()
        .map(|margin| format!("fit_margin_{}.dpcm", margin.registry_name()))
        .collect()
}

/// The hybrid's releases and one fit per margin method:
///
/// * every column `HybridSynthesizer` releases under its default config
///   over a Kendall config at ε = 1, as `u32` little-endian: over
///   `brazil_census(6_000, 7)` (three binary attributes, 8 partitions)
///   with `StdRng::seed_from_u64(8)`, and over a 2,000-row table of a
///   binary and a ternary attribute with `StdRng::seed_from_u64(9)`.
///   Both of the table's attributes are small-domain, so its release is
///   the 6 noisy partition counts alone;
/// * the `.dpcm` bytes of the Kendall `Auto` fit of the 3 × 4,000
///   dataset at seed 77 under each [`MarginMethod`].
fn hybrid_and_margin_streams() -> Vec<(String, Vec<u8>)> {
    use datagen::census::brazil_census;
    use dpcopula::hybrid::{HybridConfig, HybridSynthesizer};

    let hybrid = HybridSynthesizer::new(HybridConfig::new(DpCopulaConfig::kendall(
        Epsilon::new(1.0).unwrap(),
    )));
    let brazil = brazil_census(6_000, 7);
    let census = hybrid
        .synthesize(
            brazil.columns(),
            &brazil.domains(),
            &mut StdRng::seed_from_u64(8),
        )
        .unwrap();
    let mut rng = StdRng::seed_from_u64(6);
    let binary: Vec<u32> = (0..2_000).map(|_| rng.gen_range(0..2)).collect();
    let ternary: Vec<u32> = (0..2_000).map(|_| rng.gen_range(0..3)).collect();
    let counts = hybrid
        .synthesize(&[binary, ternary], &[2, 3], &mut StdRng::seed_from_u64(9))
        .unwrap();
    let mut streams: Vec<(String, Vec<u8>)> = HYBRID_PINS
        .iter()
        .map(|name| name.to_string())
        .zip([u32s(&census.columns), u32s(&counts.columns)])
        .collect();

    let (columns, domains) = dataset(3, 4_000, 20240601);
    for (name, margin) in margin_pins().into_iter().zip(MARGIN_METHODS) {
        let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap()).with_margin(margin);
        let (model, _) = SynthesisRequest::from_config(&columns, &domains, config)
            .seed(77)
            .fit()
            .unwrap();
        streams.push((name, model.artifact().encode()));
    }
    streams
}

#[test]
fn hybrid_and_margin_streams_match_their_pinned_digests() {
    assert_digests_pinned(&hybrid_and_margin_streams());
}

/// The absolute offsets of the census window pins, for the default
/// 8,192-row sampling chunk: no burn, a burn of half a chunk, and a
/// burn of 3,349 rows in chunk 15,070.
const CENSUS_WINDOW_OFFSETS: [usize; 3] = [0, 4_096, 123_456_789];

/// Rows per census window pin: each window spans three chunks.
const CENSUS_WINDOW_ROWS: usize = 20_000;

/// The names of the census pins, in the order they follow the
/// one-shard fits in the file: each census's reference windows (offset,
/// then workers {1, 3}), then one `sample_columns` stream.
fn census_pins() -> Vec<String> {
    let mut names = Vec::new();
    for census in ["us", "brazil"] {
        for offset in CENSUS_WINDOW_OFFSETS {
            for workers in [1, 3] {
                names.push(format!(
                    "census_{census}100000_reference_off{offset}_w{workers}.u32le"
                ));
            }
        }
    }
    names.push("sample_columns_us100000.u32le".into());
    names
}

/// Reference windows of census-shaped models, whose margins are wide
/// (up to 1,020 and 586 bins) and skewed, so the sampled cells land near
/// many CDF steps:
///
/// * [`CENSUS_WINDOW_ROWS`]-row reference windows of the Kendall `Auto`
///   fits (ε = 1, seed 77) of `us_census(100_000, 7)` and
///   `brazil_census(100_000, 7)` at [`CENSUS_WINDOW_OFFSETS`] and workers
///   {1, 3};
/// * [`CopulaSampler::sample_columns`](dpcopula::sampler::CopulaSampler::sample_columns)
///   of the US model's released matrix and margins, 20,000 rows on
///   `StdRng::seed_from_u64(5)`.
///
/// Each stream is its columns as `u32` little-endian.
fn census_streams() -> Vec<(String, Vec<u8>)> {
    use datagen::census::{brazil_census, us_census};
    use dpcopula::empirical::MarginalDistribution;
    use dpcopula::sampler::CopulaSampler;
    use dpcopula::SamplingProfile;

    let fit = |data: datagen::Dataset| {
        let (model, _) = SynthesisRequest::from_config(
            data.columns(),
            &data.domains(),
            DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap()),
        )
        .seed(77)
        .fit()
        .unwrap();
        model
    };
    let us = fit(us_census(100_000, 7));
    let brazil = fit(brazil_census(100_000, 7));
    let mut streams = Vec::new();
    for model in [&us, &brazil] {
        for offset in CENSUS_WINDOW_OFFSETS {
            for workers in [1, 3] {
                let window = model
                    .try_sample_range_profiled(
                        SamplingProfile::Reference,
                        offset,
                        CENSUS_WINDOW_ROWS,
                        workers,
                    )
                    .unwrap();
                streams.push(u32s(&window));
            }
        }
    }
    let artifact = us.artifact();
    let margins = artifact
        .margins
        .iter()
        .map(|counts| MarginalDistribution::from_noisy_histogram(counts))
        .collect();
    let sampler = CopulaSampler::new(&artifact.correlation, margins).unwrap();
    streams.push(u32s(
        &sampler.sample_columns(20_000, &mut StdRng::seed_from_u64(5)),
    ));
    census_pins().into_iter().zip(streams).collect()
}

#[test]
fn census_reference_streams_match_their_pinned_digests() {
    assert_digests_pinned(&census_streams());
}
