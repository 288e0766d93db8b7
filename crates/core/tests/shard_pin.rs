//! Byte-identity pins for the sharded fit refactor.
//!
//! The fixtures under `tests/fixtures/` hold `.dpcm` bytes produced by
//! the **pre-shard** fit pipeline. The merge-path fit with `shards = 1`
//! must keep reproducing them bit for bit: the single-shard fit is the
//! 1-shard case of the merge path, not a separate code path, and this is
//! the test that holds that contract. Regenerate (only for an
//! intentional, documented format change) with `PIN_UPDATE=1`.

use dpcopula::engine::EngineOptions;
use dpcopula::kendall::SamplingStrategy;
use dpcopula::synthesizer::{CorrelationMethod, DpCopulaConfig, MarginMethod};
use dpcopula::SynthesisRequest;
use dpmech::Epsilon;
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

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Fits with the given config and compares the artifact bytes to the
/// named fixture (or rewrites it under `PIN_UPDATE=1`).
fn assert_pinned(config: DpCopulaConfig, opts: &EngineOptions, name: &str) {
    let (columns, domains) = dataset(3, 4_000, 20240601);
    let (model, _) = SynthesisRequest::from_config(&columns, &domains, config)
        .engine(*opts)
        .seed(77)
        .fit()
        .unwrap();
    let bytes = model.artifact().encode();
    let path = fixture_path(name);
    if std::env::var("PIN_UPDATE")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        return;
    }
    let pinned = std::fs::read(&path).unwrap_or_else(|e| panic!("fixture {name} missing: {e}"));
    assert_eq!(
        bytes, pinned,
        "{name}: fit output drifted from the pre-shard pipeline bytes"
    );
}

#[test]
fn one_shard_kendall_fit_matches_pre_shard_bytes() {
    let mut config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
    config.method = CorrelationMethod::Kendall(SamplingStrategy::Auto);
    assert_pinned(config, &EngineOptions::default(), "pin_kendall_auto.dpcm");
}

#[test]
fn one_shard_kendall_full_fit_matches_pre_shard_bytes() {
    let mut config =
        DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap()).with_margin(MarginMethod::Privelet);
    config.method = CorrelationMethod::Kendall(SamplingStrategy::Full);
    assert_pinned(config, &EngineOptions::default(), "pin_kendall_full.dpcm");
}

#[test]
fn one_shard_spearman_fit_matches_pre_shard_bytes() {
    let mut config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
    config.method = CorrelationMethod::Spearman;
    assert_pinned(config, &EngineOptions::default(), "pin_spearman.dpcm");
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

#[test]
fn sharded_streams_match_their_pinned_digests() {
    let rendered: String = sharded_streams()
        .iter()
        .map(|(name, bytes)| {
            let hash = modelstore::crc32::fnv1a64(bytes);
            format!("{name} {hash:016x} {}\n", bytes.len())
        })
        .collect();
    let path = fixture_path("sharded_pins.txt");
    if std::env::var("PIN_UPDATE")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let pinned = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture sharded_pins.txt missing: {e}"));
    for (want, got) in pinned.lines().zip(rendered.lines()) {
        assert_eq!(got, want, "sharded stream drifted from its pinned digest");
    }
    assert_eq!(
        rendered.lines().count(),
        pinned.lines().count(),
        "sharded_pins.txt lists a different set of streams"
    );
}
