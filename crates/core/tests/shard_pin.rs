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
