//! The distributed-fit correctness anchor: `fit_shard × N` +
//! `merge_shards` must release a model **byte-identical** to the
//! single-process `fit --shards N` at the same seeds, the streaming
//! `RowSource` fit must be byte-identical to the eager fit, and every
//! merge-misuse path must surface a named error (never a panic).

use datagen::{Attribute, Block, CsvFileSource, Dataset, DatasetSource, RowSource, SourceError};
use dpcopula::kendall::SamplingStrategy;
use dpcopula::mle::PartitionStrategy;
use dpcopula::synthesizer::DpCopulaConfig;
use dpcopula::{
    distfit, CorrelationMethod, DpCopulaError, EngineOptions, FittedModel, SamplingProfile,
    SynthesisRequest,
};
use dpmech::Epsilon;
use obskit::MetricsSink;
use rngkit::rngs::StdRng;
use rngkit::{Rng, SeedableRng};

fn off() -> MetricsSink {
    MetricsSink::off()
}

fn test_columns(m: usize, n: usize, domain: u32, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let base: Vec<u32> = (0..n).map(|_| rng.gen_range(0..domain)).collect();
    (0..m)
        .map(|j| {
            base.iter()
                .map(|&v| (v + rng.gen_range(0..domain / 4) + j as u32) % domain)
                .collect()
        })
        .collect()
}

fn test_dataset(m: usize, n: usize, domain: u32, seed: u64) -> Dataset {
    let columns = test_columns(m, n, domain, seed);
    let attributes = (0..m)
        .map(|j| Attribute::new(format!("attr{j}"), domain as usize))
        .collect();
    Dataset::new(attributes, columns)
}

/// The single-process fit on resident columns, named like the dataset.
fn eager_fit(
    dataset: &Dataset,
    config: DpCopulaConfig,
    seed: u64,
    opts: EngineOptions,
) -> FittedModel {
    let (mut model, _) =
        SynthesisRequest::from_config(dataset.columns(), &dataset.domains(), config)
            .engine(opts)
            .seed(seed)
            .fit()
            .unwrap();
    let names: Vec<&str> = dataset
        .attributes()
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    model.set_attribute_names(&names);
    model
}

/// The single-process fit reading a streaming source.
fn streamed_fit(
    source: impl RowSource,
    config: DpCopulaConfig,
    seed: u64,
    opts: EngineOptions,
) -> Result<FittedModel, DpCopulaError> {
    SynthesisRequest::from_source_config(source, config)
        .engine(opts)
        .seed(seed)
        .fit()
        .map(|(model, _)| model)
}

fn window(model: &FittedModel, offset: usize, n: usize, workers: usize) -> Vec<Vec<u32>> {
    model
        .try_sample_range_profiled(SamplingProfile::Reference, offset, n, workers)
        .unwrap()
}

/// Hides a source's rewind capability, so the fit must buffer its
/// blocks on the counting pass and replay them.
struct OnePass<S>(S);

impl<S: RowSource> RowSource for OnePass<S> {
    fn attributes(&self) -> &[Attribute] {
        self.0.attributes()
    }
    fn rewindable(&self) -> bool {
        false
    }
    fn next_block(&mut self) -> Result<Option<Block>, SourceError> {
        self.0.next_block()
    }
    fn rewind(&mut self) -> Result<(), SourceError> {
        Err(SourceError::NotRewindable)
    }
}

/// Runs `fit_shard` for every shard of `dataset` under `shards`, each
/// from its own `DatasetSource` slice — the in-test stand-in for N
/// separate worker processes.
fn fit_all_shards(
    dataset: &Dataset,
    config: &DpCopulaConfig,
    shards: usize,
    base_seed: u64,
    opts: &EngineOptions,
) -> Vec<(String, modelstore::ShardArtifact)> {
    let n = dataset.len();
    let specs = dpcopula::shard::shard_specs(n, shards);
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let part_cols: Vec<Vec<u32>> = dataset
                .columns()
                .iter()
                .map(|col| col[spec.start..spec.end].to_vec())
                .collect();
            let part = Dataset::new(dataset.attributes().to_vec(), part_cols);
            let mut source = DatasetSource::new(part);
            let artifact =
                distfit::fit_shard(&mut source, config, i, shards, n, base_seed, opts, &off())
                    .unwrap();
            (format!("part{i}.dpcs"), artifact)
        })
        .collect()
}

#[test]
fn fit_shard_plus_merge_matches_in_process_sharded_fit_bytewise() {
    let dataset = test_dataset(3, 2_003, 32, 7);
    let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
    for shards in [1usize, 4] {
        let mut opts = EngineOptions::with_workers(2);
        opts.shards = shards;

        // Reference: the single-process sharded fit on resident columns.
        let reference = eager_fit(&dataset, config, 42, opts);

        // Distributed: N fit-shard workers + one merge.
        let parts = fit_all_shards(&dataset, &config, shards, 42, &opts);
        let merged = distfit::merge_shards(&parts, 2, &off()).unwrap();

        assert_eq!(
            merged.artifact().encode(),
            reference.artifact().encode(),
            "shards={shards}: merged .dpcm bytes differ from fit --shards"
        );
        // And the served rows agree (follows from artifact equality, but
        // pins the whole serve path too).
        assert_eq!(
            window(&merged, 0, 500, 3),
            window(&reference, 0, 500, 1),
            "shards={shards}"
        );
    }
}

#[test]
fn fit_shard_identity_holds_under_record_sampling_and_other_margins() {
    // Fixed-k subsampling exercises the per-shard shuffle plan; the
    // margin registry name rides through the `.dpcs` config section.
    let dataset = test_dataset(3, 1_501, 24, 11);
    let mut config = DpCopulaConfig::kendall(Epsilon::new(2.0).unwrap());
    config.method = CorrelationMethod::Kendall(SamplingStrategy::Fixed(400));
    let config = config.with_margin(dpcopula::MarginMethod::Privelet);
    let mut opts = EngineOptions::with_workers(3);
    opts.shards = 4;
    let reference = eager_fit(&dataset, config, 9, opts);

    let parts = fit_all_shards(&dataset, &config, 4, 9, &opts);
    let merged = distfit::merge_shards(&parts, 1, &off()).unwrap();
    assert_eq!(merged.artifact().encode(), reference.artifact().encode());
}

#[test]
fn dpcs_artifacts_round_trip_through_disk() {
    let dataset = test_dataset(2, 407, 16, 3);
    let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
    let mut opts = EngineOptions::with_workers(1);
    opts.shards = 2;
    let parts = fit_all_shards(&dataset, &config, 2, 5, &opts);

    let dir = std::env::temp_dir().join(format!("dpcs_roundtrip_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let loaded: Vec<(String, modelstore::ShardArtifact)> = parts
        .iter()
        .map(|(name, artifact)| {
            let path = dir.join(name);
            artifact.save(&path).unwrap();
            (
                name.clone(),
                modelstore::ShardArtifact::load(&path).unwrap(),
            )
        })
        .collect();
    for ((_, a), (_, b)) in parts.iter().zip(&loaded) {
        assert_eq!(a, b);
    }
    let from_disk = distfit::merge_shards(&loaded, 2, &off()).unwrap();
    let from_memory = distfit::merge_shards(&parts, 2, &off()).unwrap();
    assert_eq!(
        from_disk.artifact().encode(),
        from_memory.artifact().encode()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn streaming_source_fit_matches_eager_fit_bytewise() {
    // The resident and streamed fits share one reducer, so every block
    // size (1 row, odd, larger than the input), every Kendall subsample
    // strategy and every shard count must release the eager bytes —
    // from a rewindable source and from a buffered one-pass source.
    let dataset = test_dataset(3, 1_200, 20, 13);
    let mut cases: Vec<(CorrelationMethod, usize)> = Vec::new();
    for strategy in [
        SamplingStrategy::Auto,
        SamplingStrategy::Full,
        SamplingStrategy::Fixed(300),
    ] {
        for shards in [1usize, 3] {
            cases.push((CorrelationMethod::Kendall(strategy), shards));
        }
    }
    // Estimators without a mergeable summary read the raw records.
    cases.push((CorrelationMethod::Spearman, 1));
    cases.push((CorrelationMethod::Mle(PartitionStrategy::Fixed(40)), 1));
    for (method, shards) in cases {
        let mut config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
        config.method = method;
        let mut opts = EngineOptions::with_workers(2);
        opts.shards = shards;
        let eager = eager_fit(&dataset, config, 21, opts).artifact().encode();
        for block_rows in [1usize, 97, 8192] {
            let source = DatasetSource::with_block_rows(dataset.clone(), block_rows);
            let streamed = streamed_fit(source.clone(), config, 21, opts).unwrap();
            assert_eq!(
                streamed.artifact().encode(),
                eager,
                "{method:?} shards={shards} block_rows={block_rows}"
            );
            let one_pass = streamed_fit(OnePass(source), config, 21, opts).unwrap();
            assert_eq!(
                one_pass.artifact().encode(),
                eager,
                "one-pass {method:?} shards={shards} block_rows={block_rows}"
            );
        }
    }
}

#[test]
fn streaming_csv_source_fit_matches_eager_fit_bytewise() {
    // The CSV file source is the out-of-core ingestion the CLI and the
    // daemon use; its parse must feed the exact same values.
    let dataset = test_dataset(2, 803, 12, 17);
    let dir = std::env::temp_dir().join(format!("distfit_csv_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("input.csv");
    datagen::io::save_csv(&dataset, &path).unwrap();

    let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
    let opts = EngineOptions::with_workers(2);
    let eager = eager_fit(&dataset, config, 5, opts);
    let source = CsvFileSource::open_with_block_rows(&path, 128).unwrap();
    let streamed = streamed_fit(source, config, 5, opts).unwrap();
    assert_eq!(streamed.artifact().encode(), eager.artifact().encode());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn source_request_surface_matches_eager_request_bytewise() {
    let dataset = test_dataset(3, 900, 16, 23);
    let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());

    // run(): released synthesis identical.
    let (eager, _) = SynthesisRequest::from_config(dataset.columns(), &dataset.domains(), config)
        .seed(31)
        .workers(2)
        .run()
        .unwrap();
    let (streamed, _) =
        SynthesisRequest::from_source_config(DatasetSource::new(dataset.clone()), config)
            .seed(31)
            .workers(2)
            .run()
            .unwrap();
    assert_eq!(streamed.columns, eager.columns);
    assert_eq!(streamed.correlation, eager.correlation);
    assert_eq!(streamed.noisy_margins, eager.noisy_margins);

    // A rewindable source backs repeated runs.
    let request = SynthesisRequest::from_source_config(DatasetSource::new(dataset.clone()), config)
        .seed(31)
        .workers(2);
    let (a, _) = request.run().unwrap();
    let (b, _) = request.run().unwrap();
    assert_eq!(a.columns, b.columns);

    // fit() through a source names the schema from the source.
    let (model, _) = SynthesisRequest::from_source_config(DatasetSource::new(dataset), config)
        .seed(31)
        .fit()
        .unwrap();
    let got: Vec<&str> = model
        .artifact()
        .schema
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    assert_eq!(got, vec!["attr0", "attr1", "attr2"]);
}

#[test]
fn fit_shard_misuse_returns_named_errors() {
    let dataset = test_dataset(2, 100, 8, 29);
    let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
    let opts = EngineOptions::default();

    let mut source = DatasetSource::new(dataset.clone());
    assert_eq!(
        distfit::fit_shard(&mut source, &config, 0, 0, 100, 1, &opts, &off()).unwrap_err(),
        DpCopulaError::ZeroShards
    );
    let mut source = DatasetSource::new(dataset.clone());
    assert_eq!(
        distfit::fit_shard(&mut source, &config, 4, 4, 100, 1, &opts, &off()).unwrap_err(),
        DpCopulaError::ShardIndexOutOfRange {
            index: 4,
            shards: 4
        }
    );
    let mut source = DatasetSource::new(dataset.clone());
    assert_eq!(
        distfit::fit_shard(&mut source, &config, 0, 101, 100, 1, &opts, &off()).unwrap_err(),
        DpCopulaError::TooManyShards {
            shards: 101,
            records: 100
        }
    );
    // The part holds all 100 rows but shard 0 of 4 covers only 25.
    let mut source = DatasetSource::new(dataset.clone());
    assert_eq!(
        distfit::fit_shard(&mut source, &config, 0, 4, 100, 1, &opts, &off()).unwrap_err(),
        DpCopulaError::ShardRowCountMismatch {
            expected: 25,
            found: 100
        }
    );
    // Non-mergeable estimators are refused up front.
    let mut mle = config;
    mle.method = CorrelationMethod::Mle(dpcopula::mle::PartitionStrategy::Fixed(10));
    let mut source = DatasetSource::new(dataset);
    assert_eq!(
        distfit::fit_shard(&mut source, &mle, 0, 1, 100, 1, &opts, &off()).unwrap_err(),
        DpCopulaError::ShardedCorrelationUnsupported { method: "mle" }
    );
}

#[test]
fn merge_misuse_names_the_culprit_file() {
    let dataset = test_dataset(2, 403, 8, 37);
    let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
    let mut opts = EngineOptions::with_workers(1);
    opts.shards = 3;
    let parts = fit_all_shards(&dataset, &config, 3, 2, &opts);

    // Wrong artifact count vs the declared shard count.
    assert_eq!(
        distfit::merge_shards(&parts[..2], 1, &off()).unwrap_err(),
        DpCopulaError::ShardCountMismatch {
            declared: 3,
            provided: 2
        }
    );

    // Duplicate shard index: replace part2 with a copy of part1.
    let mut dup = parts.clone();
    dup[2] = ("dup.dpcs".into(), parts[1].1.clone());
    assert_eq!(
        distfit::merge_shards(&dup, 1, &off()).unwrap_err(),
        DpCopulaError::DuplicateShardIndex {
            index: 1,
            file: "dup.dpcs".into()
        }
    );

    // Schema mismatch names the culprit file, not just "a mismatch".
    let mut alien = parts.clone();
    let mut bad = alien[1].1.clone();
    bad.schema[0] = modelstore::AttributeSpec::new("other", 9);
    alien[1] = ("alien.dpcs".into(), bad);
    match distfit::merge_shards(&alien, 1, &off()).unwrap_err() {
        DpCopulaError::ShardArtifactMismatch { file, reason } => {
            assert_eq!(file, "alien.dpcs");
            assert!(reason.contains("schema"), "{reason}");
        }
        other => panic!("unexpected error {other}"),
    }

    // Config mismatch (different ε) likewise.
    let mut skewed = parts.clone();
    let mut bad = skewed[2].1.clone();
    bad.config.epsilon = 2.0;
    skewed[2] = ("skewed.dpcs".into(), bad);
    match distfit::merge_shards(&skewed, 1, &off()).unwrap_err() {
        DpCopulaError::ShardArtifactMismatch { file, reason } => {
            assert_eq!(file, "skewed.dpcs");
            assert!(reason.contains("configuration"), "{reason}");
        }
        other => panic!("unexpected error {other}"),
    }

    // An empty merge set is refused.
    assert_eq!(
        distfit::merge_shards(&[], 1, &off()).unwrap_err(),
        DpCopulaError::EmptyInput
    );

    // A τ sample that is not the shard's share of the plan is refused by
    // name, even when the decoder accepts the file (it only checks that
    // the sample fits inside the shard).
    let reloaded = |artifact: &modelstore::ShardArtifact| {
        modelstore::ShardArtifact::decode(&artifact.encode()).unwrap()
    };
    let mut emptied: Vec<_> = parts.clone();
    for (_, artifact) in &mut emptied {
        artifact.sampled.iter_mut().for_each(Vec::clear);
        *artifact = reloaded(artifact);
    }
    match distfit::merge_shards(&emptied, 1, &off()).unwrap_err() {
        DpCopulaError::ShardArtifactMismatch { file, reason } => {
            assert_eq!(file, "part0.dpcs");
            assert!(reason.contains("holds 0 sampled rows"), "{reason}");
            assert!(reason.contains("samples 135"), "{reason}");
        }
        other => panic!("unexpected error {other}"),
    }
    // A part built in memory with a column missing from its sample.
    let mut narrow = parts.clone();
    narrow[1].1.sampled.pop();
    match distfit::merge_shards(&narrow, 1, &off()).unwrap_err() {
        DpCopulaError::ShardArtifactMismatch { file, reason } => {
            assert_eq!(file, "part1.dpcs");
            assert!(reason.contains("holds 1 sampled columns for 2"), "{reason}");
        }
        other => panic!("unexpected error {other}"),
    }
    let mut truncated = parts.clone();
    let cut = &mut truncated[1].1;
    cut.sampled.iter_mut().for_each(|col| col.truncate(3));
    *cut = reloaded(cut);
    match distfit::merge_shards(&truncated, 1, &off()).unwrap_err() {
        DpCopulaError::ShardArtifactMismatch { file, reason } => {
            assert_eq!(file, "part1.dpcs");
            assert!(reason.contains("holds 3 sampled rows"), "{reason}");
            assert!(reason.contains("samples 134"), "{reason}");
        }
        other => panic!("unexpected error {other}"),
    }
}

#[test]
fn dpcs_counts_that_miss_their_row_range_are_refused_by_file() {
    let dataset = test_dataset(2, 403, 8, 37);
    let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
    let mut opts = EngineOptions::with_workers(1);
    opts.shards = 3;
    let parts = fit_all_shards(&dataset, &config, 3, 2, &opts);
    let refusal = |parts: &[(String, modelstore::ShardArtifact)]| match distfit::merge_shards(
        parts,
        1,
        &off(),
    )
    .unwrap_err()
    {
        DpCopulaError::ShardArtifactMismatch { file, reason } => (file, reason),
        other => panic!("unexpected error {other}"),
    };

    // One row too many in part1's first margin: the decoder accepts the
    // `.dpcs` (the arity is right), the merge refuses it by name.
    let mut padded = parts.clone();
    let part = &mut padded[1].1;
    part.counts[0][3] += 1;
    *part = modelstore::ShardArtifact::decode(&part.encode()).unwrap();
    let (file, reason) = refusal(&padded);
    assert_eq!(file, "part1.dpcs");
    assert!(
        reason.contains("do not cover its 134 rows [135, 269)"),
        "{reason}"
    );

    // A margin missing from a part in memory, and one bin short.
    for cut in [
        |counts: &mut Vec<Vec<u64>>| {
            counts.pop();
        },
        |counts: &mut Vec<Vec<u64>>| {
            counts[1].pop();
        },
    ] {
        let mut short = parts.clone();
        cut(&mut short[2].1.counts);
        let (file, reason) = refusal(&short);
        assert_eq!(file, "part2.dpcs");
        assert!(
            reason.contains("over the schema's 2 attributes"),
            "{reason}"
        );
    }

    // A margin method the registry does not know.
    let mut alien: Vec<_> = parts.clone();
    for (_, artifact) in &mut alien {
        artifact.config.margin_method = "bogus".into();
    }
    let (file, reason) = refusal(&alien);
    assert_eq!(file, "part0.dpcs");
    assert!(reason.contains("unknown margin method `bogus`"), "{reason}");

    // The untouched set merges to the in-process fit.
    let merged = distfit::merge_shards(&parts, 1, &off()).unwrap();
    let reference = eager_fit(&dataset, config, 2, opts);
    assert_eq!(merged.artifact().encode(), reference.artifact().encode());
}

/// A deliberately misbehaving source: advertises a domain (4, unless
/// built with [`LyingSource::with_domains`]) but emits values past it.
/// `Dataset` can't represent this (its constructor validates), which is
/// exactly why the streaming fits must catch it themselves.
#[derive(Clone)]
struct LyingSource {
    attrs: Vec<Attribute>,
    blocks: Vec<Vec<Vec<u32>>>,
    next: usize,
}

impl LyingSource {
    fn new(blocks: Vec<Vec<Vec<u32>>>) -> Self {
        Self::with_domains(&[4, 4], blocks)
    }

    fn with_domains(domains: &[usize], blocks: Vec<Vec<Vec<u32>>>) -> Self {
        Self {
            attrs: domains
                .iter()
                .enumerate()
                .map(|(j, &d)| Attribute::new(format!("attr{j}"), d))
                .collect(),
            blocks,
            next: 0,
        }
    }

    fn rows(&self) -> usize {
        self.blocks.iter().map(|b| b[0].len()).sum()
    }
}

impl RowSource for LyingSource {
    fn attributes(&self) -> &[Attribute] {
        &self.attrs
    }
    fn rewindable(&self) -> bool {
        true
    }
    fn next_block(&mut self) -> Result<Option<Block>, SourceError> {
        let block = self.blocks.get(self.next).cloned().map(Block::new);
        self.next += 1;
        Ok(block)
    }
    fn rewind(&mut self) -> Result<(), SourceError> {
        self.next = 0;
        Ok(())
    }
}

#[test]
fn streaming_gather_validates_like_the_eager_path() {
    // Every input kind names the lowest attribute first, then the lowest
    // row, within the first block that has a violation — for resident
    // columns (one block) that is `validate_columns`' order.
    let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
    let opts = EngineOptions::default();
    let out_of_domain = |dim, value| DpCopulaError::ValueOutOfDomain {
        dim,
        value,
        domain: 4,
    };
    let cases = [
        (
            vec![vec![vec![0, 1, 2, 9], vec![0, 9, 2, 3]]],
            out_of_domain(0, 9),
        ),
        (
            vec![vec![vec![0, 1], vec![0, 7]], vec![vec![9, 1], vec![0, 1]]],
            out_of_domain(1, 7),
        ),
    ];
    for (blocks, expected) in cases {
        let source = LyingSource::new(blocks);
        let n = source.rows();

        let err = streamed_fit(source.clone(), config, 1, opts).unwrap_err();
        assert_eq!(err, expected, "fit from a source");

        let mut shard_source = source.clone();
        let err =
            distfit::fit_shard(&mut shard_source, &config, 0, 1, n, 1, &opts, &off()).unwrap_err();
        assert_eq!(err, expected, "fit_shard");

        // The whole input resident: one block.
        if source.blocks.len() == 1 {
            let columns = source.blocks[0].clone();
            let err = SynthesisRequest::from_config(&columns, &[4, 4], config)
                .fit()
                .unwrap_err();
            assert_eq!(err, expected, "fit from resident columns");
        }
    }
}

/// The fit's refusal of `columns` over `domains`, which must be the
/// same from resident columns (one block), from a source whose clean
/// block of the same length comes first, and from `fit_shard` over that
/// source.
fn refusal(columns: &[Vec<u32>], domains: &[usize]) -> DpCopulaError {
    let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
    let opts = EngineOptions::default();
    let resident = SynthesisRequest::from_config(columns, domains, config)
        .fit()
        .unwrap_err();
    let clean: Vec<Vec<u32>> = columns.iter().map(|c| vec![0; c.len()]).collect();
    let source = LyingSource::with_domains(domains, vec![clean, columns.to_vec()]);
    let n = source.rows();
    let streamed = streamed_fit(source.clone(), config, 1, opts).unwrap_err();
    assert_eq!(streamed, resident, "fit from a source");
    let mut shard_source = source;
    let shard = distfit::fit_shard(&mut shard_source, &config, 0, 1, n, 1, &opts, &off());
    assert_eq!(shard.unwrap_err(), resident, "fit_shard");
    resident
}

#[test]
fn every_counting_lane_refuses_out_of_domain_values() {
    // The reducer counts a small domain in four lanes, value i of each
    // run of four in lane i, plus a tail of len % 4 values; a sentinel
    // bin catches what misses the domain. At block lengths 8..=11 (every
    // residue mod 4) one bad value in any lane or in the tail, of either
    // attribute, is refused by name, value and domain.
    let out_of_domain = |dim, value, domain| DpCopulaError::ValueOutOfDomain { dim, value, domain };
    for len in 8..12 {
        for dim in 0..2 {
            for row in 0..len {
                let mut columns: Vec<Vec<u32>> = (0..2)
                    .map(|_| (0..len as u32).map(|i| i % 4).collect())
                    .collect();
                columns[dim][row] = 4 + row as u32;
                let want = out_of_domain(dim, 4 + row as u32, 4);
                assert_eq!(
                    refusal(&columns, &[4, 4]),
                    want,
                    "len {len} dim {dim} row {row}"
                );
            }
        }
        // Two offending attributes: the lowest names the refusal, even
        // when its bad value sits in a later row than the other's.
        let mut columns: Vec<Vec<u32>> = vec![vec![1; len]; 2];
        columns[0][len - 1] = 7;
        columns[1][0] = 9;
        assert_eq!(
            refusal(&columns, &[4, 4]),
            out_of_domain(0, 7, 4),
            "len {len}"
        );
        // Two offending rows of one column: the lowest row's value.
        let mut columns: Vec<Vec<u32>> = vec![vec![2; len]; 2];
        columns[1][len - 2] = 5;
        columns[1][len - 1] = 6;
        columns[1][1] = 8;
        assert_eq!(
            refusal(&columns, &[4, 4]),
            out_of_domain(1, 8, 4),
            "len {len}"
        );
        // Domain 1: only 0 is in it, and 1 already lands in the sentinel.
        let mut columns: Vec<Vec<u32>> = vec![vec![0; len]; 2];
        columns[1][len - 1] = 1;
        assert_eq!(
            refusal(&columns, &[1, 1]),
            out_of_domain(1, 1, 1),
            "len {len}"
        );
    }
}
