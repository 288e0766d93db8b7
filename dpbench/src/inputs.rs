//! Workload inputs, all derived from the run's `--seed`, and the
//! in-process reference fits the correctness checks compare the
//! program's outputs against.

use datagen::{Dataset, DatasetSource};
use dpcopula::{fit_shard, merge_shards, DpCopulaConfig, EngineOptions, FittedModel};
use dpcopula::{DpCopulaError, SynthesisRequest};
use dpmech::Epsilon;
use obskit::MetricsSink;

use crate::trace::Tracer;

/// ε of every fit the benchmark asks for.
pub const EPSILON: f64 = 1.0;

/// Input sizes of one run. `--smoke` scales every size down; the
/// checks stay the same.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Training rows of the model the sample workloads serve.
    pub train_rows: usize,
    /// Rows per `sample-small` window.
    pub small_rows: usize,
    /// Rows per `sample-bulk` window.
    pub bulk_rows: usize,
    /// Training rows per `fit-http` CSV body.
    pub fit_rows: usize,
    /// Rows of the `fit-sharded` training CSV.
    pub sharded_rows: usize,
    /// Rows of the post-run probe window.
    pub probe_rows: usize,
    /// Range-count queries of the utility check.
    pub queries: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Scale {
    pub fn full() -> Self {
        Self {
            train_rows: 100_000,
            small_rows: 256,
            bulk_rows: 200_000,
            fit_rows: 8_000,
            sharded_rows: 400_000,
            probe_rows: 100_000,
            queries: 500,
            setup_reps: 21,
        }
    }

    pub fn smoke() -> Self {
        Self {
            train_rows: 10_000,
            small_rows: 256,
            bulk_rows: 20_000,
            fit_rows: 2_000,
            sharded_rows: 40_000,
            probe_rows: 10_000,
            queries: 200,
            setup_reps: 1,
        }
    }
}

/// A seed for one purpose of one run: SplitMix64's finalizer over the
/// run seed and a tag. Capped at 2^32 so it survives a JSON number.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) & 0xffff_ffff
}

/// One training set as the daemon receives it, with the model the
/// daemon must release for it.
pub struct FitInput {
    pub dataset: Dataset,
    pub csv: Vec<u8>,
    pub seed: u64,
    pub model: FittedModel,
    pub checksum: u64,
}

impl FitInput {
    pub fn new(dataset: Dataset, seed: u64) -> Self {
        let mut csv = Vec::new();
        datagen::io::write_csv(&dataset, &mut csv).expect("encoding csv into memory");
        // Fit what the daemon will parse, not the generator's dataset.
        let parsed = datagen::io::read_csv(&csv[..]).expect("re-reading generated csv");
        let model = daemon_fit(&parsed, seed, &MetricsSink::off()).expect("reference fit");
        let checksum = model.artifact().checksum();
        Self {
            dataset: parsed,
            csv,
            seed,
            model,
            checksum,
        }
    }
}

/// The fit `POST /v1/fit` runs on a parsed CSV body: Kendall config,
/// default engine options, the request's seed, CSV header names.
pub fn daemon_fit(
    dataset: &Dataset,
    seed: u64,
    sink: &MetricsSink,
) -> Result<FittedModel, DpCopulaError> {
    let domains = dataset.domains();
    let config = DpCopulaConfig::kendall(Epsilon::new(EPSILON).expect("valid epsilon"));
    let (mut model, _) = SynthesisRequest::from_config(dataset.columns(), &domains, config)
        .seed(seed)
        .metrics(sink.clone())
        .fit()?;
    name_like(&mut model, dataset);
    Ok(model)
}

fn name_like(model: &mut FittedModel, dataset: &Dataset) {
    let names: Vec<&str> = dataset
        .attributes()
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    model.set_attribute_names(&names);
}

/// Engine options of the `fit-sharded` library caller.
pub fn sharded_options() -> EngineOptions {
    EngineOptions {
        workers: 2,
        shards: 4,
        ..EngineOptions::default()
    }
}

/// One `fit-sharded` operation: `SynthesisRequest::fit()` over resident
/// columns with [`sharded_options`].
pub fn sharded_fit(dataset: &Dataset, seed: u64) -> Result<FittedModel, DpCopulaError> {
    let domains = dataset.domains();
    let config = DpCopulaConfig::kendall(Epsilon::new(EPSILON).expect("valid epsilon"));
    let (mut model, _) = SynthesisRequest::from_config(dataset.columns(), &domains, config)
        .engine(sharded_options())
        .seed(seed)
        .fit()?;
    name_like(&mut model, dataset);
    Ok(model)
}

/// The rows of each shard of [`sharded_options`]'s partition.
pub fn shard_parts(dataset: &Dataset) -> Vec<Dataset> {
    dpcopula::shard::shard_specs(dataset.len(), sharded_options().shards)
        .iter()
        .map(|spec| {
            let columns = dataset
                .columns()
                .iter()
                .map(|c| c[spec.start..spec.end].to_vec())
                .collect();
            Dataset::new(dataset.attributes().to_vec(), columns)
        })
        .collect()
}

/// The same fit as [`sharded_fit`], as `fit_shard` per shard plus
/// `merge_shards`: one `replay.request` span of `tracer` for request
/// `request`, with a child span per call.
pub fn shard_then_merge(
    parts: &[Dataset],
    total_rows: usize,
    seed: u64,
    tracer: &mut Tracer,
    request: u64,
) -> Result<FittedModel, DpCopulaError> {
    let config = DpCopulaConfig::kendall(Epsilon::new(EPSILON).expect("valid epsilon"));
    let opts = sharded_options();
    let off = MetricsSink::off();
    // Copying the shard rows into sources is harness work, kept outside
    // the request span.
    let mut sources: Vec<DatasetSource> = parts.iter().cloned().map(DatasetSource::new).collect();
    let root = tracer.open("replay.request", None, request);
    let mut artifacts = Vec::with_capacity(parts.len());
    let mut merged = Err(DpCopulaError::EmptyInput);
    for (i, source) in sources.iter_mut().enumerate() {
        match tracer.time("core.fit_shard", Some(root), request, || {
            fit_shard(
                source,
                &config,
                i,
                parts.len(),
                total_rows,
                seed,
                &opts,
                &off,
            )
        }) {
            Ok(artifact) => artifacts.push((format!("shard-{i}.dpcs"), artifact)),
            Err(e) => {
                merged = Err(e);
                break;
            }
        }
    }
    if artifacts.len() == parts.len() {
        merged = tracer.time("core.merge_shards", Some(root), request, || {
            merge_shards(&artifacts, opts.workers, &off)
        });
    }
    tracer.close(root);
    merged
}
