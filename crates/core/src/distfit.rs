//! Distributed out-of-core fit: one process per shard, a coordinator
//! merge, and the streaming ingestion that feeds both.
//!
//! The fit phase reduces to per-shard pieces — exact margin counts and a
//! share of the τ record sample ([`crate::shard`]) — so it splits across
//! processes with no loss of exactness:
//!
//! * [`fit_shard`] reduces **one shard's** part of the input (a
//!   [`RowSource`] holding exactly that shard's rows) into a durable
//!   [`ShardArtifact`] (`.dpcs`): its exact counts per attribute and its
//!   share of the τ sample, drawn from the stream the in-process sharded
//!   fit would use. It draws no noise and releases nothing;
//! * [`merge_shards`] validates a complete set of `.dpcs` artifacts and
//!   folds them into a served [`FittedModel`] — summing the artifacts'
//!   counts and publishing each margin once, pooling their τ samples in
//!   shard order for the one Kendall pass, then running the in-process
//!   fold — so `fit_shard × N` + `merge_shards` releases a `.dpcm`
//!   **byte-identical** to the single-process `fit --shards N` at the
//!   same seeds (pinned in `tests/distfit_identity.rs`);
//! * `CountedSource` is the counting pass the in-process fit makes
//!   over a [`RowSource`] before its reducing pass: block memory stays
//!   bounded by the source's chunk size.
//!
//! Both fits reduce their rows with the one `shard::RowReducer` of the
//! in-process fit, and the merge publishes and folds with its
//! `engine::publish_margins` and `engine::fold_summaries`.
//!
//! The ε accounting of the merge is the in-process fit's (DESIGN.md §12,
//! restated for the wire formats in §14): every noise draw happens once,
//! at merge time, on the pooled counts and the pooled sample.

use crate::engine::{fold_summaries, publish_margins, BudgetPlan, EngineOptions};
use crate::error::DpCopulaError;
use crate::kendall::{self, SamplingStrategy};
use crate::model::{assemble_artifact, ArtifactMeta, FittedModel, STREAM_SCHEME};
use crate::shard::{self, RowReducer};
use crate::synthesizer::{CorrelationMethod, DpCopulaConfig};
use datagen::{Block, RowSource};
use dphist::MarginRegistry;
use dpmech::Epsilon;
use mathkit::Matrix;
use modelstore::{AttributeSpec, SamplingSpec, ShardArtifact, ShardFitConfig};
use obskit::names::ENGINE_SHARDS;
use obskit::{MetricsSink, Stopwatch, Unit, SPAN_NS};

/// Maps the typed sampling strategy onto its `.dpcs` wire form.
fn sampling_spec(strategy: SamplingStrategy) -> SamplingSpec {
    match strategy {
        SamplingStrategy::Full => SamplingSpec::Full,
        SamplingStrategy::Auto => SamplingSpec::Auto,
        SamplingStrategy::Fixed(k) => SamplingSpec::Fixed(k as u64),
    }
}

/// Maps a `.dpcs` sampling spec back onto the typed strategy. A fixed
/// target past `usize` saturates, which the row count caps anyway.
fn sampling_strategy(spec: SamplingSpec) -> SamplingStrategy {
    match spec {
        SamplingSpec::Full => SamplingStrategy::Full,
        SamplingSpec::Auto => SamplingStrategy::Auto,
        SamplingSpec::Fixed(k) => SamplingStrategy::Fixed(usize::try_from(k).unwrap_or(usize::MAX)),
    }
}

/// A [`RowSource`] after the counting pass of a two-pass fit: its row
/// count, plus the blocks a one-pass source had to buffer so the
/// reducing pass can read them again ([`RowSource::rewindable`] is the
/// capability contract).
pub(crate) struct CountedSource<'a> {
    source: &'a mut dyn RowSource,
    buffered: Option<Vec<Block>>,
    /// Rows the source holds.
    pub rows: usize,
}

impl<'a> CountedSource<'a> {
    /// The counting pass. A rewindable source holds one block at a time;
    /// a one-pass source keeps every block for the replay.
    pub(crate) fn count(source: &'a mut dyn RowSource) -> Result<Self, DpCopulaError> {
        let mut buffered = (!source.rewindable()).then(Vec::new);
        let mut rows = 0;
        while let Some(block) = source.next_block()? {
            rows += block.rows();
            if let Some(blocks) = buffered.as_mut() {
                blocks.push(block);
            }
        }
        Ok(Self {
            source,
            buffered,
            rows,
        })
    }

    /// The second pass: hands every block's columns to `each`, in order,
    /// dropping each buffered block once it has been read.
    pub(crate) fn replay(
        self,
        mut each: impl FnMut(&[Vec<u32>]) -> Result<(), DpCopulaError>,
    ) -> Result<(), DpCopulaError> {
        match self.buffered {
            Some(blocks) => {
                for block in blocks {
                    each(block.columns())?;
                }
            }
            None => {
                self.source.rewind()?;
                while let Some(block) = self.source.next_block()? {
                    each(block.columns())?;
                }
            }
        }
        Ok(())
    }
}

/// Reduces **one shard** of a distributed fit from a streaming source
/// holding exactly that shard's rows, producing the durable
/// [`ShardArtifact`] the coordinator's [`merge_shards`] consumes: the
/// shard's exact counts per attribute and its share of the τ sample.
///
/// `total_rows` is the *global* row count of the whole fit — the
/// subsample plan and the τ sensitivity depend on it, so every worker
/// must be told the same value the coordinator split the input by. The
/// shard's slot of `shard_specs(total_rows, shards)` determines how many
/// rows `source` must hold; a different count is refused with
/// [`DpCopulaError::ShardRowCountMismatch`] because the merged release
/// would silently diverge from the single-process fit.
///
/// The shard draws no noise and spends no budget. Its τ subsample comes
/// from `STREAM_KENDALL_SAMPLE[shard_index]` — exactly the stream the
/// in-process `fit --shards N` assigns this shard, which is what makes
/// the distributed release byte-identical. The budget is still checked
/// here, so a worker refuses a plan the merge would refuse. Only the
/// Kendall estimator has a mergeable summary; anything else is refused
/// with [`DpCopulaError::ShardedCorrelationUnsupported`].
#[allow(clippy::too_many_arguments)]
pub fn fit_shard(
    source: &mut dyn RowSource,
    config: &DpCopulaConfig,
    shard_index: usize,
    shards: usize,
    total_rows: usize,
    base_seed: u64,
    opts: &EngineOptions,
    sink: &MetricsSink,
) -> Result<ShardArtifact, DpCopulaError> {
    let watch = Stopwatch::start();
    let attrs = source.attributes().to_vec();
    let m = attrs.len();
    if m == 0 || total_rows == 0 {
        return Err(DpCopulaError::EmptyInput);
    }
    if shards == 0 {
        return Err(DpCopulaError::ZeroShards);
    }
    if shard_index >= shards {
        return Err(DpCopulaError::ShardIndexOutOfRange {
            index: shard_index,
            shards,
        });
    }
    if shards > total_rows {
        return Err(DpCopulaError::TooManyShards {
            shards,
            records: total_rows,
        });
    }
    if m > 1 && total_rows < 2 {
        return Err(DpCopulaError::TooFewRecords {
            records: total_rows,
            required: 2,
        });
    }
    let strategy = match config.method {
        CorrelationMethod::Kendall(strategy) => strategy,
        CorrelationMethod::Mle(_) => {
            return Err(DpCopulaError::ShardedCorrelationUnsupported { method: "mle" })
        }
        CorrelationMethod::Spearman => {
            return Err(DpCopulaError::ShardedCorrelationUnsupported { method: "spearman" })
        }
    };
    let plan = BudgetPlan::new(config.epsilon, config.k_ratio, m, false)?;
    let domains: Vec<usize> = attrs.iter().map(|a| a.domain).collect();
    let specs = shard::shard_specs(total_rows, shards);
    let spec = specs[shard_index];
    sink.gauge_set(ENGINE_SHARDS, Unit::Info, shards as u64);

    // One streaming pass through the fit's row reducer. The shard's slot
    // of the global subsample plan is a pure function of (total_rows, m,
    // strategy, seed), so no counting pass is needed; block memory stays
    // bounded by the source's chunk size.
    let target = (m > 1).then(|| {
        let target = shard::kendall_sample_target(m, total_rows, strategy, plan.eps2);
        shard::partition_sample_target(target, &specs)[shard_index]
    });
    let workers = opts.workers.max(1);
    let mut reducer = RowReducer::new(
        &domains,
        &[spec],
        target.as_ref().map(std::slice::from_ref),
        base_seed,
        workers,
    );
    while let Some(block) = source.next_block()? {
        reducer.push(block.columns(), workers)?;
    }
    if reducer.rows() != spec.len() {
        return Err(DpCopulaError::ShardRowCountMismatch {
            expected: spec.len(),
            found: reducer.rows(),
        });
    }
    let (counts, sampled) = reducer.finish();

    if sink.enabled() {
        sink.observe_labeled(
            SPAN_NS,
            &[("span", "pipeline/shard_fit")],
            Unit::Nanos,
            watch.elapsed_ns(),
        );
    }

    Ok(ShardArtifact {
        schema: attrs
            .iter()
            .map(|a| AttributeSpec::new(a.name.clone(), a.domain))
            .collect(),
        shard_index: shard_index as u64,
        shard_count: shards as u64,
        total_rows: total_rows as u64,
        row_start: spec.start as u64,
        row_end: spec.end as u64,
        seed_index: spec.seed_index,
        config: ShardFitConfig {
            epsilon: config.epsilon.value(),
            k_ratio: config.k_ratio,
            margin_method: config.margin.registry_name().to_string(),
            strategy: sampling_spec(strategy),
            base_seed,
            sample_chunk: opts.sample_chunk.max(1) as u64,
            scheme: STREAM_SCHEME.into(),
        },
        counts,
        // One attribute has no pairs, so no τ sample.
        sampled: if m > 1 { sampled } else { Vec::new() },
    })
}

/// Validates that `artifact` agrees with the merge set's first artifact
/// on everything the merge depends on, naming the culprit file.
fn check_compatible(
    first: &ShardArtifact,
    first_file: &str,
    artifact: &ShardArtifact,
    file: &str,
) -> Result<(), DpCopulaError> {
    let mismatch = |reason: String| DpCopulaError::ShardArtifactMismatch {
        file: file.to_string(),
        reason,
    };
    if artifact.schema != first.schema {
        return Err(mismatch(format!("schema differs from {first_file}")));
    }
    if artifact.config != first.config {
        return Err(mismatch(format!(
            "fit configuration differs from {first_file}"
        )));
    }
    if artifact.shard_count != first.shard_count {
        return Err(mismatch(format!(
            "declares {} shards but {first_file} declares {}",
            artifact.shard_count, first.shard_count
        )));
    }
    if artifact.total_rows != first.total_rows {
        return Err(mismatch(format!(
            "declares {} total rows but {first_file} declares {}",
            artifact.total_rows, first.total_rows
        )));
    }
    Ok(())
}

/// Merges a complete set of `.dpcs` shard artifacts into a served
/// [`FittedModel`] — the coordinator half of the distributed fit.
///
/// `artifacts` pairs each decoded artifact with the path it came from
/// (used verbatim in error messages); order does not matter. The set
/// must be complete and consistent: exactly the declared shard count,
/// no duplicate shard indices, and agreement on schema, fit
/// configuration, total rows, the row partition, counts that cover
/// exactly each shard's rows and each shard's share of the τ sample —
/// each violation is a named [`DpCopulaError`] identifying the culprit
/// file.
///
/// The merge sums the artifacts' counts and publishes each margin once,
/// as the in-process fit does; pools their τ samples in shard order and
/// runs the in-process Kendall pass over them — one rank-and-score
/// pass, one Laplace draw per attribute pair at the pooled sensitivity;
/// then runs its fold: the accountant and the positive-definite repair.
/// The resulting model therefore encodes to bytes identical to the
/// single-process sharded fit at the same seeds.
pub fn merge_shards(
    artifacts: &[(String, ShardArtifact)],
    workers: usize,
    sink: &MetricsSink,
) -> Result<FittedModel, DpCopulaError> {
    if artifacts.is_empty() {
        return Err(DpCopulaError::EmptyInput);
    }
    let (first_file, first) = &artifacts[0];
    let declared = first.shard_count as usize;
    if artifacts.len() != declared {
        return Err(DpCopulaError::ShardCountMismatch {
            declared,
            provided: artifacts.len(),
        });
    }
    let mut by_index: Vec<Option<&(String, ShardArtifact)>> = vec![None; declared];
    for pair in artifacts {
        let (file, artifact) = pair;
        check_compatible(first, first_file, artifact, file)?;
        let idx = artifact.shard_index as usize;
        // The decoder guarantees shard_index < shard_count, and
        // check_compatible pins shard_count — so idx is in range.
        if by_index[idx].is_some() {
            return Err(DpCopulaError::DuplicateShardIndex {
                index: idx,
                file: file.clone(),
            });
        }
        by_index[idx] = Some(pair);
    }
    // A full, duplicate-free set of in-range indices is a permutation.
    let ordered: Vec<&(String, ShardArtifact)> = by_index
        .into_iter()
        .map(|p| p.expect("pigeonhole: N distinct indices below N"))
        .collect();

    // The row partition must be the coordinator's split.
    let total_rows = first.total_rows as usize;
    let specs = shard::shard_specs(total_rows, declared);
    for (spec, (file, artifact)) in specs.iter().zip(&ordered) {
        if artifact.row_start as usize != spec.start
            || artifact.row_end as usize != spec.end
            || artifact.seed_index != spec.seed_index
        {
            return Err(DpCopulaError::ShardArtifactMismatch {
                file: file.clone(),
                reason: format!(
                    "covers rows [{}, {}) but shard {} of {} rows over {} shards is [{}, {})",
                    artifact.row_start,
                    artifact.row_end,
                    artifact.shard_index,
                    total_rows,
                    declared,
                    spec.start,
                    spec.end
                ),
            });
        }
    }

    // Each shard's counts must cover exactly its rows, one histogram
    // per schema attribute.
    for (file, artifact) in &ordered {
        let rows = Some(artifact.rows());
        let covers = artifact.counts.len() == first.schema.len()
            && artifact.counts.iter().zip(&first.schema).all(|(c, a)| {
                c.len() == a.domain && c.iter().try_fold(0u64, |sum, &n| sum.checked_add(n)) == rows
            });
        if !covers {
            return Err(DpCopulaError::ShardArtifactMismatch {
                file: file.clone(),
                reason: format!(
                    "margin counts do not cover its {} rows [{}, {}) over the schema's {} \
                     attributes",
                    artifact.rows(),
                    artifact.row_start,
                    artifact.row_end,
                    first.schema.len()
                ),
            });
        }
    }

    // The merge publishes the margins, so it must know their method.
    let conf = &first.config;
    if !MarginRegistry::builtin().contains(&conf.margin_method) {
        return Err(DpCopulaError::ShardArtifactMismatch {
            file: first_file.clone(),
            reason: format!("names unknown margin method `{}`", conf.margin_method),
        });
    }
    let epsilon = Epsilon::new(conf.epsilon)?;
    let m = first.schema.len();
    let plan = BudgetPlan::new(epsilon, conf.k_ratio, m, false)?;
    // Each τ sample must be its shard's share of the plan `fit_shard`
    // drew: anything else pools into a different statistic.
    if m > 1 {
        if total_rows < 2 {
            return Err(DpCopulaError::TooFewRecords {
                records: total_rows,
                required: 2,
            });
        }
        let strategy = sampling_strategy(conf.strategy);
        let target = shard::kendall_sample_target(m, total_rows, strategy, plan.eps2);
        let shares = shard::partition_sample_target(target, &specs);
        for (&share, (file, artifact)) in shares.iter().zip(&ordered) {
            if artifact.sampled.len() != m {
                return Err(DpCopulaError::ShardArtifactMismatch {
                    file: file.clone(),
                    reason: format!(
                        "holds {} sampled columns for {m} attributes",
                        artifact.sampled.len()
                    ),
                });
            }
            if let Some(column) = artifact.sampled.iter().find(|c| c.len() != share) {
                return Err(DpCopulaError::ShardArtifactMismatch {
                    file: file.clone(),
                    reason: format!(
                        "holds {} sampled rows but shard {} of the τ plan samples {share}",
                        column.len(),
                        artifact.shard_index
                    ),
                });
            }
        }
    }

    // The merge proper — the second half of the in-process fit. The
    // margin release and the τ pass count as summary building.
    let watch = Stopwatch::start();
    let mut pooled = ordered[0].1.counts.clone();
    for (_, artifact) in &ordered[1..] {
        for (sum, counts) in pooled.iter_mut().zip(&artifact.counts) {
            for (s, &c) in sum.iter_mut().zip(counts) {
                *s += c;
            }
        }
    }
    let noisy_margins = publish_margins(
        &pooled,
        &conf.margin_method,
        plan.eps1.divide(m),
        conf.base_seed,
        workers,
        sink,
    );
    let raw = if m == 1 {
        Matrix::identity(1)
    } else {
        let pooled = (0..m)
            .map(|j| {
                let parts: Vec<&[u32]> = ordered.iter().map(|(_, a)| &a.sampled[j][..]).collect();
                parts.concat()
            })
            .collect();
        kendall::dp_tau_matrix(pooled, plan.eps2, conf.base_seed, workers, sink)
    };
    let build_ns = watch.elapsed_ns();
    let parts = fold_summaries(noisy_margins, &specs, raw, &plan, build_ns, sink)?;
    let artifact = assemble_artifact(
        &ArtifactMeta {
            epsilon_total: epsilon.value(),
            margin_method: &conf.margin_method,
            base_seed: conf.base_seed,
            sample_chunk: conf.sample_chunk,
        },
        first.schema.clone(),
        parts,
    );
    let mut model = FittedModel::from_artifact(artifact)?;
    model.set_metrics_sink(sink.clone());
    Ok(model)
}
