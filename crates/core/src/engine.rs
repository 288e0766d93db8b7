//! The staged parallel synthesis engine.
//!
//! The pipeline of Figure 4 runs as five explicit stages — budget plan →
//! margins → correlation → PD repair → sampling — each individually
//! timed, behind [`crate::SynthesisRequest`]. One fit function serves
//! resident columns and streaming sources alike, and the data-parallel
//! work fans out through [`parkit`]:
//!
//! * **budget plan** — the row reducer that checks domains and gathers
//!   exact counts and the τ subsample, one task per attribute over a
//!   large resident input;
//! * **margins** — one task per attribute, publishing its exact counts
//!   over every shard once;
//! * **correlation** — the copula-family vote when the request selects a
//!   family (on the caller's thread), then one task per column of the
//!   pooled τ sample to rank it and one task per attribute pair
//!   (`C(m,2)` tasks) to score it;
//! * **sampling** — one task per row chunk of
//!   [`EngineOptions::sample_chunk`] records.
//!
//! ## The determinism contract
//!
//! Every stochastic task derives its generator with
//! [`parkit::stream_rng`]`(base_seed, STREAM_*, index)` where `index` is
//! the task's *logical* identity — attribute id, pair id, row-chunk id —
//! never a thread id. The output is therefore a pure function of
//! `(data, config, base_seed)`: bit-identical at any worker count, which
//! `crates/core/tests/parallel_equivalence.rs` pins down.
//!
//! The `STREAM_*` constants below partition the derivation space so no
//! two stages can collide on a generator even when their indices overlap.

use crate::distfit::CountedSource;
use crate::error::{validate_shape, DpCopulaError, MIN_MECHANISM_EPSILON};
use crate::kendall::dp_tau_matrix;
use crate::mle::dp_mle_matrix_par;
use crate::selection::{dp_select_family, CANDIDATES, SELECTION_BLOCKS, SELECTION_SHARE};
use crate::shard::{self, RowReducer, ShardSpec};
use crate::spearman::dp_spearman_matrix_par;
use crate::synthesizer::{CorrelationMethod, DpCopulaConfig};
use datagen::RowSource;
use dphist::MarginRegistry;
use dpmech::{BudgetAccountant, Epsilon};
use mathkit::correlation::{clamp_to_correlation, repair_positive_definite};
use mathkit::Matrix;
use modelstore::{AttributeSpec, CopulaFamily, ShardInfo};
use obskit::names::ENGINE_SHARDS;
use obskit::{MetricsSink, Stopwatch, Unit, SPAN_NS};
use std::time::Duration;

/// RNG stream for margin publication (index = attribute id).
pub const STREAM_MARGINS: u64 = 1;
/// RNG stream for the Kendall row subsample (index = shard id).
pub const STREAM_KENDALL_SAMPLE: u64 = 2;
/// RNG stream for per-pair Kendall noise (index = pair id).
pub const STREAM_KENDALL_NOISE: u64 = 3;
/// RNG stream for per-pair MLE aggregate noise (index = pair id).
pub const STREAM_MLE_NOISE: u64 = 4;
/// RNG stream for per-pair Spearman noise (index = pair id).
pub const STREAM_SPEARMAN_NOISE: u64 = 5;
/// RNG stream for copula sampling (index = row-chunk id).
pub const STREAM_SAMPLER: u64 = 6;
/// RNG stream for the copula-family vote's noise (index = candidate id).
pub const STREAM_SELECTION: u64 = 7;

/// Runs `f` and publishes the noise draws it made (on this thread) as
/// `noise_draws_total{stage, mech}` counters. Uses the thread-local draw
/// tally in [`dpmech::draws`], so it must wrap the code that draws on the
/// same thread it runs on — inside a `par_map` task, not around it.
/// Disabled sinks skip the tally snapshots entirely.
pub(crate) fn harvest_draws<T>(sink: &MetricsSink, stage: &str, f: impl FnOnce() -> T) -> T {
    if !sink.enabled() {
        return f();
    }
    let before = dpmech::draws::snapshot();
    let out = f();
    dpmech::draws::snapshot()
        .since(&before)
        .record_into(sink, stage);
    out
}

/// Publishes each attribute's margin once from `exact[j]`, its exact
/// counts over every row: one task per attribute under the `margins`
/// stage, each at `eps_margin` through the `MarginRegistry` method
/// `margin_name`, on stream `STREAM_MARGINS[j]` — the same release at
/// any shard count.
///
/// # Panics
/// Panics when `margin_name` is not a builtin registry name; callers
/// pass a [`crate::MarginMethod`]'s or check the name first.
pub(crate) fn publish_margins(
    exact: &[Vec<u64>],
    margin_name: &str,
    eps_margin: Epsilon,
    base_seed: u64,
    workers: usize,
    sink: &MetricsSink,
) -> Vec<Vec<f64>> {
    parkit::par_map_observed(workers, exact, sink, "margins", |j, counts| {
        let counts: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        harvest_draws(sink, "margins", || {
            let mut rng = parkit::stream_rng(base_seed, STREAM_MARGINS, j as u64);
            MarginRegistry::builtin()
                .publish(margin_name, &counts, eps_margin, &mut rng)
                .expect("builtin registry covers every margin method")
        })
    })
}

/// Execution knobs for the staged engine. Orthogonal to
/// [`crate::synthesizer::DpCopulaConfig`]: the config decides *what* is
/// released, the options decide *how fast* — by the determinism contract
/// they can never change the released bytes.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Worker threads for the fan-out stages. `1` runs everything inline
    /// on the caller's thread; any value yields identical output.
    pub workers: usize,
    /// Rows per sampling task. Smaller chunks balance better across
    /// workers but spend more on per-chunk generator setup. Part of the
    /// released value's identity (chunk boundaries key the sampling
    /// streams), so changing it changes the sampled records — unlike
    /// `workers`, which never does.
    pub sample_chunk: usize,
    /// Disjoint row shards the fit partitions its input into (DESIGN.md
    /// §12). Each shard draws its own share of the Kendall record
    /// sample; every release is made once over all rows. `1` (the
    /// default) is the unsharded fit. Above 1 the margins, and under
    /// `SamplingStrategy::Full` the whole release, stay the 1-shard
    /// values; under `Auto`/`Fixed` the per-shard subsamples pool into a
    /// different τ sample, so like `sample_chunk` this is part of the
    /// released value's identity.
    pub shards: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            workers: parkit::default_workers(),
            sample_chunk: 8192,
            shards: 1,
        }
    }
}

impl EngineOptions {
    /// Options pinned to a specific worker count.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            ..Self::default()
        }
    }

    /// Options pinned to a specific shard count (workers at default).
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards,
            ..Self::default()
        }
    }
}

/// Wall-clock time spent in each pipeline stage of one staged run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Input validation, budget split, and ingest: the row reducer's
    /// exact counts and τ subsample.
    pub budget_plan: Duration,
    /// DP marginal histogram publication (parallel over attributes).
    pub margins: Duration,
    /// DP correlation estimation: the Kendall τ matrix of the pooled
    /// sample (parallel over columns, then pairs), or the MLE/Spearman
    /// matrix.
    pub correlation: Duration,
    /// The fold (the budget accountant), then clamping + eigenvalue
    /// positive-definite repair.
    pub pd_repair: Duration,
    /// Copula sampling (parallel over row chunks).
    pub sampling: Duration,
}

impl StageTimings {
    /// Sum over all five stages.
    pub fn total(&self) -> Duration {
        self.budget_plan + self.margins + self.correlation + self.pd_repair + self.sampling
    }

    /// `(stage name, duration)` pairs in pipeline order, for reports.
    pub fn stages(&self) -> [(&'static str, Duration); 5] {
        [
            ("budget_plan", self.budget_plan),
            ("margins", self.margins),
            ("correlation", self.correlation),
            ("pd_repair", self.pd_repair),
            ("sampling", self.sampling),
        ]
    }

    /// Rebuilds stage timings from the `span_ns{span="pipeline/<stage>"}`
    /// series of a metrics snapshot. The engine records each stage
    /// exactly once per run through the same spans that produce the
    /// [`PipelineReport`], so for a single-run snapshot this is the same
    /// report viewed through the metrics layer — there is no second
    /// clock to disagree with.
    pub fn from_snapshot(snap: &obskit::Snapshot) -> Self {
        let stage_ns = |stage: &str| {
            let path = format!("pipeline/{stage}");
            let id = obskit::series_id(obskit::SPAN_NS, &[("span", &path)]);
            snap.get(&id)
                .and_then(|e| e.value.as_hist())
                .map(|h| Duration::from_nanos(h.sum))
                .unwrap_or_default()
        };
        Self {
            budget_plan: stage_ns("budget_plan"),
            margins: stage_ns("margins"),
            correlation: stage_ns("correlation"),
            pd_repair: stage_ns("pd_repair"),
            sampling: stage_ns("sampling"),
        }
    }
}

/// What one staged run did, beyond the released [`crate::Synthesis`].
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Per-stage wall-clock timings.
    pub timings: StageTimings,
    /// Worker count the fan-out stages ran with.
    pub workers: usize,
    /// The base seed every stream generator was derived from.
    pub base_seed: u64,
}

/// The fitted model pieces stages 1–4 produce — everything of a run
/// except the sampled rows, which [`crate::model::assemble_artifact`]
/// packages into the released artifact.
pub(crate) struct FitParts {
    /// The published noisy marginal counts.
    pub noisy_margins: Vec<Vec<f64>>,
    /// The clamped + PD-repaired DP correlation matrix.
    pub correlation: Matrix,
    /// The copula family: the vote's winner, or the Gaussian.
    pub family: CopulaFamily,
    /// Budget spent on the family vote (0 without one).
    pub epsilon_selection: f64,
    /// Budget spent on margins (`epsilon_1`).
    pub epsilon_margins: f64,
    /// Budget spent on correlations (`epsilon_2`; 0 for one attribute).
    pub epsilon_correlations: f64,
    /// Per-shard provenance (row ranges + stream indices); empty for the
    /// 1-shard fit so its artifact stays on format v1, byte-identical to
    /// the pre-shard pipeline.
    pub shards: Vec<ShardInfo>,
}

/// The data one fit reads: borrowed resident columns with their domains,
/// or a streaming source read block by block.
pub(crate) enum FitInput<'a> {
    /// Resident columns, `columns[j]` on the domain `0..domains[j]`.
    Columns {
        columns: &'a [Vec<u32>],
        domains: &'a [usize],
    },
    /// A source whose attributes name the schema.
    Source(&'a mut dyn RowSource),
}

/// A fit input past its shape checks: resident columns, or a source
/// after its counting pass.
enum Rows<'a> {
    Resident(&'a [Vec<u32>]),
    Streamed(CountedSource<'a>),
}

/// One fit's per-mechanism budgets: the family vote's share of the
/// total when the fit selects a copula family, then the rest split by
/// `k` into `eps1` for the margins (`eps1/m` each) and `eps2` for the
/// correlations (`eps2/C(m,2)` each).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BudgetPlan {
    /// The total ε the fold's accountant holds the debits to.
    pub total: Epsilon,
    /// The family vote's ε, when the fit selects a family.
    pub selection: Option<Epsilon>,
    /// The margins' budget `epsilon_1`.
    pub eps1: Epsilon,
    /// The correlations' budget `epsilon_2`.
    pub eps2: Epsilon,
}

impl BudgetPlan {
    /// Plans `total` over `attributes` attributes, with a family vote
    /// when `select` is set. Refuses with
    /// [`DpCopulaError::BudgetBelowFloor`] a plan that gives the vote, a
    /// margin or a pair less than [`MIN_MECHANISM_EPSILON`]. One
    /// attribute releases no pair.
    pub(crate) fn new(
        total: Epsilon,
        k_ratio: f64,
        attributes: usize,
        select: bool,
    ) -> Result<Self, DpCopulaError> {
        let selection = select.then(|| total.fraction(SELECTION_SHARE));
        let rest = match selection {
            Some(vote) => Epsilon::new(total.value() - vote.value())?,
            None => total,
        };
        let (eps1, eps2) = rest.split_ratio(k_ratio);
        let m = attributes.max(1);
        let pairs = m * (m - 1) / 2;
        let mut smallest = eps1.divide(m).value();
        if pairs > 0 {
            smallest = smallest.min(eps2.divide(pairs).value());
        }
        if let Some(vote) = selection {
            smallest = smallest.min(vote.value());
        }
        if smallest < MIN_MECHANISM_EPSILON {
            return Err(DpCopulaError::BudgetBelowFloor { smallest });
        }
        Ok(Self {
            total,
            selection,
            eps1,
            eps2,
        })
    }
}

/// What one fit released, plus how long its stages took.
pub(crate) struct Fit {
    /// The released model pieces.
    pub parts: FitParts,
    /// Stages 1–4 timed; `sampling` stays zero.
    pub timings: StageTimings,
    /// Attribute names and domains (`attr{j}` for bare columns).
    pub schema: Vec<AttributeSpec>,
    /// Input row count.
    pub rows: usize,
}

/// Folds the released pieces into the fit — the last half of every fit,
/// shared by the in-process fit and [`crate::distfit::merge_shards`]:
/// the budget accountant, clamping and positive-definite repair of
/// `raw`, the shard spans and the shard provenance of `specs`.
///
/// `noisy_margins` are the published margins and `raw` the released
/// correlation estimate before repair (Kendall's pooled τ matrix, or
/// MLE's or Spearman's; the identity for one attribute), each released
/// under `plan`, whose vote (if any) the accountant debits first. The
/// parts' family is the Gaussian; a selecting fit writes its winner.
/// `build_ns` is the caller's time building those releases, reported
/// as `pipeline/shard_fit`; the serial fold alone is
/// `pipeline/shard_merge`.
pub(crate) fn fold_summaries(
    noisy_margins: Vec<Vec<f64>>,
    specs: &[ShardSpec],
    raw: Matrix,
    plan: &BudgetPlan,
    build_ns: u64,
    sink: &MetricsSink,
) -> Result<FitParts, DpCopulaError> {
    let m = noisy_margins.len();
    let eps_margin = plan.eps1.divide(m);
    let mut accountant = BudgetAccountant::new(plan.total);
    sink.gauge_set(ENGINE_SHARDS, Unit::Info, specs.len() as u64);

    let watch = Stopwatch::start();
    if let Some(vote) = plan.selection {
        accountant.spend_tracked(vote, "selection", sink)?;
    }
    for _ in 0..m {
        accountant.spend_tracked(eps_margin, "margins", sink)?;
    }
    let merge_ns = watch.elapsed_ns();
    let correlation = if m == 1 {
        raw
    } else {
        let mut p = raw;
        accountant.spend_tracked(plan.eps2, "correlation", sink)?;
        clamp_to_correlation(&mut p);
        repair_positive_definite(&p)
    };

    if sink.enabled() {
        sink.observe_labeled(
            SPAN_NS,
            &[("span", "pipeline/shard_fit")],
            Unit::Nanos,
            build_ns,
        );
        sink.observe_labeled(
            SPAN_NS,
            &[("span", "pipeline/shard_merge")],
            Unit::Nanos,
            merge_ns,
        );
    }

    // Shard provenance only when actually sharded: the 1-shard artifact
    // must stay on format v1, byte-identical to the pre-shard pipeline.
    let shards = if specs.len() <= 1 {
        Vec::new()
    } else {
        specs
            .iter()
            .map(|s| ShardInfo {
                row_start: s.start as u64,
                row_end: s.end as u64,
                seed_index: s.seed_index,
            })
            .collect()
    };

    Ok(FitParts {
        noisy_margins,
        correlation,
        family: CopulaFamily::Gaussian,
        epsilon_selection: plan.selection.map_or(0.0, Epsilon::value),
        epsilon_margins: plan.eps1.value(),
        epsilon_correlations: if m > 1 { plan.eps2.value() } else { 0.0 },
        shards,
    })
}

/// Runs stages 1–4 of the pipeline under `cfg` — the *fit*, which is
/// everything that touches the raw data and the privacy budget — on
/// resident columns and streaming sources alike. Sampling from the
/// result is free post-processing.
///
/// With `select` the fit also chooses its copula family: the budget
/// plan sets [`crate::selection`]'s share of ε aside, and the
/// `correlation` stage runs the family vote over every row, on stream
/// [`STREAM_SELECTION`], before the estimator.
///
/// The input is partitioned into `opts.shards` row shards, whose pooled
/// counts and τ sample are released once each and folded by
/// [`fold_summaries`]; one shard is the unsharded fit. A source is read
/// twice — a counting pass, then the reducing pass — holding one block
/// at a time when it can rewind, and buffering its blocks when it
/// cannot. Only that ingestion is bounded by the block size: under
/// Kendall's τ the fit also holds the exact counts, each shard's
/// subsample plan (8 B per sampled row, plus a 4 B/row shuffle and up to
/// 8 B per sampled row of buckets while a shard's plan is drawn and
/// ordered) and the subsample itself — every row under
/// `SamplingStrategy::Full`. MLE, Spearman and the family vote read the
/// raw records, so for them the reducing pass keeps the columns. For
/// equal rows every
/// input kind and block size releases the same bytes (pinned in
/// `tests/distfit_identity.rs`).
pub(crate) fn fit_parts(
    cfg: &DpCopulaConfig,
    select: bool,
    input: FitInput<'_>,
    base_seed: u64,
    opts: &EngineOptions,
    sink: &MetricsSink,
) -> Result<Fit, DpCopulaError> {
    let workers = opts.workers.max(1);
    let mut timings = StageTimings::default();

    // Stage 1: budget plan — shape checks, the shard and subsample
    // plan, and the one reducer pass over the rows, which checks
    // every value against its domain and gathers the exact counts
    // and the τ subsample.
    let span = sink.span("budget_plan");
    let (schema, input) = match input {
        FitInput::Columns { columns, domains } => {
            validate_shape(columns, domains)?;
            let schema = domains
                .iter()
                .enumerate()
                .map(|(j, &d)| AttributeSpec::new(format!("attr{j}"), d))
                .collect();
            (schema, Rows::Resident(columns))
        }
        FitInput::Source(source) => {
            let schema: Vec<AttributeSpec> = source
                .attributes()
                .iter()
                .map(|a| AttributeSpec::new(a.name.clone(), a.domain))
                .collect();
            if schema.is_empty() {
                return Err(DpCopulaError::EmptyInput);
            }
            let counted = CountedSource::count(source)?;
            if counted.rows == 0 {
                return Err(DpCopulaError::EmptyInput);
            }
            (schema, Rows::Streamed(counted))
        }
    };
    let domains: Vec<usize> = schema.iter().map(|a| a.domain).collect();
    let m = domains.len();
    if select && m < 2 {
        // A copula family has no dependence to describe.
        return Err(DpCopulaError::TooFewAttributes {
            attributes: m,
            required: 2,
        });
    }
    let plan = BudgetPlan::new(cfg.epsilon, cfg.k_ratio, m, select)?;
    let n = match &input {
        Rows::Resident(columns) => columns[0].len(),
        Rows::Streamed(counted) => counted.rows,
    };
    if m > 1 && n < 2 {
        // Pairwise correlation (Kendall/Spearman/MLE) needs >= 2
        // observations.
        return Err(DpCopulaError::TooFewRecords {
            records: n,
            required: 2,
        });
    }
    if opts.shards == 0 {
        return Err(DpCopulaError::ZeroShards);
    }
    if opts.shards > n {
        return Err(DpCopulaError::TooManyShards {
            shards: opts.shards,
            records: n,
        });
    }
    let strategy = match cfg.method {
        CorrelationMethod::Kendall(strategy) => Some(strategy),
        // Only Kendall's tau has a mergeable summary (DESIGN.md §12).
        CorrelationMethod::Mle(_) if opts.shards > 1 && m > 1 => {
            return Err(DpCopulaError::ShardedCorrelationUnsupported { method: "mle" })
        }
        CorrelationMethod::Spearman if opts.shards > 1 && m > 1 => {
            return Err(DpCopulaError::ShardedCorrelationUnsupported { method: "spearman" })
        }
        _ => None,
    };
    let specs = shard::shard_specs(n, opts.shards);
    let targets = strategy.filter(|_| m > 1).map(|strategy| {
        let target = shard::kendall_sample_target(m, n, strategy, plan.eps2);
        shard::partition_sample_target(target, &specs)
    });
    let watch = Stopwatch::start();
    let mut reducer = RowReducer::new(&domains, &specs, targets.as_deref(), base_seed, workers);
    let kept: Vec<Vec<u32>>;
    let resident: &[Vec<u32>] = match input {
        Rows::Resident(columns) => {
            reducer.push(columns, workers)?;
            columns
        }
        Rows::Streamed(counted) => {
            // MLE, Spearman and the family vote partition the raw
            // records, so the reducing pass keeps a copy of every block
            // for them.
            let keep = if m > 1 && (strategy.is_none() || select) {
                m
            } else {
                0
            };
            let mut columns: Vec<Vec<u32>> = (0..keep).map(|_| Vec::with_capacity(n)).collect();
            counted.replay(|block| {
                reducer.push(block, workers)?;
                for (col, part) in columns.iter_mut().zip(block) {
                    col.extend_from_slice(part);
                }
                Ok(())
            })?;
            kept = columns;
            &kept
        }
    };
    let (exact, sampled) = reducer.finish();
    let mut build_ns = watch.elapsed_ns();
    timings.budget_plan = span.finish();

    // Stage 2: DP margins — one task per attribute, eps1/m each, over
    // its exact counts pooled across every shard.
    let span = sink.span("margins");
    let watch = Stopwatch::start();
    let noisy_margins = publish_margins(
        &exact,
        cfg.margin.registry_name(),
        plan.eps1.divide(m),
        base_seed,
        workers,
        sink,
    );
    build_ns += watch.elapsed_ns();
    timings.margins = span.finish();

    // Stage 3: DP correlation — the family vote when the fit selects,
    // then the one Kendall pass over the pooled τ sample, or the raw
    // matrix of an estimator without a sharded form (stage 1
    // guarantees a single shard for those).
    let span = sink.span("correlation");
    let family = match plan.selection {
        Some(eps) => harvest_draws(sink, "correlation", || {
            dp_select_family(resident, &CANDIDATES, SELECTION_BLOCKS, eps, base_seed)
        })?,
        None => CopulaFamily::Gaussian,
    };
    let raw = match cfg.method {
        _ if m == 1 => Matrix::identity(1),
        CorrelationMethod::Kendall(_) => {
            let watch = Stopwatch::start();
            let p = dp_tau_matrix(sampled, plan.eps2, base_seed, workers, sink);
            build_ns += watch.elapsed_ns();
            p
        }
        CorrelationMethod::Mle(strategy) => {
            dp_mle_matrix_par(resident, plan.eps2, strategy, base_seed, workers, sink)?
        }
        CorrelationMethod::Spearman => {
            dp_spearman_matrix_par(resident, plan.eps2, base_seed, workers, sink)?
        }
    };
    timings.correlation = span.finish();

    // Stage 4: the fold — the accountant, then clamp +
    // positive-definite repair.
    let span = sink.span("pd_repair");
    let mut parts = fold_summaries(noisy_margins, &specs, raw, &plan, build_ns, sink)?;
    parts.family = family;
    timings.pd_repair = span.finish();

    Ok(Fit {
        parts,
        timings,
        schema,
        rows: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kendall::SamplingStrategy;
    use crate::mle::PartitionStrategy;
    use crate::synthesizer::{MarginMethod, Synthesis};
    use crate::SynthesisRequest;
    use dpmech::Epsilon;
    use rngkit::rngs::StdRng;
    use rngkit::{Rng, SeedableRng};

    /// One full run through the request front door.
    fn staged(
        config: DpCopulaConfig,
        cols: &[Vec<u32>],
        domains: &[usize],
        seed: u64,
        opts: &EngineOptions,
    ) -> Result<(Synthesis, PipelineReport), DpCopulaError> {
        SynthesisRequest::from_config(cols, domains, config)
            .engine(*opts)
            .seed(seed)
            .run()
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

    #[test]
    fn staged_output_is_worker_count_invariant() {
        let cols = test_columns(3, 2_000, 64, 1);
        let domains = vec![64usize; 3];
        let mut config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
        config.method = CorrelationMethod::Kendall(SamplingStrategy::Fixed(500));

        let (base, report) =
            staged(config, &cols, &domains, 42, &EngineOptions::with_workers(1)).unwrap();
        assert_eq!(report.workers, 1);
        for workers in [2, 7] {
            let (out, report) = staged(
                config,
                &cols,
                &domains,
                42,
                &EngineOptions::with_workers(workers),
            )
            .unwrap();
            assert_eq!(report.workers, workers);
            assert_eq!(out.columns, base.columns, "workers={workers}");
            assert_eq!(out.correlation, base.correlation, "workers={workers}");
            assert_eq!(out.noisy_margins, base.noisy_margins, "workers={workers}");
        }
    }

    #[test]
    fn staged_report_times_every_stage() {
        let cols = test_columns(2, 3_000, 32, 2);
        let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
        let (_, report) = staged(config, &cols, &[32, 32], 7, &EngineOptions::default()).unwrap();
        let t = report.timings;
        // Margins, correlation and sampling do real work; the plan and
        // repair stages may round to zero but must not exceed the total.
        assert!(t.margins > Duration::ZERO);
        assert!(t.correlation > Duration::ZERO);
        assert!(t.sampling > Duration::ZERO);
        assert_eq!(
            t.total(),
            t.stages().iter().map(|(_, d)| *d).sum::<Duration>()
        );
    }

    #[test]
    fn staged_runs_every_correlation_method() {
        let cols = test_columns(3, 4_000, 40, 3);
        let domains = vec![40usize; 3];
        for method in [
            CorrelationMethod::Kendall(SamplingStrategy::Auto),
            CorrelationMethod::Mle(PartitionStrategy::Fixed(80)),
            CorrelationMethod::Spearman,
        ] {
            let mut config = DpCopulaConfig::kendall(Epsilon::new(2.0).unwrap());
            config.method = method;
            let (one, _) =
                staged(config, &cols, &domains, 5, &EngineOptions::with_workers(1)).unwrap();
            let (two, _) =
                staged(config, &cols, &domains, 5, &EngineOptions::with_workers(2)).unwrap();
            assert_eq!(one.columns, two.columns, "{method:?}");
        }
    }

    #[test]
    fn staged_single_attribute_short_circuits_correlation() {
        let cols = vec![(0..500u32).map(|i| i % 40).collect::<Vec<_>>()];
        let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
        let (out, _) = staged(config, &cols, &[40], 9, &EngineOptions::default()).unwrap();
        assert_eq!(out.correlation, Matrix::identity(1));
        assert_eq!(out.epsilon_correlations, 0.0);
    }

    #[test]
    fn sharded_fit_is_worker_count_invariant() {
        let cols = test_columns(3, 2_400, 48, 21);
        let domains = vec![48usize; 3];
        let mut config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
        config.method = CorrelationMethod::Kendall(SamplingStrategy::Fixed(600));
        for shards in [2, 4] {
            let mut opts = EngineOptions::with_workers(1);
            opts.shards = shards;
            let (base, _) = staged(config, &cols, &domains, 42, &opts).unwrap();
            for workers in [2, 7] {
                let mut opts = EngineOptions::with_workers(workers);
                opts.shards = shards;
                let (out, _) = staged(config, &cols, &domains, 42, &opts).unwrap();
                assert_eq!(
                    out.columns, base.columns,
                    "shards={shards} workers={workers}"
                );
                assert_eq!(out.correlation, base.correlation);
                assert_eq!(out.noisy_margins, base.noisy_margins);
            }
        }
    }

    #[test]
    fn shard_validation_returns_named_errors() {
        let cols = test_columns(2, 100, 16, 22);
        let domains = vec![16usize; 2];
        let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());

        let opts = EngineOptions::with_shards(0);
        assert_eq!(
            staged(config, &cols, &domains, 1, &opts).unwrap_err(),
            DpCopulaError::ZeroShards
        );

        let opts = EngineOptions::with_shards(101);
        assert_eq!(
            staged(config, &cols, &domains, 1, &opts).unwrap_err(),
            DpCopulaError::TooManyShards {
                shards: 101,
                records: 100
            }
        );

        let opts = EngineOptions::with_shards(2);
        for (method, name) in [
            (CorrelationMethod::Mle(PartitionStrategy::Fixed(10)), "mle"),
            (CorrelationMethod::Spearman, "spearman"),
        ] {
            let mut config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
            config.method = method;
            assert_eq!(
                staged(config, &cols, &domains, 1, &opts).unwrap_err(),
                DpCopulaError::ShardedCorrelationUnsupported { method: name },
                "{method:?}"
            );
        }
    }

    #[test]
    fn single_attribute_fit_accepts_multiple_shards() {
        // Sharding only gates the correlation estimator when there are
        // pairs to estimate; one attribute has none.
        let cols = vec![(0..500u32).map(|i| i % 40).collect::<Vec<_>>()];
        let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
        let (out, _) = staged(config, &cols, &[40], 9, &EngineOptions::with_shards(3)).unwrap();
        assert_eq!(out.correlation, Matrix::identity(1));
    }

    #[test]
    fn registry_backed_margins_cover_every_method() {
        let cols = test_columns(2, 1_500, 32, 4);
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
            let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap()).with_margin(margin);
            let (out, _) = staged(config, &cols, &[32, 32], 11, &EngineOptions::default()).unwrap();
            assert_eq!(out.noisy_margins.len(), 2, "margin {margin:?}");
        }
    }
}
