//! [`SynthesisRequest`] — the single front door to the DPCopula
//! pipeline.
//!
//! A `SynthesisRequest` gathers everything one run needs — data and
//! schema, the ε budget and its `k` split, the correlation estimator,
//! the margin method, worker count, base seed, and the metrics sink —
//! behind one builder, and finishes with:
//!
//! * [`SynthesisRequest::fit`] — stages 1–4, returning a durable
//!   `(FittedModel, PipelineReport)` for fit-once/sample-many serving
//!   (sample it with [`FittedModel::try_sample_range_profiled`]);
//! * [`SynthesisRequest::run`] — the same fit, then stage 5: the fitted
//!   model's window `[0, output_records)` through the chunk loop that
//!   serves every window, returned as `(Synthesis, PipelineReport)`;
//! * [`SynthesisRequest::run_adaptive`] — DP copula-family selection
//!   (§3.2's AIC remark) followed by the pipeline with the winner.
//!
//! A caller that holds a generator rather than a seed draws one:
//! `.seed(rng.next_u64())`. `selection::synthesize_adaptive` remains as
//! the serial, generator-driven entry point; `DESIGN.md` §10 maps the
//! removed entry points to this builder.
//!
//! ## Input
//!
//! A request's input is either borrowed resident columns (via
//! [`SynthesisRequest::new`] / `from_config` — the zero-copy path for
//! data already in memory) or a streaming [`RowSource`] (via
//! [`SynthesisRequest::from_source`] / `from_source_config` — the
//! out-of-core path, which holds one block of input at a time). Both
//! reach the same fit and release byte-identical values for equal data.

use crate::engine::{fit_parts, EngineOptions, FitInput, PipelineReport};
use crate::error::DpCopulaError;
use crate::model::{assemble_artifact, ArtifactMeta, FittedModel};
use crate::sampler::{concat_chunks, SamplingProfile};
use crate::selection::{synthesize_adaptive, AdaptiveConfig, AdaptiveSynthesis};
use crate::synthesizer::{CorrelationMethod, DpCopulaConfig, MarginMethod, Synthesis};
use datagen::RowSource;
use dpmech::Epsilon;
use obskit::names::{ENGINE_WORKERS, PIPELINE_ROWS_OUT_TOTAL, PIPELINE_RUNS_TOTAL};
use obskit::{MetricsSink, Unit};
use rngkit::rngs::StdRng;
use rngkit::SeedableRng;
use std::cell::RefCell;

/// The data a request runs against: resident columns (eager, borrowed)
/// or a streaming [`RowSource`] (owned for the request's lifetime; in a
/// `RefCell` because reading advances the source while the finishers
/// take `&self`).
enum RequestInput<'d> {
    Columns {
        columns: &'d [Vec<u32>],
        domains: &'d [usize],
    },
    Source(RefCell<Box<dyn RowSource + 'd>>),
}

impl std::fmt::Debug for RequestInput<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestInput::Columns { columns, domains } => f
                .debug_struct("Columns")
                .field("columns", &columns.len())
                .field("domains", domains)
                .finish(),
            RequestInput::Source(source) => match source.try_borrow() {
                Ok(s) => f
                    .debug_struct("Source")
                    .field("attributes", &s.attributes().len())
                    .field("rewindable", &s.rewindable())
                    .finish(),
                Err(_) => f.write_str("Source(<in use>)"),
            },
        }
    }
}

/// A fully-described synthesis run: data, schema, privacy budget,
/// estimator choices, execution knobs, seed, and metrics sink.
///
/// The input is either borrowed resident columns (the pipeline never
/// mutates them) or an owned streaming [`RowSource`]; everything else is
/// owned. The builder methods are by-value-chainable and each has a
/// sensible default, so the minimal request is just data + schema + ε.
#[derive(Debug)]
pub struct SynthesisRequest<'d> {
    input: RequestInput<'d>,
    config: DpCopulaConfig,
    opts: EngineOptions,
    base_seed: u64,
    sink: MetricsSink,
}

impl<'d> SynthesisRequest<'d> {
    /// A request over borrowed resident columns (`columns[j]` on the
    /// domain `0..domains[j]`) with the paper's default configuration
    /// ([`DpCopulaConfig::kendall`]: EFPA margins, Kendall estimator,
    /// `k = 8`), default engine options, base seed 0, and metrics off.
    /// The columns are read in place, never copied.
    pub fn new(columns: &'d [Vec<u32>], domains: &'d [usize], epsilon: Epsilon) -> Self {
        Self::from_config(columns, domains, DpCopulaConfig::kendall(epsilon))
    }

    /// A request over borrowed resident columns around an existing
    /// [`DpCopulaConfig`].
    pub fn from_config(
        columns: &'d [Vec<u32>],
        domains: &'d [usize],
        config: DpCopulaConfig,
    ) -> Self {
        Self {
            input: RequestInput::Columns { columns, domains },
            config,
            opts: EngineOptions::default(),
            base_seed: 0,
            sink: MetricsSink::off(),
        }
    }

    /// A request reading from a streaming [`RowSource`] with the paper's
    /// default configuration — the out-of-core front door. The source's
    /// schema (names + domains) replaces the separate `domains` slice,
    /// and fitted artifacts carry its attribute names.
    pub fn from_source(source: impl RowSource + 'd, epsilon: Epsilon) -> Self {
        Self::from_source_config(source, DpCopulaConfig::kendall(epsilon))
    }

    /// A request reading from a streaming [`RowSource`] around an
    /// existing [`DpCopulaConfig`].
    pub fn from_source_config(source: impl RowSource + 'd, config: DpCopulaConfig) -> Self {
        Self {
            input: RequestInput::Source(RefCell::new(Box::new(source))),
            config,
            opts: EngineOptions::default(),
            base_seed: 0,
            sink: MetricsSink::off(),
        }
    }

    /// Overrides the budget ratio `k = eps1 / eps2` between margins and
    /// correlations.
    pub fn k_ratio(mut self, k: f64) -> Self {
        self.config = self.config.with_k_ratio(k);
        self
    }

    /// Overrides the correlation estimator.
    pub fn estimator(mut self, method: CorrelationMethod) -> Self {
        self.config.method = method;
        self
    }

    /// Overrides the margin publication method.
    pub fn margin(mut self, margin: MarginMethod) -> Self {
        self.config.margin = margin;
        self
    }

    /// Overrides the output cardinality (default: input cardinality).
    pub fn output_records(mut self, n: usize) -> Self {
        self.config.output_records = Some(n);
        self
    }

    /// Overrides the sampling profile (default:
    /// [`SamplingProfile::Reference`]). Part of the config rather than
    /// the engine options because the `Fast` profile changes the
    /// released bytes (to an equally valid draw from the same model).
    pub fn profile(mut self, profile: SamplingProfile) -> Self {
        self.config = self.config.with_profile(profile);
        self
    }

    /// Overrides the worker count for the fan-out stages. By the
    /// determinism contract this can never change the released bytes.
    pub fn workers(mut self, workers: usize) -> Self {
        self.opts.workers = workers.max(1);
        self
    }

    /// Overrides the sampling chunk size. Part of the released value's
    /// identity (chunk boundaries key the sampling streams).
    pub fn sample_chunk(mut self, chunk: usize) -> Self {
        self.opts.sample_chunk = chunk;
        self
    }

    /// Replaces both engine knobs at once.
    pub fn engine(mut self, opts: EngineOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Sets the base seed every stream generator derives from. For a
    /// fixed `(data, config, seed, sample_chunk)` the release is
    /// bit-identical at any worker count.
    pub fn seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Routes the run's metrics (stage spans, per-task latency, budget
    /// ledger, noise-draw counters) to `sink`. Defaults to a disabled
    /// sink, which costs one branch per would-be record.
    pub fn metrics(mut self, sink: MetricsSink) -> Self {
        self.sink = sink;
        self
    }

    /// The effective pipeline configuration.
    pub fn config(&self) -> &DpCopulaConfig {
        &self.config
    }

    /// The effective engine options.
    pub fn engine_options(&self) -> &EngineOptions {
        &self.opts
    }

    /// Rewinds a source so repeated finishers re-read it from the top.
    /// One-pass sources are left as they are: their single pass backs at
    /// most one run, and a second run sees an empty stream and fails with
    /// a named error rather than silently fitting on nothing.
    fn reset_source(source: &mut dyn RowSource) -> Result<(), DpCopulaError> {
        if source.rewindable() {
            source.rewind()?;
        }
        Ok(())
    }

    /// Stages 1–4 on this request's input, whatever its kind, packaged
    /// as a [`FittedModel`] that keeps this request's sink — the fit
    /// behind both [`Self::run`] and [`Self::fit`]. Returns the model,
    /// its report (sampling zero) and the input's row count.
    fn fit_model(&self) -> Result<(FittedModel, PipelineReport, usize), DpCopulaError> {
        let (cfg, seed, opts, sink) = (&self.config, self.base_seed, &self.opts, &self.sink);
        let fit = match &self.input {
            RequestInput::Columns { columns, domains } => fit_parts(
                cfg,
                FitInput::Columns { columns, domains },
                seed,
                opts,
                sink,
            )?,
            RequestInput::Source(source) => {
                let mut source = source.borrow_mut();
                Self::reset_source(source.as_mut())?;
                fit_parts(cfg, FitInput::Source(source.as_mut()), seed, opts, sink)?
            }
        };
        let artifact = assemble_artifact(
            &ArtifactMeta {
                epsilon_total: cfg.epsilon.value(),
                margin_method: cfg.margin.registry_name(),
                base_seed: seed,
                sample_chunk: opts.sample_chunk.max(1) as u64,
            },
            fit.schema,
            fit.parts,
        );
        let mut model = FittedModel::from_artifact(artifact)?;
        model.set_metrics_sink(sink.clone());
        let report = PipelineReport {
            timings: fit.timings,
            workers: opts.workers.max(1),
            base_seed: seed,
        };
        Ok((model, report, fit.rows))
    }

    /// Runs the full five-stage pipeline: [`Self::fit`]'s fit, then the
    /// fitted model's window `[0, output_records)` (default: the input's
    /// row count) through the chunk loop every served window runs, so
    /// serving the saved model reproduces these rows by construction.
    /// Every stage runs under a `pipeline/<stage>` span, the fan-outs
    /// publish per-task latency, and the budget ledger and noise
    /// mechanisms publish their counters; a disabled sink records nothing
    /// and the bytes never depend on the sink. The released margins,
    /// matrix and ε split are read back from the model's artifact.
    pub fn run(&self) -> Result<(Synthesis, PipelineReport), DpCopulaError> {
        let pipeline = self.sink.span("pipeline");
        let (model, mut report, rows) = self.fit_model()?;
        let n_out = self.config.output_records.unwrap_or(rows);
        let span = self.sink.span("sampling");
        let blocks = model.sample_blocks(
            self.config.sampling_profile,
            0,
            n_out,
            report.workers,
            "sampling",
            |_, columns| columns,
        );
        let columns = concat_chunks(model.dims(), n_out, blocks);
        report.timings.sampling = span.finish();
        self.sink.add(PIPELINE_RUNS_TOTAL, Unit::Count, 1);
        self.sink
            .add(PIPELINE_ROWS_OUT_TOTAL, Unit::Count, n_out as u64);
        self.sink
            .gauge_set(ENGINE_WORKERS, Unit::Info, report.workers as u64);
        drop(pipeline);

        let artifact = model.artifact();
        let spent = |label: &str| {
            let entry = artifact.ledger.entries.iter().find(|e| e.label == label);
            entry.map_or(0.0, |e| e.epsilon)
        };
        let synthesis = Synthesis {
            columns,
            correlation: artifact.correlation.clone(),
            noisy_margins: artifact.margins.clone(),
            epsilon_margins: spent("margins"),
            epsilon_correlations: spent("correlation"),
        };
        Ok((synthesis, report))
    }

    /// Runs stages 1–4 and packages the releases as a durable
    /// [`FittedModel`], whose report's sampling stage is zero. The model
    /// keeps this request's sink for its serving-path metrics, and its
    /// schema names the source's attributes (`attr{j}` for bare
    /// columns). Sampling the window `[0, n)` reproduces [`Self::run`]'s
    /// rows with `output_records = n`: `run` samples this model.
    pub fn fit(&self) -> Result<(FittedModel, PipelineReport), DpCopulaError> {
        let pipeline = self.sink.span("pipeline");
        let (model, report, _) = self.fit_model()?;
        drop(pipeline);
        Ok((model, report))
    }

    /// Runs DP copula-family selection and then the pipeline with the
    /// winning family, using [`AdaptiveConfig::new`]'s candidate set
    /// around this request's configuration. The selection path is
    /// inherently sequential, so it derives its generator from this
    /// request's seed; equal seeds reproduce equal releases.
    pub fn run_adaptive(&self) -> Result<AdaptiveSynthesis, DpCopulaError> {
        self.run_adaptive_with(&AdaptiveConfig::new(self.config))
    }

    /// [`SynthesisRequest::run_adaptive`] with explicit candidates,
    /// selection fraction, and partition count. `config.base` is
    /// ignored in favour of this request's configuration.
    pub fn run_adaptive_with(
        &self,
        config: &AdaptiveConfig,
    ) -> Result<AdaptiveSynthesis, DpCopulaError> {
        let config = AdaptiveConfig {
            base: self.config,
            candidates: config.candidates.clone(),
            selection_fraction: config.selection_fraction,
            partitions: config.partitions,
        };
        let mut rng = StdRng::seed_from_u64(self.base_seed);
        match &self.input {
            RequestInput::Columns { columns, domains } => {
                synthesize_adaptive(&config, columns, domains, &mut rng)
            }
            RequestInput::Source(source) => {
                // Family selection partitions the raw records, so a
                // streaming input is materialized first (the documented
                // limitation — adaptive selection is not out-of-core).
                let mut source = source.borrow_mut();
                Self::reset_source(source.as_mut())?;
                let (_schema, domains, columns) =
                    crate::distfit::materialize_source(source.as_mut())?;
                synthesize_adaptive(&config, &columns, &domains, &mut rng)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obskit::names::{PIPELINE_ROWS_OUT_TOTAL, PIPELINE_RUNS_TOTAL};
    use obskit::{MetricValue, MetricsRegistry};
    use std::sync::Arc;

    fn test_columns(m: usize, n: usize, domain: u32, seed: u64) -> Vec<Vec<u32>> {
        use rngkit::Rng;
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
    fn run_adaptive_is_reproducible_per_seed() {
        let cols = test_columns(2, 4_000, 64, 3);
        let domains = vec![64usize; 2];
        let request = SynthesisRequest::new(&cols, &domains, Epsilon::new(5.0).unwrap()).seed(9);
        let a = request.run_adaptive().unwrap();
        let b = request.run_adaptive().unwrap();
        assert_eq!(a.synthesis.columns, b.synthesis.columns);
        assert_eq!(a.family, b.family);
        // And it matches the legacy free function fed the same generator.
        let mut rng = StdRng::seed_from_u64(9);
        let config = AdaptiveConfig::new(*request.config());
        let legacy = synthesize_adaptive(&config, &cols, &domains, &mut rng).unwrap();
        assert_eq!(a.synthesis.columns, legacy.synthesis.columns);
        assert_eq!(a.family, legacy.family);
    }

    #[test]
    fn builder_knobs_reach_the_config() {
        let cols = test_columns(2, 100, 16, 4);
        let domains = vec![16usize; 2];
        let request = SynthesisRequest::new(&cols, &domains, Epsilon::new(1.0).unwrap())
            .k_ratio(4.0)
            .margin(MarginMethod::Identity)
            .output_records(50)
            .workers(3)
            .sample_chunk(1024)
            .seed(11);
        assert_eq!(request.config().k_ratio, 4.0);
        assert_eq!(request.config().margin, MarginMethod::Identity);
        assert_eq!(request.config().output_records, Some(50));
        assert_eq!(request.engine_options().workers, 3);
        assert_eq!(request.engine_options().sample_chunk, 1024);
        let (out, report) = request.run().unwrap();
        assert_eq!(out.columns[0].len(), 50);
        assert_eq!(report.workers, 3);
    }

    #[test]
    fn metrics_sink_observes_the_run() {
        // Resident columns and a streaming source reach the same fit:
        // each run records every stage span exactly once.
        let cols = test_columns(2, 1_000, 32, 5);
        let domains = vec![32usize; 2];
        let attributes = (0..2)
            .map(|j| datagen::Attribute::new(format!("attr{j}"), 32))
            .collect();
        let source = datagen::DatasetSource::with_block_rows(
            datagen::Dataset::new(attributes, cols.clone()),
            97,
        );
        let epsilon = Epsilon::new(1.0).unwrap();
        for request in [
            SynthesisRequest::new(&cols, &domains, epsilon),
            SynthesisRequest::from_source(source, epsilon),
        ] {
            let registry = Arc::new(MetricsRegistry::new());
            let (_, _) = request
                .metrics(MetricsSink::to_registry(registry.clone()))
                .seed(13)
                .run()
                .unwrap();
            let snap = registry.snapshot();
            assert_eq!(
                snap.get(PIPELINE_RUNS_TOTAL).unwrap().value,
                MetricValue::Counter(1)
            );
            assert_eq!(
                snap.get(PIPELINE_ROWS_OUT_TOTAL).unwrap().value,
                MetricValue::Counter(1_000)
            );
            // Every pipeline stage span was recorded.
            for stage in obskit::names::STAGES {
                let id =
                    obskit::series_id(obskit::SPAN_NS, &[("span", &format!("pipeline/{stage}"))]);
                let hist = snap.get(&id).unwrap().value.as_hist().unwrap().clone();
                assert_eq!(hist.count, 1, "{stage}");
            }
        }
    }
}
