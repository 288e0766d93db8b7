//! Fit-once / sample-many serving: [`FittedModel`] wraps a
//! [`ModelArtifact`] with a validated, ready-to-sample copula, so a
//! deployment fits a model one time (spending its ε budget), persists it
//! as a `.dpcm` artifact, and thereafter serves unbounded synthetic rows
//! — on any machine, at any worker count — without ever touching the raw
//! data or the budget again.
//!
//! ## Why serving is free (the DP argument)
//!
//! Differential privacy is closed under post-processing: any function of
//! an ε-DP release is itself ε-DP at no additional cost. The artifact
//! stores exactly the two ε-budgeted releases of the fit — the noisy
//! marginal histograms and the noisy (repaired) correlation matrix — and
//! sampling reads *only* those. However many rows are served, from
//! however many artifact copies, the privacy guarantee stays the ledger's
//! recorded ε.
//!
//! ## Deterministic row windows
//!
//! [`FittedModel::try_sample_range_profiled`] generates the absolute row
//! window `[offset, offset + n)` of a conceptually infinite synthetic row
//! space. Rows are gridded into fixed chunks (`provenance.sample_chunk`
//! rows); chunk `c` draws from `parkit::stream_rng(base_seed,
//! sampler_stream, c)`, so every row is a pure function of the artifact
//! plus its absolute index. Horizontally sharded servers that each own a
//! disjoint row range therefore produce disjoint, non-overlapping rows
//! that concatenate to exactly the single-machine output — and the
//! reference window `[0, n)` reproduces the rows
//! [`crate::SynthesisRequest::run`] releases bit-for-bit.

use crate::empirical::MarginalDistribution;
use crate::engine::STREAM_SAMPLER;
use crate::error::DpCopulaError;
use crate::sampler::{
    concat_chunks, fan_out_chunks, record_chunk, CopulaSampler, RowWindow, SamplingProfile,
};
use crate::tcopula::TCopulaSampler;
use dphist::MarginRegistry;
use mathkit::correlation::is_correlation_shaped;
use modelstore::{
    AttributeSpec, BudgetEntry, BudgetLedger, CopulaFamily, ModelArtifact, RngProvenance,
    StoreError,
};
use obskit::names::{
    MODELSTORE_CORRUPTION_REJECTS_TOTAL, SAMPLING_PROFILE_ROWS_TOTAL, SERVE_ROWS_TOTAL,
    SERVE_WINDOWS_TOTAL, STAGE_SERVE,
};
use obskit::{MetricsSink, Unit};
use std::path::Path;

/// The stream-key derivation scheme recorded in artifact provenance —
/// pins `parkit::stream_rng`'s triple-SplitMix64 derivation over
/// xoshiro256++ states.
pub const STREAM_SCHEME: &str = "splitmix64x3/xoshiro256++";

/// The artifact fields that do not come from the fitted parts: the
/// configured budget total, the margin-method provenance name, and the
/// sampling provenance knobs.
pub(crate) struct ArtifactMeta<'a> {
    /// The configured total ε (the ledger's `total`).
    pub epsilon_total: f64,
    /// Registry name of the margin mechanism.
    pub margin_method: &'a str,
    /// The base seed every stream generator derives from.
    pub base_seed: u64,
    /// Rows per sampling chunk (already clamped positive).
    pub sample_chunk: u64,
}

/// Packages fitted parts into the released [`ModelArtifact`] — the one
/// assembly path shared by [`crate::SynthesisRequest::fit`] and the
/// distributed-shard merge, so both release identical bytes for
/// identical parts.
pub(crate) fn assemble_artifact(
    meta: &ArtifactMeta<'_>,
    schema: Vec<AttributeSpec>,
    parts: crate::engine::FitParts,
) -> ModelArtifact {
    // The ledger in spending order; a fit without a vote or without
    // pairs spends nothing on them.
    let entries = [
        ("selection", parts.epsilon_selection),
        ("margins", parts.epsilon_margins),
        ("correlation", parts.epsilon_correlations),
    ]
    .into_iter()
    .filter(|&(_, epsilon)| epsilon > 0.0)
    .map(|(label, epsilon)| BudgetEntry {
        label: label.into(),
        epsilon,
    })
    .collect();
    ModelArtifact {
        schema,
        margin_method: meta.margin_method.to_string(),
        margins: parts.noisy_margins,
        correlation: parts.correlation,
        family: parts.family,
        ledger: BudgetLedger {
            total: meta.epsilon_total,
            entries,
        },
        provenance: RngProvenance {
            base_seed: meta.base_seed,
            sample_chunk: meta.sample_chunk,
            sampler_stream: STREAM_SAMPLER,
            scheme: STREAM_SCHEME.into(),
            shards: parts.shards,
        },
    }
}

/// Tolerance for the on-load unit-diagonal / symmetry / range check of
/// the stored correlation matrix. The fit writes exact repaired values,
/// so anything beyond tiny float formatting noise is damage.
const CORRELATION_TOL: f64 = 1e-8;

/// A loaded (or freshly fitted) model, validated and ready to serve.
#[derive(Debug, Clone)]
pub struct FittedModel {
    artifact: ModelArtifact,
    sampler: ServingSampler,
    sink: MetricsSink,
}

/// The family-specific sampling back-end.
#[derive(Debug, Clone)]
enum ServingSampler {
    Gaussian(CopulaSampler),
    StudentT(TCopulaSampler),
}

impl FittedModel {
    /// Validates an artifact and builds the serving model.
    ///
    /// On-load validation re-checks everything sampling will rely on,
    /// refusing with [`DpCopulaError::CorruptModel`] instead of letting a
    /// damaged model panic (or silently mis-sample) downstream:
    ///
    /// * schema non-empty; one margin histogram per attribute, each with
    ///   exactly its domain's bin count;
    /// * margin-method provenance resolves in the builtin
    ///   [`MarginRegistry`];
    /// * correlation matrix has unit diagonal, symmetry and entries in
    ///   `[-1, 1]`;
    /// * the matrix is positive definite — checked by the same Cholesky
    ///   path sampling uses (Algorithm 5's repair guarantees this for
    ///   anything the fit actually wrote).
    pub fn from_artifact(artifact: ModelArtifact) -> Result<Self, DpCopulaError> {
        let corrupt = |reason: String| DpCopulaError::CorruptModel { reason };
        let m = artifact.schema.len();
        if m == 0 {
            return Err(corrupt("schema has no attributes".into()));
        }
        if artifact.margins.len() != m {
            return Err(corrupt(format!(
                "{} margins for {m} schema attributes",
                artifact.margins.len()
            )));
        }
        for (attr, counts) in artifact.schema.iter().zip(&artifact.margins) {
            if counts.len() != attr.domain {
                return Err(corrupt(format!(
                    "margin of `{}` has {} bins for domain {}",
                    attr.name,
                    counts.len(),
                    attr.domain
                )));
            }
            if counts.iter().any(|c| !c.is_finite()) {
                return Err(corrupt(format!(
                    "margin of `{}` contains non-finite counts",
                    attr.name
                )));
            }
        }
        if !MarginRegistry::builtin().contains(&artifact.margin_method) {
            return Err(corrupt(format!(
                "margin method `{}` is not a known MarginRegistry name",
                artifact.margin_method
            )));
        }
        let p = &artifact.correlation;
        if p.rows() != m || p.cols() != m {
            return Err(corrupt(format!(
                "{}x{} correlation matrix for {m} attributes",
                p.rows(),
                p.cols()
            )));
        }
        if !is_correlation_shaped(p, CORRELATION_TOL) {
            return Err(corrupt(
                "correlation matrix is not unit-diagonal symmetric with entries in [-1, 1]".into(),
            ));
        }
        let margins: Vec<MarginalDistribution> = artifact
            .margins
            .iter()
            .map(|noisy| MarginalDistribution::from_noisy_histogram(noisy))
            .collect();
        let sampler = match artifact.family {
            CopulaFamily::Gaussian => {
                // The sampler's own error already names the violated
                // invariant ("not positive definite" / margin count).
                ServingSampler::Gaussian(
                    CopulaSampler::new(p, margins).map_err(|e| corrupt(e.to_string()))?,
                )
            }
            CopulaFamily::StudentT { dof } => {
                if !dof.is_finite() || dof <= 0.0 {
                    return Err(corrupt(format!(
                        "student-t copula with invalid degrees of freedom {dof}"
                    )));
                }
                ServingSampler::StudentT(TCopulaSampler::new(p, dof, margins).map_err(|e| {
                    corrupt(format!("correlation matrix is not positive definite: {e}"))
                })?)
            }
            CopulaFamily::Hybrid { .. } => {
                return Err(DpCopulaError::UnsupportedModel {
                    reason: "hybrid-family artifacts cannot be served yet (the v1 format \
                             reserves the tag, but the histogram component is not stored)"
                        .into(),
                });
            }
        };
        if artifact.provenance.sample_chunk == 0 {
            return Err(corrupt("provenance sample_chunk must be positive".into()));
        }
        Ok(Self {
            artifact,
            sampler,
            sink: MetricsSink::off(),
        })
    }

    /// Loads and validates a `.dpcm` artifact from disk. Codec damage
    /// (bad checksum, truncation, unknown version) and semantic damage
    /// (indefinite matrix, shape mismatches) both surface as
    /// [`DpCopulaError::CorruptModel`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, DpCopulaError> {
        Self::from_artifact(ModelArtifact::load(path)?)
    }

    /// [`FittedModel::load`] with serving observability: byte and
    /// section-parse metrics from the decoder, `serve/load` /
    /// `serve/validate` spans, and a corruption-reject counter that
    /// covers semantic validation failures as well as codec damage. The
    /// loaded model keeps `sink` for its serving-path metrics.
    pub fn load_observed(
        path: impl AsRef<Path>,
        sink: &MetricsSink,
    ) -> Result<Self, DpCopulaError> {
        let span = sink.span("serve/load");
        let bytes = std::fs::read(path).map_err(StoreError::from);
        drop(span);
        let artifact = modelstore::decode_observed(&bytes?, sink)?;
        let span = sink.span("serve/validate");
        let model = Self::from_artifact(artifact);
        drop(span);
        match model {
            Ok(mut m) => {
                m.sink = sink.clone();
                Ok(m)
            }
            Err(e) => {
                // Codec damage is already counted inside the decoder;
                // this counts models that decoded cleanly but failed
                // semantic validation.
                sink.add(MODELSTORE_CORRUPTION_REJECTS_TOTAL, Unit::Count, 1);
                Err(e)
            }
        }
    }

    /// Routes this model's serving metrics (window spans, rows served,
    /// per-chunk latency) to `sink`. Freshly validated models start with
    /// a disabled sink.
    pub fn set_metrics_sink(&mut self, sink: MetricsSink) {
        self.sink = sink;
    }

    /// Persists the model as a `.dpcm` artifact.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        self.artifact.save(path)
    }

    /// The underlying artifact (schema, margins, matrix, ledger,
    /// provenance).
    pub fn artifact(&self) -> &ModelArtifact {
        &self.artifact
    }

    /// Number of attributes.
    pub fn dims(&self) -> usize {
        self.artifact.schema.len()
    }

    /// Per-attribute domain sizes.
    pub fn domains(&self) -> Vec<usize> {
        self.artifact.domains()
    }

    /// Renames the schema's attributes (e.g. to the CSV header names the
    /// fit input carried).
    ///
    /// # Panics
    /// Panics when `names.len() != self.dims()`.
    pub fn set_attribute_names<S: AsRef<str>>(&mut self, names: &[S]) {
        assert_eq!(names.len(), self.dims(), "one name per attribute");
        for (attr, name) in self.artifact.schema.iter_mut().zip(names) {
            attr.name = name.as_ref().to_string();
        }
    }

    /// Draws the absolute row window `[offset, offset + n)`, column-major,
    /// fanned out across `workers` threads: [`Self::try_sample_blocks`]
    /// with each chunk's columns kept as they are, concatenated in chunk
    /// order.
    ///
    /// Bit-identical at any worker count and under any window split:
    /// the window `[0, N)` equals `[0, k)` concatenated with `[k, N)` for
    /// every `k` — each worker of a sharded deployment owns a window and
    /// the shards jointly reproduce the one-machine output. `Reference`
    /// reproduces the pinned serving bytes (the window `[0, n)` equals
    /// the rows [`crate::SynthesisRequest::run`] releases for the same
    /// seed and chunk); `Fast` serves an equally valid draw from the same
    /// model at much higher throughput, deterministic with itself.
    /// Student-t models have no vectorised path yet and serve the
    /// reference stream under either profile.
    ///
    /// A window whose end would overflow the addressable row space (it
    /// comes from untrusted input: CLI flags, RPC requests) is refused
    /// with [`DpCopulaError::RowWindowOverflow`] instead of panicking
    /// inside the chunk-grid math.
    pub fn try_sample_range_profiled(
        &self,
        profile: SamplingProfile,
        offset: usize,
        n: usize,
        workers: usize,
    ) -> Result<Vec<Vec<u32>>, DpCopulaError> {
        let pieces = self.try_sample_blocks(profile, offset, n, workers, |_, columns| columns)?;
        Ok(concat_chunks(self.dims(), n, pieces))
    }

    /// The serving entry point of a fitted model: draws the window
    /// `[offset, offset + n)` chunk by chunk on the sampling grid, across
    /// `workers` threads, and maps each chunk's columns through
    /// `encode(i, columns)` (`i` is the chunk's position in the window)
    /// on the worker that drew them. Returns the blocks in chunk order; a
    /// window of 0 rows has none.
    ///
    /// The rows are those of [`Self::try_sample_range_profiled`] (the
    /// same kernels, streams and burns), so the blocks concatenate to an
    /// encoding of its window, and the same `serve/window` span,
    /// window/row counters and `parkit` task metrics are recorded. A
    /// window whose end overflows the row space is refused with
    /// [`DpCopulaError::RowWindowOverflow`].
    pub fn try_sample_blocks<B, E>(
        &self,
        profile: SamplingProfile,
        offset: usize,
        n: usize,
        workers: usize,
        encode: E,
    ) -> Result<Vec<B>, DpCopulaError>
    where
        B: Send,
        E: Fn(usize, Vec<Vec<u32>>) -> B + Sync,
    {
        if offset.checked_add(n).is_none() {
            return Err(DpCopulaError::RowWindowOverflow { offset, n });
        }
        let span = self.sink.span("serve/window");
        self.sink.add(SERVE_WINDOWS_TOTAL, Unit::Count, 1);
        self.sink.add(SERVE_ROWS_TOTAL, Unit::Count, n as u64);
        let blocks = self.sample_blocks(profile, offset, n, workers, STAGE_SERVE, encode);
        drop(span);
        Ok(blocks)
    }

    /// The one chunk loop behind every window of this model, served or
    /// released by [`crate::SynthesisRequest::run`]: splits `[offset,
    /// offset + n)` into the chunks of the provenance grid, draws chunk
    /// `c` on `stream_rng(base_seed, sampler_stream, c)` with the
    /// family's kernel across `workers` threads, and maps its columns
    /// through `encode(i, columns)` on the worker that drew them. Counts
    /// the rows under their profile; the `parkit` task metrics go to
    /// this model's sink under `stage`. The caller checks that the
    /// window fits the row space.
    pub(crate) fn sample_blocks<B, E>(
        &self,
        profile: SamplingProfile,
        offset: usize,
        n: usize,
        workers: usize,
        stage: &str,
        encode: E,
    ) -> Vec<B>
    where
        B: Send,
        E: Fn(usize, Vec<Vec<u32>>) -> B + Sync,
    {
        self.sink.add_labeled(
            SAMPLING_PROFILE_ROWS_TOTAL,
            &[("profile", profile.name())],
            Unit::Count,
            n as u64,
        );
        let prov = &self.artifact.provenance;
        let window = RowWindow {
            offset,
            n,
            base_seed: prov.base_seed,
            stream: prov.sampler_stream,
            chunk: prov.sample_chunk as usize,
        };
        fan_out_chunks(window, workers, &self.sink, stage, |i, rng, skip, take| {
            let columns = match &self.sampler {
                ServingSampler::Gaussian(s) => s.sample_chunk(profile, rng, skip, take),
                // One (reference) kernel serves both profiles.
                ServingSampler::StudentT(s) => {
                    record_chunk(s.dims(), skip, take, |buf| s.sample_record(rng, buf))
                }
            };
            encode(i, columns)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use crate::synthesizer::DpCopulaConfig;
    use crate::SynthesisRequest;
    use dpmech::Epsilon;
    use rngkit::rngs::StdRng;
    use rngkit::{Rng, SeedableRng};

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

    fn fitted(seed: u64) -> FittedModel {
        let cols = test_columns(3, 2_000, 32, seed);
        let (model, _) = SynthesisRequest::new(&cols, &[32, 32, 32], Epsilon::new(1.0).unwrap())
            .workers(2)
            .seed(seed)
            .fit()
            .unwrap();
        model
    }

    /// A reference-profile window.
    fn range(model: &FittedModel, offset: usize, n: usize, workers: usize) -> Vec<Vec<u32>> {
        model
            .try_sample_range_profiled(SamplingProfile::Reference, offset, n, workers)
            .unwrap()
    }

    #[test]
    fn fit_then_sample_matches_synthesize_staged() {
        // Fit, then serve the window [0, n): the rows a one-shot run
        // releases at the same seed and chunk.
        let cols = test_columns(3, 2_000, 32, 1);
        let domains = vec![32usize; 3];
        let request = SynthesisRequest::new(&cols, &domains, Epsilon::new(1.0).unwrap())
            .workers(2)
            .seed(42);
        let (synth, _) = request.run().unwrap();
        let (model, report) = request.fit().unwrap();
        assert_eq!(report.timings.sampling, std::time::Duration::ZERO);
        assert_eq!(range(&model, 0, 2_000, 4), synth.columns);
        assert_eq!(model.artifact().correlation, synth.correlation);
        assert_eq!(model.artifact().margins, synth.noisy_margins);
        let ledger = &model.artifact().ledger;
        assert!((ledger.spent() - 1.0).abs() < 1e-9);
        assert_eq!(ledger.total, 1.0);
    }

    #[test]
    fn sharded_fit_records_per_shard_provenance_and_round_trips() {
        let cols = test_columns(3, 2_000, 32, 2);
        let domains = vec![32usize; 3];
        let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
        let fit = |opts: EngineOptions| {
            SynthesisRequest::from_config(&cols, &domains, config)
                .engine(opts)
                .seed(42)
                .fit()
                .unwrap()
                .0
        };

        let mut opts = EngineOptions::with_workers(2);
        opts.shards = 4;
        let model = fit(opts);
        let artifact = model.artifact();

        // Four shard records covering the rows exactly, stream indices
        // in shard order.
        assert_eq!(artifact.provenance.shards.len(), 4);
        assert_eq!(artifact.provenance.shards[0].row_start, 0);
        assert_eq!(artifact.provenance.shards[3].row_end, 2_000);
        for (s, info) in artifact.provenance.shards.iter().enumerate() {
            assert_eq!(info.seed_index, s as u64);
            assert!(info.row_end > info.row_start);
        }

        // Shards spend nothing of their own: the ledger and the margins
        // are the unsharded fit's.
        let plain = fit(EngineOptions::with_workers(2));
        assert_eq!(artifact.ledger, plain.artifact().ledger);
        assert_eq!(artifact.margins, plain.artifact().margins);
        assert!((artifact.ledger.spent() - 1.0).abs() < 1e-9);

        // The sharded artifact uses format v2 and round-trips losslessly.
        let bytes = artifact.encode();
        assert_eq!(modelstore::probe_version(&bytes).unwrap(), 2);
        assert_eq!(&ModelArtifact::decode(&bytes).unwrap(), artifact);

        // The unsharded fit stays on v1 with no shard records at all.
        assert!(plain.artifact().provenance.shards.is_empty());
        assert_eq!(
            modelstore::probe_version(&plain.artifact().encode()).unwrap(),
            1
        );
    }

    #[test]
    fn save_load_serve_round_trips_bit_identically() {
        let model = fitted(7);
        let dir = std::env::temp_dir().join(format!("dpcm_model_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.dpcm");
        model.save(&path).unwrap();
        let served = FittedModel::load(&path).unwrap();
        assert_eq!(served.artifact(), model.artifact());
        assert_eq!(range(&served, 0, 500, 3), range(&model, 0, 500, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sample_range_shards_are_disjoint_and_seamless() {
        let model = fitted(9);
        let whole = range(&model, 0, 3_000, 1);
        // Three disjoint shards, different worker counts, stitched.
        let shards = [
            range(&model, 0, 1_000, 2),
            range(&model, 1_000, 1_000, 7),
            range(&model, 2_000, 1_000, 3),
        ];
        for j in 0..model.dims() {
            let stitched: Vec<u32> = shards.iter().flat_map(|s| s[j].iter().copied()).collect();
            assert_eq!(stitched, whole[j], "column {j}");
        }
    }

    #[test]
    fn overflowing_serving_windows_are_refused() {
        let model = fitted(8);
        let err = model
            .try_sample_range_profiled(SamplingProfile::Reference, usize::MAX - 5, 100, 2)
            .unwrap_err();
        assert_eq!(
            err,
            DpCopulaError::RowWindowOverflow {
                offset: usize::MAX - 5,
                n: 100
            }
        );
        assert!(err.to_string().contains("overflows"), "{err}");
        // In-range windows are the matching slice of a wider window.
        let wide = range(&model, 0, 60, 1);
        let narrow = range(&model, 10, 50, 2);
        for (n, w) in narrow.iter().zip(&wide) {
            assert_eq!(n[..], w[10..]);
        }
    }

    #[test]
    fn attribute_names_round_trip() {
        let mut model = fitted(3);
        model.set_attribute_names(&["age", "income", "hours"]);
        let names: Vec<&str> = model
            .artifact()
            .schema
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        assert_eq!(names, vec!["age", "income", "hours"]);
    }

    #[test]
    fn corrupt_matrix_is_rejected_on_load() {
        let model = fitted(5);
        // Asymmetric matrix.
        let mut bad = model.artifact().clone();
        bad.correlation[(0, 1)] = 0.9;
        bad.correlation[(1, 0)] = -0.9;
        assert!(matches!(
            FittedModel::from_artifact(bad).unwrap_err(),
            DpCopulaError::CorruptModel { .. }
        ));
        // Non-unit diagonal.
        let mut bad = model.artifact().clone();
        bad.correlation[(2, 2)] = 1.5;
        assert!(matches!(
            FittedModel::from_artifact(bad).unwrap_err(),
            DpCopulaError::CorruptModel { .. }
        ));
        // Symmetric, unit diagonal, in range — but indefinite.
        let mut bad = model.artifact().clone();
        for i in 0..3 {
            for j in 0..3 {
                bad.correlation[(i, j)] = if i == j { 1.0 } else { -0.9 };
            }
        }
        let err = FittedModel::from_artifact(bad).unwrap_err();
        match err {
            DpCopulaError::CorruptModel { reason } => {
                assert!(reason.contains("positive definite"), "{reason}")
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn mismatched_margins_and_unknown_method_are_rejected() {
        let model = fitted(2);
        let mut bad = model.artifact().clone();
        bad.margins[0].push(1.0);
        assert!(matches!(
            FittedModel::from_artifact(bad).unwrap_err(),
            DpCopulaError::CorruptModel { .. }
        ));
        let mut bad = model.artifact().clone();
        bad.margin_method = "no-such-method".into();
        assert!(matches!(
            FittedModel::from_artifact(bad).unwrap_err(),
            DpCopulaError::CorruptModel { .. }
        ));
    }

    #[test]
    fn student_t_artifacts_serve_deterministic_windows() {
        let model = fitted(11);
        let mut artifact = model.artifact().clone();
        artifact.family = CopulaFamily::StudentT { dof: 5.0 };
        let t_model = FittedModel::from_artifact(artifact).unwrap();
        let whole = range(&t_model, 0, 1_000, 1);
        let head = range(&t_model, 0, 321, 4);
        let tail = range(&t_model, 321, 679, 2);
        for j in 0..t_model.dims() {
            let stitched: Vec<u32> = head[j].iter().chain(&tail[j]).copied().collect();
            assert_eq!(stitched, whole[j], "column {j}");
        }
        // t sampling differs from the Gaussian path.
        assert_ne!(whole, range(&model, 0, 1_000, 1));
    }

    #[test]
    fn hybrid_artifacts_are_refused_as_unsupported() {
        let mut artifact = fitted(4).artifact().clone();
        artifact.family = CopulaFamily::Hybrid { threshold: 8 };
        assert!(matches!(
            FittedModel::from_artifact(artifact).unwrap_err(),
            DpCopulaError::UnsupportedModel { .. }
        ));
    }

    #[test]
    fn corrupt_file_surfaces_precise_reason() {
        let model = fitted(6);
        let dir = std::env::temp_dir().join(format!("dpcm_corrupt_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.dpcm");
        model.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match FittedModel::load(&path).unwrap_err() {
            DpCopulaError::CorruptModel { reason } => {
                assert!(reason.contains("offset"), "{reason}");
            }
            other => panic!("unexpected error {other}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
