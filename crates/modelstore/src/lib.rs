//! # modelstore — the `.dpcm` model artifact store
//!
//! DPCopula's output is really a *model*: the ε-budgeted published
//! marginal histograms plus the repaired correlation matrix. Everything
//! after publication — CDF construction, Cholesky factorisation,
//! sampling any number of synthetic rows — is post-processing that
//! consumes no additional privacy budget. This crate makes that model a
//! durable, self-describing artifact so a deployment can **fit once and
//! serve forever** without touching the raw data or the budget again:
//!
//! * [`ModelArtifact`] — the released object as plain data: schema,
//!   margins, correlation matrix, copula family, spent-budget ledger and
//!   RNG provenance;
//! * the `.dpcm` wire format ([`format`](mod@format)) — versioned,
//!   little-endian, with a CRC-32 per section so any single-byte
//!   corruption is rejected at load with the damaged section's name and
//!   byte offset;
//! * the `.dpcs` shard-summary format ([`shard_format`]) — one shard's
//!   exact counts and τ sample for a distributed fit, under the same
//!   framing and corruption-rejection contract;
//! * an in-repo [`crc32`](crc32::crc32) and byte [`codec`] — the
//!   workspace is dependency-free by design.
//!
//! The serving layer lives in `dpcopula::model` (`FittedModel`), which
//! wraps an artifact with a ready Cholesky factor and deterministic
//! row-window sampling.
//!
//! ```
//! use modelstore::{AttributeSpec, BudgetEntry, BudgetLedger, CopulaFamily,
//!                  ModelArtifact, RngProvenance};
//!
//! let artifact = ModelArtifact {
//!     schema: vec![AttributeSpec::new("age", 3)],
//!     margin_method: "efpa".into(),
//!     margins: vec![vec![5.0, 2.0, 1.0]],
//!     correlation: mathkit::Matrix::identity(1),
//!     family: CopulaFamily::Gaussian,
//!     ledger: BudgetLedger {
//!         total: 1.0,
//!         entries: vec![BudgetEntry { label: "margins".into(), epsilon: 1.0 }],
//!     },
//!     provenance: RngProvenance {
//!         base_seed: 42,
//!         sample_chunk: 8192,
//!         sampler_stream: 6,
//!         scheme: "splitmix64x3/xoshiro256++".into(),
//!         shards: vec![],
//!     },
//! };
//! let bytes = artifact.encode();
//! assert_eq!(ModelArtifact::decode(&bytes).unwrap(), artifact);
//! ```

#![warn(missing_docs)]

pub mod artifact;
pub mod codec;
pub mod crc32;
pub mod format;
pub mod shard_format;

pub use artifact::{
    AttributeSpec, BudgetEntry, BudgetLedger, CopulaFamily, ModelArtifact, RngProvenance, ShardInfo,
};
pub use format::{
    decode, decode_observed, encode, probe, probe_version, write_atomic, SectionInfo, StoreError,
    FORMAT_VERSION, MAGIC,
};
pub use shard_format::{
    decode_shard_artifact, encode_shard_artifact, probe_shard_artifact, SamplingSpec,
    ShardArtifact, ShardFitConfig, SHARD_FORMAT_VERSION, SHARD_MAGIC,
};
