//! Error type for the DPCopula pipeline.

use dpmech::{BudgetError, Epsilon};
use mathkit::cholesky::CholeskyError;

/// The smallest ε one mechanism of a fit may spend. Below it a
/// mechanism's arithmetic leaves the finite `f64`s: EFPA's
/// exponential-mechanism score `16k²/ε²` overflows below about 6e-145
/// for a `u32` domain, and a Laplace scale `Δ/ε` near 1e-308. The floor
/// sits well above both and still admits ε = 1e-100 at m = 4, whose
/// smallest budget is about 1.9e-102.
pub const MIN_MECHANISM_EPSILON: f64 = 1e-120;

/// Everything that can go wrong while fitting or sampling a DP copula.
///
/// Non-exhaustive: new pipeline stages and serving paths will add
/// failure modes, so downstream matches must keep a wildcard arm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DpCopulaError {
    /// The input had no attributes or no records.
    EmptyInput,
    /// Columns have different lengths.
    RaggedColumns,
    /// `columns.len() != domains.len()`.
    ArityMismatch {
        /// Number of data columns supplied.
        columns: usize,
        /// Number of domain sizes supplied.
        domains: usize,
    },
    /// A value fell outside its declared domain.
    ValueOutOfDomain {
        /// Dimension index.
        dim: usize,
        /// Offending value.
        value: u32,
        /// Domain size of that dimension.
        domain: usize,
    },
    /// Privacy budget problems (invalid epsilon, over-spending).
    Budget(BudgetError),
    /// The operation needs more records than the dataset holds (e.g.
    /// Kendall's tau requires at least two observations).
    TooFewRecords {
        /// Records available.
        records: usize,
        /// Records required.
        required: usize,
    },
    /// The operation needs more attributes than the dataset has (e.g.
    /// copula-family selection requires dependence to compare).
    TooFewAttributes {
        /// Attributes available.
        attributes: usize,
        /// Attributes required.
        required: usize,
    },
    /// DPCopula-MLE needs `l > C(m,2) / (0.025 * eps2)` partitions with at
    /// least 2 records each; the dataset is too small for the requested
    /// dimensionality/budget (§4.1 of the paper).
    InsufficientDataForMle {
        /// Partitions required.
        required_partitions: usize,
        /// Records available.
        records: usize,
    },
    /// A correlation matrix failed the Cholesky factorisation even after
    /// the eigenvalue repair — numerically it is not positive definite,
    /// so no copula can be sampled from it.
    NotPositiveDefinite(CholeskyError),
    /// A sampler was asked to pair a correlation matrix with a different
    /// number of marginal distributions — one margin per matrix
    /// dimension is required.
    MarginCountMismatch {
        /// Number of marginal distributions supplied.
        margins: usize,
        /// Dimension of the correlation matrix.
        dims: usize,
    },
    /// A stored model artifact failed decoding or its on-load validation
    /// (checksums, unit diagonal, symmetry, positive-definiteness) —
    /// serving it would produce garbage or panic downstream, so the load
    /// is refused instead.
    CorruptModel {
        /// What failed, as precisely as the layer that caught it knows
        /// (section name + byte offset for codec damage, the violated
        /// invariant for semantic damage).
        reason: String,
    },
    /// The artifact is well-formed but this serving layer cannot sample
    /// its model (e.g. a copula family reserved in the format that has
    /// no sampler yet).
    UnsupportedModel {
        /// What is unsupported.
        reason: String,
    },
    /// A requested serving window `[offset, offset + n)` overflows the
    /// addressable synthetic row space — serving it would wrap around and
    /// silently return the wrong rows.
    RowWindowOverflow {
        /// Window start (absolute row index).
        offset: usize,
        /// Requested window length.
        n: usize,
    },
    /// A sharded fit was requested with zero shards — there is no data
    /// partition to fit.
    ZeroShards,
    /// More shards were requested than the dataset has records, so some
    /// shard of the disjoint partition would be empty.
    TooManyShards {
        /// Shards requested.
        shards: usize,
        /// Records available.
        records: usize,
    },
    /// Shard inputs disagree on the released schema (attribute count or
    /// domains), so their summaries cannot be merged into one model.
    ShardSchemaMismatch {
        /// Index of the first disagreeing shard.
        shard: usize,
        /// How it disagrees with shard 0.
        reason: String,
    },
    /// The configured correlation estimator has no mergeable summary, so
    /// it cannot run across more than one shard (only Kendall's tau
    /// merges exactly; see DESIGN.md §12).
    ShardedCorrelationUnsupported {
        /// Name of the unsupported estimator.
        method: &'static str,
    },
    /// A streaming input source failed while being read (I/O error,
    /// malformed row, or a rewind requested from a one-pass source).
    InputSource {
        /// What went wrong, as reported by the source.
        reason: String,
    },
    /// A shard fit was requested for a shard index outside the declared
    /// shard count.
    ShardIndexOutOfRange {
        /// Requested shard index.
        index: usize,
        /// Declared shard count.
        shards: usize,
    },
    /// A shard fit's input part held a different number of rows than its
    /// slot of the global partition — the part files do not line up with
    /// `shard_specs(total_rows, shards)`, so the merged release would
    /// not match the single-process fit.
    ShardRowCountMismatch {
        /// Rows the shard's partition slot covers.
        expected: usize,
        /// Rows the input part actually held.
        found: usize,
    },
    /// A `.dpcs` shard artifact disagrees with the first artifact of the
    /// merge set (schema, fit configuration, total rows, or row ranges),
    /// naming the culprit file.
    ShardArtifactMismatch {
        /// Path of the disagreeing artifact.
        file: String,
        /// How it disagrees.
        reason: String,
    },
    /// Two `.dpcs` artifacts of one merge set claim the same shard
    /// index — the partition would double-count its rows.
    DuplicateShardIndex {
        /// The claimed-twice shard index.
        index: usize,
        /// Path of the second artifact claiming it.
        file: String,
    },
    /// The merge was given a different number of shard artifacts than
    /// the artifacts themselves declare the fit was split into.
    ShardCountMismatch {
        /// Shard count declared inside the artifacts.
        declared: usize,
        /// Artifacts actually provided.
        provided: usize,
    },
    /// The budget plan gives some mechanism less than
    /// [`MIN_MECHANISM_EPSILON`] (see [`validate_budget`]).
    BudgetBelowFloor {
        /// The smallest per-mechanism budget of the plan.
        smallest: f64,
    },
}

impl std::fmt::Display for DpCopulaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DpCopulaError::EmptyInput => write!(f, "input data is empty"),
            DpCopulaError::RaggedColumns => write!(f, "columns have differing lengths"),
            DpCopulaError::ArityMismatch { columns, domains } => write!(
                f,
                "{columns} data columns but {domains} domain sizes supplied"
            ),
            DpCopulaError::ValueOutOfDomain { dim, value, domain } => write!(
                f,
                "value {value} in dimension {dim} is outside its domain of size {domain}"
            ),
            DpCopulaError::Budget(e) => write!(f, "privacy budget error: {e}"),
            DpCopulaError::TooFewRecords { records, required } => write!(
                f,
                "operation requires at least {required} records, got {records}"
            ),
            DpCopulaError::TooFewAttributes {
                attributes,
                required,
            } => write!(
                f,
                "operation requires at least {required} attributes, got {attributes}"
            ),
            DpCopulaError::InsufficientDataForMle {
                required_partitions,
                records,
            } => write!(
                f,
                "DPCopula-MLE requires at least {required_partitions} partitions \
                 of >= 2 records but only {records} records are available"
            ),
            DpCopulaError::NotPositiveDefinite(e) => {
                write!(f, "correlation matrix is not positive definite: {e}")
            }
            DpCopulaError::MarginCountMismatch { margins, dims } => write!(
                f,
                "need one marginal distribution per matrix dimension: \
                 {margins} margins for a {dims}-dimensional matrix"
            ),
            DpCopulaError::CorruptModel { reason } => {
                write!(f, "corrupt model artifact: {reason}")
            }
            DpCopulaError::UnsupportedModel { reason } => {
                write!(f, "unsupported model artifact: {reason}")
            }
            DpCopulaError::RowWindowOverflow { offset, n } => write!(
                f,
                "row window [{offset}, {offset} + {n}) overflows the addressable row space"
            ),
            DpCopulaError::ZeroShards => {
                write!(f, "sharded fit requires at least one shard, got 0")
            }
            DpCopulaError::TooManyShards { shards, records } => write!(
                f,
                "{shards} shards requested but only {records} records are \
                 available — every shard needs at least one record"
            ),
            DpCopulaError::ShardSchemaMismatch { shard, reason } => {
                write!(f, "shard {shard} schema does not match shard 0: {reason}")
            }
            DpCopulaError::ShardedCorrelationUnsupported { method } => write!(
                f,
                "correlation method {method} has no mergeable summary and \
                 cannot fit across more than one shard (use kendall)"
            ),
            DpCopulaError::InputSource { reason } => {
                write!(f, "input source failed: {reason}")
            }
            DpCopulaError::ShardIndexOutOfRange { index, shards } => write!(
                f,
                "shard index {index} is outside the declared shard count {shards}"
            ),
            DpCopulaError::ShardRowCountMismatch { expected, found } => write!(
                f,
                "shard input holds {found} rows but its slot of the global \
                 partition covers {expected}"
            ),
            DpCopulaError::ShardArtifactMismatch { file, reason } => {
                write!(
                    f,
                    "shard artifact {file} does not match the merge set: {reason}"
                )
            }
            DpCopulaError::DuplicateShardIndex { index, file } => write!(
                f,
                "shard artifact {file} claims shard index {index}, which another \
                 artifact of the merge set already holds"
            ),
            DpCopulaError::ShardCountMismatch { declared, provided } => write!(
                f,
                "{provided} shard artifacts provided but the fit was declared \
                 as {declared} shards"
            ),
            DpCopulaError::BudgetBelowFloor { smallest } => write!(
                f,
                "per-mechanism budget {smallest:e} (epsilon_1/m per margin, \
                 epsilon_2/C(m,2) per pair, count_fraction*epsilon per hybrid \
                 partition count) is below the floor {MIN_MECHANISM_EPSILON:e}"
            ),
        }
    }
}

impl std::error::Error for DpCopulaError {}

impl From<BudgetError> for DpCopulaError {
    fn from(e: BudgetError) -> Self {
        DpCopulaError::Budget(e)
    }
}

impl From<CholeskyError> for DpCopulaError {
    fn from(e: CholeskyError) -> Self {
        DpCopulaError::NotPositiveDefinite(e)
    }
}

impl From<parkit::WindowOverflow> for DpCopulaError {
    fn from(e: parkit::WindowOverflow) -> Self {
        DpCopulaError::RowWindowOverflow {
            offset: e.offset,
            n: e.n,
        }
    }
}

impl From<modelstore::StoreError> for DpCopulaError {
    fn from(e: modelstore::StoreError) -> Self {
        DpCopulaError::CorruptModel {
            reason: e.to_string(),
        }
    }
}

impl From<datagen::SourceError> for DpCopulaError {
    fn from(e: datagen::SourceError) -> Self {
        DpCopulaError::InputSource {
            reason: e.to_string(),
        }
    }
}

/// Validates the common columnar-input invariants shared by all
/// synthesizers.
pub fn validate_columns(columns: &[Vec<u32>], domains: &[usize]) -> Result<(), DpCopulaError> {
    validate_shape(columns, domains)?;
    for (dim, (col, &domain)) in columns.iter().zip(domains).enumerate() {
        if let Some(&value) = col.iter().find(|&&v| v as usize >= domain) {
            return Err(DpCopulaError::ValueOutOfDomain { dim, value, domain });
        }
    }
    Ok(())
}

/// Refuses a budget plan over `attributes` columns whose smallest
/// per-mechanism budget — `ε₁/m` for a margin, `ε₂/C(m,2)` for a pair,
/// from `epsilon.split_ratio(k_ratio)` — is below
/// [`MIN_MECHANISM_EPSILON`]. One attribute releases no pair.
pub fn validate_budget(
    epsilon: Epsilon,
    k_ratio: f64,
    attributes: usize,
) -> Result<(), DpCopulaError> {
    let (eps1, eps2) = epsilon.split_ratio(k_ratio);
    let m = attributes.max(1);
    let pairs = m * (m - 1) / 2;
    let mut smallest = eps1.divide(m).value();
    if pairs > 0 {
        smallest = smallest.min(eps2.divide(pairs).value());
    }
    if smallest >= MIN_MECHANISM_EPSILON {
        Ok(())
    } else {
        Err(DpCopulaError::BudgetBelowFloor { smallest })
    }
}

/// The shape half of [`validate_columns`]: at least one attribute and
/// one record, one domain per column, no ragged columns. The fit checks
/// the values themselves as its row reducer counts them.
pub(crate) fn validate_shape(columns: &[Vec<u32>], domains: &[usize]) -> Result<(), DpCopulaError> {
    if columns.is_empty() {
        return Err(DpCopulaError::EmptyInput);
    }
    if columns.len() != domains.len() {
        return Err(DpCopulaError::ArityMismatch {
            columns: columns.len(),
            domains: domains.len(),
        });
    }
    let n = columns[0].len();
    if n == 0 {
        return Err(DpCopulaError::EmptyInput);
    }
    if columns.iter().any(|col| col.len() != n) {
        return Err(DpCopulaError::RaggedColumns);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_input() {
        let cols = vec![vec![0u32, 1, 2], vec![3u32, 4, 5]];
        assert!(validate_columns(&cols, &[3, 6]).is_ok());
    }

    #[test]
    fn rejects_empty_and_ragged() {
        assert_eq!(validate_columns(&[], &[]), Err(DpCopulaError::EmptyInput));
        let empty_col = vec![Vec::<u32>::new()];
        assert_eq!(
            validate_columns(&empty_col, &[4]),
            Err(DpCopulaError::EmptyInput)
        );
        let ragged = vec![vec![0u32, 1], vec![0u32]];
        assert_eq!(
            validate_columns(&ragged, &[2, 2]),
            Err(DpCopulaError::RaggedColumns)
        );
    }

    #[test]
    fn rejects_arity_and_domain_violations() {
        let cols = vec![vec![0u32, 5]];
        assert_eq!(
            validate_columns(&cols, &[4, 4]),
            Err(DpCopulaError::ArityMismatch {
                columns: 1,
                domains: 2
            })
        );
        assert_eq!(
            validate_columns(&cols, &[4]),
            Err(DpCopulaError::ValueOutOfDomain {
                dim: 0,
                value: 5,
                domain: 4
            })
        );
    }

    #[test]
    fn errors_render_human_readable() {
        let e = DpCopulaError::InsufficientDataForMle {
            required_partitions: 100,
            records: 5,
        };
        let s = e.to_string();
        assert!(s.contains("100") && s.contains("5"));
    }
}
