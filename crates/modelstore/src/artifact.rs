//! The fitted-model data: everything a DPCopula fit releases, as plain
//! owned values with no behaviour attached. The serving layer in
//! `dpcopula::model` turns this into a ready-to-sample `FittedModel`; the
//! format layer ([`crate::format`]) turns it into `.dpcm` bytes and back.

use mathkit::Matrix;

/// One attribute of the released schema.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeSpec {
    /// Human-readable attribute name.
    pub name: String,
    /// Integer domain size: values live on `0..domain`.
    pub domain: usize,
    /// Optional bin edges mapping the integer domain back to a continuous
    /// attribute (`domain + 1` monotone values). Empty means the domain
    /// *is* the attribute: unit-width integer bins.
    pub bin_edges: Vec<f64>,
}

impl AttributeSpec {
    /// An integer-domain attribute (no bin edges).
    pub fn new(name: impl Into<String>, domain: usize) -> Self {
        Self {
            name: name.into(),
            domain,
            bin_edges: Vec::new(),
        }
    }
}

/// Which copula family the correlation matrix parameterises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CopulaFamily {
    /// Gaussian copula — the paper's model (Algorithm 3).
    Gaussian,
    /// Student-t copula with the given degrees of freedom (extension).
    StudentT {
        /// Degrees of freedom `nu > 0`.
        dof: f64,
    },
    /// Hybrid: small domains via multi-dimensional histogram, the rest
    /// via the Gaussian copula (Algorithm 6). `threshold` is the domain
    /// size below which an attribute went to the histogram side.
    Hybrid {
        /// Small-domain threshold.
        threshold: u32,
    },
}

impl CopulaFamily {
    /// Stable wire tag of the family.
    pub fn tag(self) -> u8 {
        match self {
            CopulaFamily::Gaussian => 0,
            CopulaFamily::StudentT { .. } => 1,
            CopulaFamily::Hybrid { .. } => 2,
        }
    }

    /// Family parameters as a flat list (the wire representation).
    pub fn params(self) -> Vec<f64> {
        match self {
            CopulaFamily::Gaussian => Vec::new(),
            CopulaFamily::StudentT { dof } => vec![dof],
            CopulaFamily::Hybrid { threshold } => vec![f64::from(threshold)],
        }
    }

    /// Short human-readable family name.
    pub fn name(self) -> &'static str {
        match self {
            CopulaFamily::Gaussian => "gaussian",
            CopulaFamily::StudentT { .. } => "student-t",
            CopulaFamily::Hybrid { .. } => "hybrid",
        }
    }
}

/// One privacy-budget expenditure of the fit.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetEntry {
    /// What the budget bought (e.g. `margins`, `correlation`).
    pub label: String,
    /// Epsilon spent on it.
    pub epsilon: f64,
}

/// The spent-budget ledger: the DP accounting the artifact carries so a
/// consumer can audit what the release cost. Sampling from the artifact
/// spends nothing — it is post-processing of these expenditures.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetLedger {
    /// Total budget the fit was configured with.
    pub total: f64,
    /// Individual expenditures, in spend order. A sharded fit makes
    /// each release once over all rows, so its entries are the
    /// unsharded fit's.
    pub entries: Vec<BudgetEntry>,
}

impl BudgetLedger {
    /// Sum of all recorded expenditures.
    pub fn spent(&self) -> f64 {
        self.entries.iter().map(|e| e.epsilon).sum()
    }
}

/// Provenance of one shard of a sharded fit: which rows of the fit
/// input it covered and which logical stream index its row subsample
/// drew under (format v2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardInfo {
    /// First input row (inclusive) the shard covered.
    pub row_start: u64,
    /// One past the last input row the shard covered.
    pub row_end: u64,
    /// Logical stream index the shard's Kendall row subsample derived
    /// under: `stream_rng(base_seed, STREAM_KENDALL_SAMPLE, seed_index)`.
    pub seed_index: u64,
}

/// How the fit's randomness was derived, recorded so that serving — at
/// any later time, on any machine, at any worker count — reproduces the
/// exact bytes the fit would have sampled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RngProvenance {
    /// The base seed every stream generator derives from.
    pub base_seed: u64,
    /// Rows per sampling chunk. Chunk boundaries key the sampling
    /// streams, so this is part of the released value's identity.
    pub sample_chunk: u64,
    /// The stream id sampling chunks derive under (`STREAM_SAMPLER`).
    pub sampler_stream: u64,
    /// The stream-key scheme, e.g. `splitmix64x3/xoshiro256++` — a
    /// human-readable pin of the derivation in `parkit::stream_rng`.
    pub scheme: String,
    /// Per-shard fit provenance, in shard order (format v2). Empty for
    /// single-shard fits, which keeps their encoding on format v1.
    pub shards: Vec<ShardInfo>,
}

/// A fitted DPCopula model: the ε-budgeted published marginals plus the
/// repaired correlation matrix, with enough metadata to be fully
/// self-describing. Everything derivable from these fields (CDFs,
/// Cholesky factors, synthetic rows) is free post-processing.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArtifact {
    /// Released schema, one spec per attribute.
    pub schema: Vec<AttributeSpec>,
    /// `MarginRegistry` name of the 1-D publisher that produced the
    /// margins (provenance; the counts themselves are already noisy).
    pub margin_method: String,
    /// Published noisy marginal counts, one histogram per attribute
    /// (pre-normalisation — the CDF is derived, so nothing is lost).
    pub margins: Vec<Vec<f64>>,
    /// The repaired DP correlation matrix `P~` (Algorithm 5 output).
    pub correlation: Matrix,
    /// Copula family the matrix parameterises.
    pub family: CopulaFamily,
    /// Spent-budget ledger.
    pub ledger: BudgetLedger,
    /// RNG provenance for reproducible serving.
    pub provenance: RngProvenance,
}

impl ModelArtifact {
    /// Number of attributes.
    pub fn dims(&self) -> usize {
        self.schema.len()
    }

    /// Content identity of the artifact's canonical `.dpcm` encoding —
    /// what a model registry caches decoded models under. Encoding is
    /// deterministic (no timestamps or ambient state), so two artifacts
    /// share a checksum exactly when they are equal, and for a
    /// canonically written `.dpcm` file this equals
    /// [`fnv1a64`](crate::crc32::fnv1a64) of the file's bytes.
    ///
    /// This is deliberately **not** the whole-file CRC-32: every
    /// section already carries its own CRC-32 right after its payload,
    /// and by CRC linearity `delta ‖ crc(delta)` is itself a CRC
    /// codeword — so *any* two valid artifacts with equal section
    /// lengths collide on the whole-file CRC-32 (see the
    /// `whole_file_crc32_is_blind_to_section_rewrites` test). Identity
    /// therefore uses an unrelated hash.
    pub fn checksum(&self) -> u64 {
        crate::crc32::fnv1a64(&self.encode())
    }

    /// Per-attribute domain sizes.
    pub fn domains(&self) -> Vec<usize> {
        self.schema.iter().map(|a| a.domain).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> ModelArtifact {
        ModelArtifact {
            schema: vec![AttributeSpec::new("age", 3)],
            margin_method: "efpa".into(),
            margins: vec![vec![5.0, 2.0, 1.0]],
            correlation: mathkit::Matrix::identity(1),
            family: CopulaFamily::Gaussian,
            ledger: BudgetLedger {
                total: 1.0,
                entries: vec![BudgetEntry {
                    label: "margins".into(),
                    epsilon: 1.0,
                }],
            },
            provenance: RngProvenance {
                base_seed: 42,
                sample_chunk: 8192,
                sampler_stream: 6,
                scheme: "splitmix64x3/xoshiro256++".into(),
                shards: vec![],
            },
        }
    }

    #[test]
    fn checksum_is_the_hash_of_the_canonical_bytes() {
        let a = minimal();
        assert_eq!(a.checksum(), crate::crc32::fnv1a64(&a.encode()));
        // Stable across calls, and sensitive to any released value.
        assert_eq!(a.checksum(), a.checksum());
        let mut b = a.clone();
        b.margins[0][1] += 1.0;
        assert_ne!(a.checksum(), b.checksum());
        let mut c = a.clone();
        c.provenance.base_seed = 43;
        assert_ne!(a.checksum(), c.checksum());
    }

    #[test]
    fn whole_file_crc32_is_blind_to_section_rewrites() {
        // Why `checksum()` is not CRC-32: each `.dpcm` section stores
        // its own CRC-32 immediately after its payload, and the CRC of
        // `delta ‖ crc(delta)` is zero (the append property), so two
        // same-shape artifacts differing only in released values — here
        // the base seed — produce *different* bytes with *identical*
        // whole-file CRC-32. The FNV identity hash must still differ.
        let a = minimal();
        let mut c = a.clone();
        c.provenance.base_seed = 43;
        let (ea, ec) = (a.encode(), c.encode());
        assert_ne!(ea, ec);
        assert_eq!(crate::crc32::crc32(&ea), crate::crc32::crc32(&ec));
        assert_ne!(a.checksum(), c.checksum());
    }
}
