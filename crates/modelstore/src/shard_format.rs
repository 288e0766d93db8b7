//! The `.dpcs` shard-summary wire format: a versioned, checksummed
//! container for **one shard's** contribution to a distributed fit — its
//! exact counts and its share of the τ record sample — made durable so
//! independent workers can reduce shards on different hosts and a
//! coordinator can merge the artifacts into one `.dpcm` model.
//!
//! ## Layout (all integers little-endian)
//!
//! The framing is byte-for-byte the `.dpcm` container scheme
//! ([`crate::format`]) under a different magic: a 12-byte header
//! (`"DPCS"`, `u16` version, `u16` section count, CRC-32 of bytes 0..8)
//! followed by sections framed as `tag + u64 length + payload + u32
//! payload CRC`. Any flipped byte anywhere in the file is rejected at
//! load with the damaged section's name and byte offset — the same
//! corruption contract as `.dpcm`, pinned by the same style of
//! randomized tests.
//!
//! Sections of version 2, in fixed order:
//!
//! | tag    | name     | contents                                          |
//! |--------|----------|---------------------------------------------------|
//! | `SCHM` | schema   | attribute specs (same payload layout as `.dpcm`)  |
//! | `SHRD` | shard    | shard index/count, total rows, row range, seed    |
//! | `CONF` | config   | ε, k-ratio, margin method, τ strategy, seeds      |
//! | `MRGN` | margins  | the shard's exact `u64` histogram per attribute   |
//! | `TAUS` | tau      | the shard's τ row sample per attribute            |
//!
//! A shard releases nothing: the coordinator sums the shards' counts and
//! publishes each margin once, and pools their samples for one τ pass
//! with its noise drawn at merge time (DESIGN.md §14). A `.dpcs` is
//! therefore as sensitive as the raw rows it summarises. Version 1
//! files, whose shards published noisy margins and kept sub-ledgers of
//! their own, are refused with [`StoreError::ObsoleteShardVersion`].

use crate::codec::{ByteReader, ByteWriter};
use crate::format::{
    decode_schema, encode_framed, encode_schema_payload, field_err, split_framed, write_atomic,
    Framing, SectionInfo, SectionSlices, StoreError,
};
use crate::AttributeSpec;
use std::io::Read as _;
use std::path::Path;

/// File magic: the first four bytes of every `.dpcs` shard summary.
pub const SHARD_MAGIC: [u8; 4] = *b"DPCS";

/// The one `.dpcs` format version this codec reads and writes.
pub const SHARD_FORMAT_VERSION: u16 = 2;

/// Section tags, in their required file order.
const SECTION_ORDER: [&[u8; 4]; 5] = [b"SCHM", b"SHRD", b"CONF", b"MRGN", b"TAUS"];

/// Human-readable names matching [`SECTION_ORDER`] (used in errors).
const SECTION_NAMES: [&str; 5] = ["schema", "shard", "config", "margins", "tau"];

/// The `.dpcs` container's framing constants.
const DPCS_FRAMING: Framing = Framing {
    magic: SHARD_MAGIC,
    min_version: SHARD_FORMAT_VERSION,
    max_version: SHARD_FORMAT_VERSION,
    section_order: &SECTION_ORDER,
    section_names: &SECTION_NAMES,
};

/// The Kendall record-sampling strategy a shard fit ran with, as wire
/// data (mirrors `dpcopula`'s `SamplingStrategy` without depending on
/// it — modelstore stays the bottom layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingSpec {
    /// Every shard row participates in the τ estimate.
    Full,
    /// The paper's recommended sample size, capped at the row count.
    Auto,
    /// A fixed global sample-size target.
    Fixed(u64),
}

impl SamplingSpec {
    /// Stable wire tag.
    pub fn tag(self) -> u8 {
        match self {
            SamplingSpec::Full => 0,
            SamplingSpec::Auto => 1,
            SamplingSpec::Fixed(_) => 2,
        }
    }

    /// The fixed target, `0` for the non-fixed strategies.
    pub fn fixed_k(self) -> u64 {
        match self {
            SamplingSpec::Fixed(k) => k,
            _ => 0,
        }
    }
}

/// The fit configuration a shard ran under. Every shard of one
/// distributed fit must carry identical values here — the merge refuses
/// mixed configurations, naming the culprit file.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardFitConfig {
    /// Total privacy budget ε of the whole fit.
    pub epsilon: f64,
    /// Budget split ratio: margins get `k·ε`, correlations `(1-k)·ε`.
    pub k_ratio: f64,
    /// `MarginRegistry` name of the 1-D publisher.
    pub margin_method: String,
    /// Kendall record-sampling strategy.
    pub strategy: SamplingSpec,
    /// The base seed every stream generator derives from.
    pub base_seed: u64,
    /// Rows per sampling chunk of the eventual model (provenance the
    /// merged `.dpcm` must carry; part of the released identity).
    pub sample_chunk: u64,
    /// The stream-key scheme pin (`splitmix64x3/xoshiro256++`).
    pub scheme: String,
}

/// One shard's durable contribution to a distributed fit — its exact
/// counts and τ sample, plus the shard topology and fit configuration
/// needed to validate and merge it.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardArtifact {
    /// Released schema, one spec per attribute (identical across
    /// shards of one fit).
    pub schema: Vec<AttributeSpec>,
    /// This shard's index in `0..shard_count`.
    pub shard_index: u64,
    /// Total shard count of the fit.
    pub shard_count: u64,
    /// Total rows of the whole fit input (all shards).
    pub total_rows: u64,
    /// First input row (inclusive) this shard covered.
    pub row_start: u64,
    /// One past the last input row this shard covered.
    pub row_end: u64,
    /// Logical stream index of the shard (`= shard_index`).
    pub seed_index: u64,
    /// The fit configuration the shard ran under.
    pub config: ShardFitConfig,
    /// The shard's exact histogram per attribute, over its rows.
    pub counts: Vec<Vec<u64>>,
    /// The shard's τ record sample, one column per attribute in
    /// subsample order (empty for single-attribute fits, which have no
    /// pairs to estimate).
    pub sampled: Vec<Vec<u32>>,
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn encode_shard(a: &ShardArtifact) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(a.shard_index);
    w.put_u64(a.shard_count);
    w.put_u64(a.total_rows);
    w.put_u64(a.row_start);
    w.put_u64(a.row_end);
    w.put_u64(a.seed_index);
    w.into_bytes()
}

fn encode_config(c: &ShardFitConfig) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_f64(c.epsilon);
    w.put_f64(c.k_ratio);
    w.put_str(&c.margin_method);
    w.put_u8(c.strategy.tag());
    w.put_u64(c.strategy.fixed_k());
    w.put_u64(c.base_seed);
    w.put_u64(c.sample_chunk);
    w.put_str(&c.scheme);
    w.into_bytes()
}

fn encode_margins(a: &ShardArtifact) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(a.counts.len() as u32);
    for counts in &a.counts {
        w.put_u64(counts.len() as u64);
        for &c in counts {
            w.put_u64(c);
        }
    }
    w.into_bytes()
}

fn encode_tau(a: &ShardArtifact) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(a.sampled.len() as u32);
    w.put_u64(a.sampled.first().map(|c| c.len()).unwrap_or(0) as u64);
    for col in &a.sampled {
        for &v in col {
            w.put_u32(v);
        }
    }
    w.into_bytes()
}

/// Encodes the shard artifact into `.dpcs` bytes. Deterministic: the
/// same artifact always produces the same bytes.
pub fn encode_shard_artifact(a: &ShardArtifact) -> Vec<u8> {
    let payloads: [Vec<u8>; 5] = [
        encode_schema_payload(&a.schema),
        encode_shard(a),
        encode_config(&a.config),
        encode_margins(a),
        encode_tau(a),
    ];
    encode_framed(&DPCS_FRAMING, SHARD_FORMAT_VERSION, &payloads)
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct ShardTopology {
    shard_index: u64,
    shard_count: u64,
    total_rows: u64,
    row_start: u64,
    row_end: u64,
    seed_index: u64,
}

fn decode_shard(payload: &[u8], base: usize) -> Result<ShardTopology, StoreError> {
    let err = field_err("shard", base);
    let mut r = ByteReader::new(payload);
    let shard_index = r.u64("shard index").map_err(&err)?;
    let count_at = r.position();
    let shard_count = r.u64("shard count").map_err(&err)?;
    let rows_at = r.position();
    let total_rows = r.u64("total rows").map_err(&err)?;
    let range_at = r.position();
    let row_start = r.u64("row start").map_err(&err)?;
    let row_end = r.u64("row end").map_err(&err)?;
    let seed_index = r.u64("seed index").map_err(&err)?;
    if !r.is_exhausted() {
        return Err(StoreError::Malformed {
            section: "shard",
            offset: base + r.position(),
            reason: "unconsumed bytes at end of payload".into(),
        });
    }
    if shard_count == 0 {
        return Err(StoreError::Malformed {
            section: "shard",
            offset: base + count_at,
            reason: "zero shard count".into(),
        });
    }
    if shard_index >= shard_count {
        return Err(StoreError::Malformed {
            section: "shard",
            offset: base,
            reason: format!("shard index {shard_index} not in 0..{shard_count}"),
        });
    }
    if shard_count > total_rows {
        return Err(StoreError::Malformed {
            section: "shard",
            offset: base + rows_at,
            reason: format!("{shard_count} shards over {total_rows} total rows"),
        });
    }
    if row_start >= row_end || row_end > total_rows {
        return Err(StoreError::Malformed {
            section: "shard",
            offset: base + range_at,
            reason: format!("bad row range [{row_start}, {row_end}) of {total_rows} rows"),
        });
    }
    Ok(ShardTopology {
        shard_index,
        shard_count,
        total_rows,
        row_start,
        row_end,
        seed_index,
    })
}

fn decode_config(payload: &[u8], base: usize) -> Result<ShardFitConfig, StoreError> {
    let err = field_err("config", base);
    let mut r = ByteReader::new(payload);
    let epsilon = r.f64("epsilon").map_err(&err)?;
    let k_at = r.position();
    let k_ratio = r.f64("k ratio").map_err(&err)?;
    let method_at = r.position();
    let margin_method = r.str("margin method").map_err(&err)?;
    let tag_at = r.position();
    let tag = r.u8("strategy tag").map_err(&err)?;
    let k = r.u64("strategy k").map_err(&err)?;
    let base_seed = r.u64("base seed").map_err(&err)?;
    let chunk_at = r.position();
    let sample_chunk = r.u64("sample chunk").map_err(&err)?;
    let scheme = r.str("stream scheme").map_err(&err)?;
    if !r.is_exhausted() {
        return Err(StoreError::Malformed {
            section: "config",
            offset: base + r.position(),
            reason: "unconsumed bytes at end of payload".into(),
        });
    }
    if !epsilon.is_finite() || epsilon <= 0.0 {
        return Err(StoreError::Malformed {
            section: "config",
            offset: base,
            reason: format!("non-positive epsilon {epsilon}"),
        });
    }
    if !k_ratio.is_finite() || k_ratio <= 0.0 {
        return Err(StoreError::Malformed {
            section: "config",
            offset: base + k_at,
            reason: format!("non-positive k ratio {k_ratio}"),
        });
    }
    if margin_method.is_empty() {
        return Err(StoreError::Malformed {
            section: "config",
            offset: base + method_at,
            reason: "empty margin method".into(),
        });
    }
    let strategy = match tag {
        0 => SamplingSpec::Full,
        1 => SamplingSpec::Auto,
        2 => SamplingSpec::Fixed(k),
        other => {
            return Err(StoreError::Malformed {
                section: "config",
                offset: base + tag_at,
                reason: format!("unknown sampling strategy tag {other}"),
            })
        }
    };
    if sample_chunk == 0 {
        return Err(StoreError::Malformed {
            section: "config",
            offset: base + chunk_at,
            reason: "zero sample chunk".into(),
        });
    }
    Ok(ShardFitConfig {
        epsilon,
        k_ratio,
        margin_method,
        strategy,
        base_seed,
        sample_chunk,
        scheme,
    })
}

fn decode_margins(
    payload: &[u8],
    base: usize,
    schema: &[AttributeSpec],
) -> Result<Vec<Vec<u64>>, StoreError> {
    let err = field_err("margins", base);
    let mut r = ByteReader::new(payload);
    let m_at = r.position();
    let m = r.u32("margin count").map_err(&err)? as usize;
    if m != schema.len() {
        return Err(StoreError::Malformed {
            section: "margins",
            offset: base + m_at,
            reason: format!("{m} margins for {} schema attributes", schema.len()),
        });
    }
    let mut margins = Vec::with_capacity(m);
    for attr in schema {
        let len_at = r.position();
        let len = r.u64("margin length").map_err(&err)? as usize;
        if len != attr.domain {
            return Err(StoreError::Malformed {
                section: "margins",
                offset: base + len_at,
                reason: format!(
                    "margin of `{}` has {len} bins for domain {}",
                    attr.name, attr.domain
                ),
            });
        }
        let mut counts = Vec::with_capacity(len);
        for _ in 0..len {
            counts.push(r.u64("margin count").map_err(&err)?);
        }
        margins.push(counts);
    }
    if !r.is_exhausted() {
        return Err(StoreError::Malformed {
            section: "margins",
            offset: base + r.position(),
            reason: "unconsumed bytes at end of payload".into(),
        });
    }
    Ok(margins)
}

fn decode_tau(
    payload: &[u8],
    base: usize,
    m: usize,
    shard_rows: u64,
) -> Result<Vec<Vec<u32>>, StoreError> {
    let err = field_err("tau", base);
    let mut r = ByteReader::new(payload);
    let cols_at = r.position();
    let cols = r.u32("sampled column count").map_err(&err)? as usize;
    let want_cols = if m > 1 { m } else { 0 };
    if cols != want_cols {
        return Err(StoreError::Malformed {
            section: "tau",
            offset: base + cols_at,
            reason: format!("{cols} sampled columns for {m} attributes (want {want_cols})"),
        });
    }
    let len_at = r.position();
    let len = r.u64("sampled length").map_err(&err)? as usize;
    if cols == 0 && len != 0 {
        return Err(StoreError::Malformed {
            section: "tau",
            offset: base + len_at,
            reason: format!("{len} sampled rows with no sampled columns"),
        });
    }
    if len as u64 > shard_rows {
        return Err(StoreError::Malformed {
            section: "tau",
            offset: base + len_at,
            reason: format!("{len} sampled rows exceed the shard's {shard_rows} rows"),
        });
    }
    let mut sampled = Vec::with_capacity(cols);
    for _ in 0..cols {
        let mut col = Vec::with_capacity(len);
        for _ in 0..len {
            col.push(r.u32("sampled value").map_err(&err)?);
        }
        sampled.push(col);
    }
    if !r.is_exhausted() {
        return Err(StoreError::Malformed {
            section: "tau",
            offset: base + r.position(),
            reason: "unconsumed bytes at end of payload".into(),
        });
    }
    Ok(sampled)
}

/// Validates the framing of `.dpcs` bytes, refusing a version 1 file as
/// [`StoreError::ObsoleteShardVersion`].
fn split_shard(bytes: &[u8]) -> Result<SectionSlices<'_>, StoreError> {
    match split_framed(bytes, &DPCS_FRAMING) {
        Ok((_, sections)) => Ok(sections),
        Err(StoreError::UnsupportedVersion { found: 1, .. }) => {
            Err(StoreError::ObsoleteShardVersion { found: 1 })
        }
        Err(e) => Err(e),
    }
}

/// Decodes `.dpcs` bytes into a [`ShardArtifact`], validating all
/// checksums and structural invariants. Corruption is rejected with the
/// damaged section's name and byte offset — never a panic.
pub fn decode_shard_artifact(bytes: &[u8]) -> Result<ShardArtifact, StoreError> {
    let sections = split_shard(bytes)?;
    let at = |i: usize| (sections[i].1, sections[i].0.payload_offset);

    let (p, o) = at(0);
    let schema = decode_schema(p, o)?;
    let (p, o) = at(1);
    let topo = decode_shard(p, o)?;
    let (p, o) = at(2);
    let config = decode_config(p, o)?;
    let (p, o) = at(3);
    let counts = decode_margins(p, o, &schema)?;
    let (p, o) = at(4);
    let sampled = decode_tau(p, o, schema.len(), topo.row_end - topo.row_start)?;

    Ok(ShardArtifact {
        schema,
        shard_index: topo.shard_index,
        shard_count: topo.shard_count,
        total_rows: topo.total_rows,
        row_start: topo.row_start,
        row_end: topo.row_end,
        seed_index: topo.seed_index,
        config,
        counts,
        sampled,
    })
}

/// Lists the sections of an encoded `.dpcs` artifact after validating
/// all framing and checksums — the integrity check without the decode.
pub fn probe_shard_artifact(bytes: &[u8]) -> Result<Vec<SectionInfo>, StoreError> {
    Ok(split_shard(bytes)?.into_iter().map(|(i, _)| i).collect())
}

impl ShardArtifact {
    /// Encodes into `.dpcs` bytes (see [`encode_shard_artifact`]).
    pub fn encode(&self) -> Vec<u8> {
        encode_shard_artifact(self)
    }

    /// Decodes from `.dpcs` bytes (see [`decode_shard_artifact`]).
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        decode_shard_artifact(bytes)
    }

    /// Writes the encoded artifact to `path`, atomically (see
    /// [`write_atomic`]).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        write_atomic(path, &self.encode())
    }

    /// Reads and decodes a shard artifact from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        decode_shard_artifact(&bytes)
    }

    /// Rows this shard covered.
    pub fn rows(&self) -> u64 {
        self.row_end - self.row_start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ShardArtifact {
        ShardArtifact {
            schema: vec![AttributeSpec::new("age", 4), AttributeSpec::new("inc", 3)],
            shard_index: 1,
            shard_count: 3,
            total_rows: 10,
            row_start: 4,
            row_end: 7,
            seed_index: 1,
            config: ShardFitConfig {
                epsilon: 1.0,
                k_ratio: 0.5,
                margin_method: "efpa".into(),
                strategy: SamplingSpec::Fixed(8),
                base_seed: 42,
                sample_chunk: 8192,
                scheme: "splitmix64x3/xoshiro256++".into(),
            },
            counts: vec![vec![1, 0, 2, 0], vec![1, 1, 1]],
            sampled: vec![vec![0, 3, 1], vec![2, 0, 1]],
        }
    }

    #[test]
    fn round_trip_is_lossless() {
        let a = sample();
        let bytes = a.encode();
        assert_eq!(ShardArtifact::decode(&bytes).unwrap(), a);
        // Deterministic encoding.
        assert_eq!(a.encode(), bytes);
    }

    #[test]
    fn magic_and_version_are_pinned() {
        let bytes = sample().encode();
        assert_eq!(&bytes[0..4], b"DPCS");
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 2);
        let sections = probe_shard_artifact(&bytes).unwrap();
        let names: Vec<&str> = sections.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["schema", "shard", "config", "margins", "tau"]);
    }

    #[test]
    fn version_1_files_are_refused_with_the_fit_shard_remedy() {
        // A well-formed version 1 header: the version is read before
        // anything else, so no v1 payload is needed.
        let mut bytes = sample().encode();
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        let crc = crate::crc32::crc32(&bytes[0..8]);
        bytes[8..12].copy_from_slice(&crc.to_le_bytes());
        let err = ShardArtifact::decode(&bytes).unwrap_err();
        assert!(
            matches!(err, StoreError::ObsoleteShardVersion { found: 1 }),
            "{err:?}"
        );
        assert!(err.to_string().contains("re-run fit-shard"), "{err}");
        assert!(matches!(
            probe_shard_artifact(&bytes),
            Err(StoreError::ObsoleteShardVersion { found: 1 })
        ));
    }

    #[test]
    fn rejects_a_dpcm_magic() {
        let mut bytes = sample().encode();
        bytes[3] = b'M';
        assert!(matches!(
            ShardArtifact::decode(&bytes),
            Err(StoreError::BadMagic { .. }) | Err(StoreError::HeaderChecksum { .. })
        ));
    }

    #[test]
    fn structural_invariants_are_validated() {
        // Encode logically broken artifacts and check the decode names
        // the offending section instead of panicking.
        let mut bad_range = sample();
        bad_range.row_end = bad_range.row_start;
        match ShardArtifact::decode(&bad_range.encode()) {
            Err(StoreError::Malformed { section, .. }) => assert_eq!(section, "shard"),
            other => panic!("expected shard Malformed, got {other:?}"),
        }

        let mut bad_index = sample();
        bad_index.shard_index = 3;
        match ShardArtifact::decode(&bad_index.encode()) {
            Err(StoreError::Malformed { section, .. }) => assert_eq!(section, "shard"),
            other => panic!("expected shard Malformed, got {other:?}"),
        }

        let mut bad_margin = sample();
        bad_margin.counts[1].pop();
        match ShardArtifact::decode(&bad_margin.encode()) {
            Err(StoreError::Malformed { section, .. }) => assert_eq!(section, "margins"),
            other => panic!("expected margins Malformed, got {other:?}"),
        }

        let mut bad_tau = sample();
        bad_tau.sampled.pop();
        match ShardArtifact::decode(&bad_tau.encode()) {
            Err(StoreError::Malformed { section, .. }) => assert_eq!(section, "tau"),
            other => panic!("expected tau Malformed, got {other:?}"),
        }

        let mut oversampled = sample();
        oversampled.sampled = vec![vec![0; 5], vec![0; 5]];
        match ShardArtifact::decode(&oversampled.encode()) {
            Err(StoreError::Malformed { section, .. }) => assert_eq!(section, "tau"),
            other => panic!("expected tau Malformed, got {other:?}"),
        }
    }

    #[test]
    fn single_attribute_shards_have_an_empty_tau_layer() {
        let mut a = sample();
        a.schema.truncate(1);
        a.counts.truncate(1);
        a.sampled.clear();
        let bytes = a.encode();
        assert_eq!(ShardArtifact::decode(&bytes).unwrap(), a);
    }
}
