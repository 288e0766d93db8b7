//! The `.dpcm` wire format: a versioned, checksummed, fully
//! self-describing binary container for a [`ModelArtifact`].
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! header (12 bytes):
//!   0   magic          4 bytes   "DPCM"
//!   4   version        u16       format version (1 or 2)
//!   6   section count  u16       6 in versions 1 and 2
//!   8   header CRC     u32       CRC-32 of bytes 0..8
//! then `section count` sections, each:
//!   +0  tag            4 bytes   ASCII section name
//!   +4  payload length u64
//!   +12 payload        `length` bytes
//!   +β  payload CRC    u32       CRC-32 of the payload
//! ```
//!
//! Sections, in fixed order: `SCHM` (schema), `MRGN` (published
//! marginal counts), `CORR` (repaired correlation matrix), `COPL` (copula
//! family + params), `BDGT` (spent-budget ledger), `PROV` (RNG
//! provenance). Every section carries its own CRC, so a single flipped
//! byte anywhere in the file is rejected at load with the section name
//! and byte offset of the damage.
//!
//! **Version 2** extends two payloads with sharded-fit provenance, after
//! the version-1 fields:
//!
//! * `BDGT` — `u32` shard-ledger count, then per shard a `u32` entry
//!   count followed by `(label, f64 epsilon)` entries. Shards spend
//!   nothing of their own, so the encoder writes a count of zero; the
//!   decoder still reads the per-shard sub-ledgers older sharded fits
//!   wrote, and drops them;
//! * `PROV` — `u32` shard count, then per shard
//!   `(u64 row_start, u64 row_end, u64 seed_index)`.
//!
//! The encoder emits the **oldest version able to represent the
//! artifact**: a fit without shard provenance encodes as version 1,
//! byte-identical to a pre-v2 writer, so single-shard artifacts remain
//! stable and old readers keep accepting them.
//!
//! ## Versioning policy
//!
//! The version is bumped whenever a change would make old readers decode
//! wrong values (new/removed/reordered sections, payload layout changes).
//! Readers accept every version from 1 up to [`FORMAT_VERSION`] and
//! reject versions they don't know rather than guessing —
//! a model artifact is a privacy-bearing release, so "best effort"
//! parsing is never acceptable.

use crate::artifact::{
    AttributeSpec, BudgetEntry, BudgetLedger, CopulaFamily, ModelArtifact, RngProvenance, ShardInfo,
};
use crate::codec::{ByteReader, ByteWriter, ReadError};
use crate::crc32::crc32;
use mathkit::Matrix;
use std::ffi::OsString;
use std::io::Read as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// File magic: the first four bytes of every `.dpcm` artifact.
pub const MAGIC: [u8; 4] = *b"DPCM";

/// Newest format version this codec reads and writes. The encoder emits
/// the oldest version able to represent the artifact (version 1 when no
/// shard provenance is present), so bumping this never perturbs the
/// bytes of artifacts that don't use the new fields.
pub const FORMAT_VERSION: u16 = 2;

/// Oldest format version this codec still reads.
const MIN_VERSION: u16 = 1;

/// Section tags, in their required file order (same in every version).
const SECTION_ORDER: [&[u8; 4]; 6] = [b"SCHM", b"MRGN", b"CORR", b"COPL", b"BDGT", b"PROV"];

/// Human-readable names matching [`SECTION_ORDER`] (used in errors).
const SECTION_NAMES: [&str; 6] = [
    "schema",
    "margins",
    "correlation",
    "copula",
    "budget",
    "provenance",
];

/// Everything that can go wrong while decoding a `.dpcm` artifact. Where
/// a failure is localised, the error names the section and the absolute
/// byte offset of the damage.
///
/// Non-exhaustive: future format versions may add failure modes, so
/// downstream matches must keep a wildcard arm.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// Underlying file I/O failure.
    Io(std::io::Error),
    /// The file does not start with the container's magic (`DPCM` for
    /// model artifacts, `DPCS` for shard summaries).
    BadMagic {
        /// The four bytes actually found (zero-padded if shorter).
        found: [u8; 4],
        /// The magic the container requires.
        expected: [u8; 4],
    },
    /// The format version is newer than this reader understands.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// Newest version this reader accepts for the container.
        max: u16,
    },
    /// A `.dpcs` of a format version no longer read: version 1 shards
    /// published noisy margins of their own, which no merge folds any
    /// more. Its remedy is to re-run `fit-shard`.
    ObsoleteShardVersion {
        /// Version found in the header.
        found: u16,
    },
    /// The header failed its own CRC — the fixed 12-byte prelude is
    /// damaged.
    HeaderChecksum {
        /// CRC stored in the file.
        expected: u32,
        /// CRC recomputed over the header bytes.
        actual: u32,
    },
    /// The file ended before a section's declared extent.
    Truncated {
        /// Section being read.
        section: &'static str,
        /// Absolute byte offset where reading stopped.
        offset: usize,
    },
    /// A section tag was not the one the fixed v1 order requires.
    UnexpectedSection {
        /// Tag the order requires here.
        expected: &'static str,
        /// Tag actually present.
        found: [u8; 4],
        /// Absolute byte offset of the tag.
        offset: usize,
    },
    /// A section's payload failed its CRC — the payload bytes are
    /// damaged.
    SectionChecksum {
        /// Damaged section.
        section: &'static str,
        /// Absolute byte offset of the section's payload.
        offset: usize,
        /// CRC stored in the file.
        expected: u32,
        /// CRC recomputed over the payload.
        actual: u32,
    },
    /// A payload passed its CRC but does not decode to a valid value
    /// (impossible via [`encode`]; means a logically inconsistent writer).
    Malformed {
        /// Offending section.
        section: &'static str,
        /// Absolute byte offset of the offending field.
        offset: usize,
        /// What was wrong.
        reason: String,
    },
    /// Bytes remain after the last section.
    TrailingBytes {
        /// Absolute byte offset of the first trailing byte.
        offset: usize,
    },
    /// An entry of a watched model directory failed to read or decode.
    /// Directory scanners (a serving daemon's model registry) must wrap
    /// the underlying failure in this named error instead of silently
    /// skipping the entry — a model that stops being servable is an
    /// operational event, not noise.
    DirEntry {
        /// Path of the offending directory entry.
        path: String,
        /// What went wrong with it.
        source: Box<StoreError>,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::BadMagic { found, expected } => {
                write!(f, "bad artifact magic: {found:?} != {expected:?}")
            }
            StoreError::UnsupportedVersion { found, max } => write!(
                f,
                "unsupported artifact version {found} (this reader understands <= {max})"
            ),
            StoreError::ObsoleteShardVersion { found } => write!(
                f,
                "shard artifact version {found} is no longer read (its shard released noisy \
                 margins of its own); re-run fit-shard to write version {}",
                crate::shard_format::SHARD_FORMAT_VERSION
            ),
            StoreError::HeaderChecksum { expected, actual } => write!(
                f,
                "header checksum mismatch: stored {expected:#010x}, computed {actual:#010x}"
            ),
            StoreError::Truncated { section, offset } => {
                write!(
                    f,
                    "truncated in section `{section}` at byte offset {offset}"
                )
            }
            StoreError::UnexpectedSection {
                expected,
                found,
                offset,
            } => write!(
                f,
                "expected section `{expected}` at byte offset {offset}, found tag {found:?}"
            ),
            StoreError::SectionChecksum {
                section,
                offset,
                expected,
                actual,
            } => write!(
                f,
                "checksum mismatch in section `{section}` (payload at byte offset {offset}): \
                 stored {expected:#010x}, computed {actual:#010x}"
            ),
            StoreError::Malformed {
                section,
                offset,
                reason,
            } => write!(
                f,
                "malformed section `{section}` at byte offset {offset}: {reason}"
            ),
            StoreError::TrailingBytes { offset } => {
                write!(
                    f,
                    "trailing bytes after final section at byte offset {offset}"
                )
            }
            StoreError::DirEntry { path, source } => {
                write!(f, "model directory entry {path}: {source}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Location and extent of one section inside an encoded artifact, as
/// reported by [`probe`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// Human-readable section name.
    pub name: &'static str,
    /// Absolute byte offset of the section's payload.
    pub payload_offset: usize,
    /// Payload length in bytes.
    pub payload_len: usize,
    /// The payload's CRC-32 as stored.
    pub crc: u32,
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Encodes a schema payload — shared verbatim by the `.dpcm` `SCHM`
/// section and the `.dpcs` shard-summary format.
pub(crate) fn encode_schema_payload(schema: &[AttributeSpec]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(schema.len() as u32);
    for attr in schema {
        w.put_str(&attr.name);
        w.put_u64(attr.domain as u64);
        w.put_u32(attr.bin_edges.len() as u32);
        for &e in &attr.bin_edges {
            w.put_f64(e);
        }
    }
    w.into_bytes()
}

fn encode_schema(a: &ModelArtifact) -> Vec<u8> {
    encode_schema_payload(&a.schema)
}

fn encode_margins(a: &ModelArtifact) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_str(&a.margin_method);
    w.put_u32(a.margins.len() as u32);
    for counts in &a.margins {
        w.put_u64(counts.len() as u64);
        for &c in counts {
            w.put_f64(c);
        }
    }
    w.into_bytes()
}

fn encode_correlation(a: &ModelArtifact) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(a.correlation.rows() as u64);
    for &v in a.correlation.as_slice() {
        w.put_f64(v);
    }
    w.into_bytes()
}

fn encode_copula(a: &ModelArtifact) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(a.family.tag());
    let params = a.family.params();
    w.put_u32(params.len() as u32);
    for p in params {
        w.put_f64(p);
    }
    w.into_bytes()
}

fn encode_budget(a: &ModelArtifact, version: u16) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_f64(a.ledger.total);
    w.put_u32(a.ledger.entries.len() as u32);
    for e in &a.ledger.entries {
        w.put_str(&e.label);
        w.put_f64(e.epsilon);
    }
    if version >= 2 {
        // No per-shard sub-ledgers: shards spend nothing of their own.
        w.put_u32(0);
    }
    w.into_bytes()
}

fn encode_provenance(a: &ModelArtifact, version: u16) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(a.provenance.base_seed);
    w.put_u64(a.provenance.sample_chunk);
    w.put_u64(a.provenance.sampler_stream);
    w.put_str(&a.provenance.scheme);
    if version >= 2 {
        w.put_u32(a.provenance.shards.len() as u32);
        for s in &a.provenance.shards {
            w.put_u64(s.row_start);
            w.put_u64(s.row_end);
            w.put_u64(s.seed_index);
        }
    }
    w.into_bytes()
}

/// The oldest format version able to represent `a`: version 1 unless
/// the artifact carries sharded-fit provenance.
fn required_version(a: &ModelArtifact) -> u16 {
    if a.provenance.shards.is_empty() {
        1
    } else {
        2
    }
}

/// Encodes the artifact into `.dpcm` bytes. Deterministic: the same
/// artifact always produces the same bytes (there is no timestamp or
/// other ambient state in the format). The version written is the oldest
/// able to represent the artifact — see [`FORMAT_VERSION`].
pub fn encode(a: &ModelArtifact) -> Vec<u8> {
    let version = required_version(a);
    let payloads: [Vec<u8>; 6] = [
        encode_schema(a),
        encode_margins(a),
        encode_correlation(a),
        encode_copula(a),
        encode_budget(a, version),
        encode_provenance(a, version),
    ];
    encode_framed(&DPCM_FRAMING, version, &payloads)
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Maps a primitive read failure inside a section payload to a
/// file-absolute [`StoreError::Malformed`].
pub(crate) fn field_err(
    section: &'static str,
    payload_offset: usize,
) -> impl Fn(ReadError) -> StoreError {
    move |e: ReadError| StoreError::Malformed {
        section,
        offset: payload_offset + e.offset,
        reason: format!("unreadable field `{}`", e.what),
    }
}

/// Section payload slices paired with their framing info, as returned by
/// [`split_sections`] alongside the header version.
pub(crate) type SectionSlices<'a> = Vec<(SectionInfo, &'a [u8])>;

/// The framing parameters of one artifact container — `.dpcm` and
/// `.dpcs` share the identical header + section layout (and therefore
/// the identical corruption-rejection behaviour), differing only in
/// these constants.
pub(crate) struct Framing {
    /// File magic.
    pub magic: [u8; 4],
    /// Oldest readable version.
    pub min_version: u16,
    /// Newest readable version.
    pub max_version: u16,
    /// Section tags, in required file order.
    pub section_order: &'static [&'static [u8; 4]],
    /// Human-readable names matching `section_order`.
    pub section_names: &'static [&'static str],
}

/// Encodes a framed container: header (magic, version, section count,
/// header CRC) followed by each payload as `tag + u64 len + payload +
/// u32 payload CRC`.
pub(crate) fn encode_framed(framing: &Framing, version: u16, payloads: &[Vec<u8>]) -> Vec<u8> {
    assert_eq!(payloads.len(), framing.section_order.len());
    let mut w = ByteWriter::new();
    w.put_bytes(&framing.magic);
    w.put_u16(version);
    w.put_u16(framing.section_order.len() as u16);
    let header_crc = {
        let mut head = Vec::with_capacity(8);
        head.extend_from_slice(&framing.magic);
        head.extend_from_slice(&version.to_le_bytes());
        head.extend_from_slice(&(framing.section_order.len() as u16).to_le_bytes());
        crc32(&head)
    };
    w.put_u32(header_crc);
    for (tag, payload) in framing.section_order.iter().zip(payloads) {
        w.put_bytes(*tag);
        w.put_u64(payload.len() as u64);
        w.put_bytes(payload);
        w.put_u32(crc32(payload));
    }
    w.into_bytes()
}

/// Validates header + section framing against `framing`, returning the
/// header version and each section's payload slice and location without
/// decoding payload contents.
pub(crate) fn split_framed<'a>(
    bytes: &'a [u8],
    framing: &Framing,
) -> Result<(u16, SectionSlices<'a>), StoreError> {
    if bytes.len() < 12 {
        return Err(StoreError::Truncated {
            section: "header",
            offset: bytes.len(),
        });
    }
    let magic = &bytes[0..4];
    if magic != framing.magic {
        let mut found = [0u8; 4];
        found.copy_from_slice(magic);
        return Err(StoreError::BadMagic {
            found,
            expected: framing.magic,
        });
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if !(framing.min_version..=framing.max_version).contains(&version) {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            max: framing.max_version,
        });
    }
    let stored_crc = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    let actual_crc = crc32(&bytes[0..8]);
    if stored_crc != actual_crc {
        return Err(StoreError::HeaderChecksum {
            expected: stored_crc,
            actual: actual_crc,
        });
    }
    let count = u16::from_le_bytes([bytes[6], bytes[7]]) as usize;
    if count != framing.section_order.len() {
        return Err(StoreError::Malformed {
            section: "header",
            offset: 6,
            reason: format!(
                "version {version} requires {} sections, header declares {count}",
                framing.section_order.len()
            ),
        });
    }

    let mut out = Vec::with_capacity(count);
    let mut pos = 12usize;
    for (tag, &name) in framing.section_order.iter().zip(framing.section_names) {
        if bytes.len() - pos < 12 {
            return Err(StoreError::Truncated {
                section: name,
                offset: bytes.len(),
            });
        }
        let found = &bytes[pos..pos + 4];
        if found != *tag {
            let mut f = [0u8; 4];
            f.copy_from_slice(found);
            return Err(StoreError::UnexpectedSection {
                expected: name,
                found: f,
                offset: pos,
            });
        }
        let len_bytes: [u8; 8] = bytes[pos + 4..pos + 12].try_into().expect("8 bytes");
        let len = u64::from_le_bytes(len_bytes) as usize;
        let payload_offset = pos + 12;
        if bytes.len() - payload_offset < len + 4 {
            return Err(StoreError::Truncated {
                section: name,
                offset: bytes.len(),
            });
        }
        let payload = &bytes[payload_offset..payload_offset + len];
        let crc_at = payload_offset + len;
        let stored = u32::from_le_bytes(bytes[crc_at..crc_at + 4].try_into().expect("4 bytes"));
        let actual = crc32(payload);
        if stored != actual {
            return Err(StoreError::SectionChecksum {
                section: name,
                offset: payload_offset,
                expected: stored,
                actual,
            });
        }
        out.push((
            SectionInfo {
                name,
                payload_offset,
                payload_len: len,
                crc: stored,
            },
            payload,
        ));
        pos = crc_at + 4;
    }
    if pos != bytes.len() {
        return Err(StoreError::TrailingBytes { offset: pos });
    }
    Ok((version, out))
}

/// The `.dpcm` container's framing constants.
const DPCM_FRAMING: Framing = Framing {
    magic: MAGIC,
    min_version: MIN_VERSION,
    max_version: FORMAT_VERSION,
    section_order: &SECTION_ORDER,
    section_names: &SECTION_NAMES,
};

/// Validates header + section framing, returning the header version and
/// each section's payload slice and location without decoding payload
/// contents.
fn split_sections(bytes: &[u8]) -> Result<(u16, SectionSlices<'_>), StoreError> {
    split_framed(bytes, &DPCM_FRAMING)
}

/// Lists the sections of an encoded artifact after validating all
/// framing and checksums — the integrity check without the decode.
pub fn probe(bytes: &[u8]) -> Result<Vec<SectionInfo>, StoreError> {
    Ok(split_sections(bytes)?
        .1
        .into_iter()
        .map(|(i, _)| i)
        .collect())
}

/// The format version an encoded artifact carries, after validating all
/// framing and checksums.
pub fn probe_version(bytes: &[u8]) -> Result<u16, StoreError> {
    Ok(split_sections(bytes)?.0)
}

pub(crate) fn decode_schema(payload: &[u8], base: usize) -> Result<Vec<AttributeSpec>, StoreError> {
    let err = field_err("schema", base);
    let mut r = ByteReader::new(payload);
    let m = r.u32("attribute count").map_err(&err)? as usize;
    let mut schema = Vec::with_capacity(m);
    for _ in 0..m {
        let name = r.str("attribute name").map_err(&err)?;
        let domain_at = r.position();
        let domain = r.u64("attribute domain").map_err(&err)? as usize;
        if domain == 0 {
            return Err(StoreError::Malformed {
                section: "schema",
                offset: base + domain_at,
                reason: format!("attribute `{name}` has an empty domain"),
            });
        }
        let edges_at = r.position();
        let n_edges = r.u32("bin edge count").map_err(&err)? as usize;
        if n_edges != 0 && n_edges != domain + 1 {
            return Err(StoreError::Malformed {
                section: "schema",
                offset: base + edges_at,
                reason: format!(
                    "attribute `{name}`: {n_edges} bin edges for domain {domain} \
                     (want 0 or {})",
                    domain + 1
                ),
            });
        }
        let mut bin_edges = Vec::with_capacity(n_edges);
        for _ in 0..n_edges {
            bin_edges.push(r.f64("bin edge").map_err(&err)?);
        }
        schema.push(AttributeSpec {
            name,
            domain,
            bin_edges,
        });
    }
    if !r.is_exhausted() {
        return Err(StoreError::Malformed {
            section: "schema",
            offset: base + r.position(),
            reason: "unconsumed bytes at end of payload".into(),
        });
    }
    Ok(schema)
}

fn decode_margins(
    payload: &[u8],
    base: usize,
    schema: &[AttributeSpec],
) -> Result<(String, Vec<Vec<f64>>), StoreError> {
    let err = field_err("margins", base);
    let mut r = ByteReader::new(payload);
    let method = r.str("margin method").map_err(&err)?;
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
            counts.push(r.f64("margin count").map_err(&err)?);
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
    Ok((method, margins))
}

fn decode_correlation(payload: &[u8], base: usize, dims: usize) -> Result<Matrix, StoreError> {
    let err = field_err("correlation", base);
    let mut r = ByteReader::new(payload);
    let dim = r.u64("matrix dimension").map_err(&err)? as usize;
    if dim != dims {
        return Err(StoreError::Malformed {
            section: "correlation",
            offset: base,
            reason: format!("{dim}x{dim} matrix for {dims} schema attributes"),
        });
    }
    let mut data = Vec::with_capacity(dim * dim);
    for _ in 0..dim * dim {
        data.push(r.f64("matrix entry").map_err(&err)?);
    }
    if !r.is_exhausted() {
        return Err(StoreError::Malformed {
            section: "correlation",
            offset: base + r.position(),
            reason: "unconsumed bytes at end of payload".into(),
        });
    }
    Ok(Matrix::from_vec(dim, dim, data))
}

fn decode_copula(payload: &[u8], base: usize) -> Result<CopulaFamily, StoreError> {
    let err = field_err("copula", base);
    let mut r = ByteReader::new(payload);
    let tag = r.u8("family tag").map_err(&err)?;
    let count_at = r.position();
    let n_params = r.u32("param count").map_err(&err)? as usize;
    let mut params = Vec::with_capacity(n_params);
    for _ in 0..n_params {
        params.push(r.f64("family param").map_err(&err)?);
    }
    if !r.is_exhausted() {
        return Err(StoreError::Malformed {
            section: "copula",
            offset: base + r.position(),
            reason: "unconsumed bytes at end of payload".into(),
        });
    }
    let wrong_arity = |want: usize| StoreError::Malformed {
        section: "copula",
        offset: base + count_at,
        reason: format!("family tag {tag} takes {want} params, got {n_params}"),
    };
    match tag {
        0 => {
            if n_params != 0 {
                return Err(wrong_arity(0));
            }
            Ok(CopulaFamily::Gaussian)
        }
        1 => {
            if n_params != 1 {
                return Err(wrong_arity(1));
            }
            Ok(CopulaFamily::StudentT { dof: params[0] })
        }
        2 => {
            if n_params != 1 {
                return Err(wrong_arity(1));
            }
            Ok(CopulaFamily::Hybrid {
                threshold: params[0] as u32,
            })
        }
        other => Err(StoreError::Malformed {
            section: "copula",
            offset: base,
            reason: format!("unknown copula family tag {other}"),
        }),
    }
}

fn decode_budget(payload: &[u8], base: usize, version: u16) -> Result<BudgetLedger, StoreError> {
    let err = field_err("budget", base);
    let mut r = ByteReader::new(payload);
    let total = r.f64("budget total").map_err(&err)?;
    let n = r.u32("ledger entry count").map_err(&err)? as usize;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let label = r.str("ledger label").map_err(&err)?;
        let epsilon = r.f64("ledger epsilon").map_err(&err)?;
        entries.push(BudgetEntry { label, epsilon });
    }
    if version >= 2 {
        // Older sharded fits wrote per-shard sub-ledgers here; they are
        // read past, not kept.
        let shards = r.u32("shard ledger count").map_err(&err)?;
        for _ in 0..shards {
            let k = r.u32("shard ledger entry count").map_err(&err)?;
            for _ in 0..k {
                r.str("shard ledger label").map_err(&err)?;
                r.f64("shard ledger epsilon").map_err(&err)?;
            }
        }
    }
    if !r.is_exhausted() {
        return Err(StoreError::Malformed {
            section: "budget",
            offset: base + r.position(),
            reason: "unconsumed bytes at end of payload".into(),
        });
    }
    Ok(BudgetLedger { total, entries })
}

fn decode_provenance(
    payload: &[u8],
    base: usize,
    version: u16,
) -> Result<RngProvenance, StoreError> {
    let err = field_err("provenance", base);
    let mut r = ByteReader::new(payload);
    let base_seed = r.u64("base seed").map_err(&err)?;
    let sample_chunk = r.u64("sample chunk").map_err(&err)?;
    let sampler_stream = r.u64("sampler stream").map_err(&err)?;
    let scheme = r.str("stream scheme").map_err(&err)?;
    let mut shards = Vec::new();
    if version >= 2 {
        let count = r.u32("shard count").map_err(&err)? as usize;
        shards.reserve(count);
        for i in 0..count {
            let at = r.position();
            let row_start = r.u64("shard row start").map_err(&err)?;
            let row_end = r.u64("shard row end").map_err(&err)?;
            let seed_index = r.u64("shard seed index").map_err(&err)?;
            if row_end <= row_start {
                return Err(StoreError::Malformed {
                    section: "provenance",
                    offset: base + at,
                    reason: format!("shard {i} has empty row range [{row_start}, {row_end})"),
                });
            }
            shards.push(ShardInfo {
                row_start,
                row_end,
                seed_index,
            });
        }
    }
    if !r.is_exhausted() {
        return Err(StoreError::Malformed {
            section: "provenance",
            offset: base + r.position(),
            reason: "unconsumed bytes at end of payload".into(),
        });
    }
    Ok(RngProvenance {
        base_seed,
        sample_chunk,
        sampler_stream,
        scheme,
        shards,
    })
}

/// Decodes `.dpcm` bytes into a [`ModelArtifact`], validating all
/// checksums and structural invariants.
pub fn decode(bytes: &[u8]) -> Result<ModelArtifact, StoreError> {
    decode_inner(bytes, &obskit::MetricsSink::off())
}

/// [`decode`] with observability: records the artifact size in
/// `modelstore_load_bytes_total`, per-section decode latency in
/// `modelstore_section_parse_ns{section}` (tag names `SCHM`…`PROV`),
/// and the outcome in `modelstore_loads_total` /
/// `modelstore_corruption_rejects_total`. A disabled sink makes this
/// exactly [`decode`].
pub fn decode_observed(
    bytes: &[u8],
    sink: &obskit::MetricsSink,
) -> Result<ModelArtifact, StoreError> {
    if sink.enabled() {
        sink.add(
            obskit::names::MODELSTORE_LOAD_BYTES_TOTAL,
            obskit::Unit::Bytes,
            bytes.len() as u64,
        );
    }
    let result = decode_inner(bytes, sink);
    if sink.enabled() {
        let outcome = match result {
            Ok(_) => obskit::names::MODELSTORE_LOADS_TOTAL,
            Err(_) => obskit::names::MODELSTORE_CORRUPTION_REJECTS_TOTAL,
        };
        sink.add(outcome, obskit::Unit::Count, 1);
    }
    result
}

/// Times one section decode into
/// `modelstore_section_parse_ns{section=<tag>}`.
fn timed_section<T>(
    sink: &obskit::MetricsSink,
    tag: &'static str,
    f: impl FnOnce() -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    if !sink.enabled() {
        return f();
    }
    let watch = obskit::Stopwatch::start();
    let out = f();
    sink.observe_labeled(
        obskit::names::MODELSTORE_SECTION_PARSE_NS,
        &[("section", tag)],
        obskit::Unit::Nanos,
        watch.elapsed_ns(),
    );
    out
}

fn decode_inner(bytes: &[u8], sink: &obskit::MetricsSink) -> Result<ModelArtifact, StoreError> {
    let (version, sections) = split_sections(bytes)?;
    let at = |i: usize| (sections[i].1, sections[i].0.payload_offset);

    let (p, o) = at(0);
    let schema = timed_section(sink, "SCHM", || decode_schema(p, o))?;
    let (p, o) = at(1);
    let (margin_method, margins) = timed_section(sink, "MRGN", || decode_margins(p, o, &schema))?;
    let (p, o) = at(2);
    let correlation = timed_section(sink, "CORR", || decode_correlation(p, o, schema.len()))?;
    let (p, o) = at(3);
    let family = timed_section(sink, "COPL", || decode_copula(p, o))?;
    let (p, o) = at(4);
    let ledger = timed_section(sink, "BDGT", || decode_budget(p, o, version))?;
    let (p, o) = at(5);
    let provenance = timed_section(sink, "PROV", || decode_provenance(p, o, version))?;

    Ok(ModelArtifact {
        schema,
        margin_method,
        margins,
        correlation,
        family,
        ledger,
        provenance,
    })
}

/// Writes `bytes` to `path` atomically: they go to a fresh temporary
/// file in the same directory, which is then renamed over `path`, so a
/// concurrent reader sees the old file or the new one whole, never a
/// torn mix. Nothing is fsynced, so the write is not crash-durable.
///
/// The temporary name is unique per call (process id plus a counter),
/// so concurrent saves to one path never share it, and it does not end
/// in `.dpcm`, so model directory listings skip it. It is removed if
/// the write or the rename fails.
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> Result<(), StoreError> {
    // Only uniqueness is needed, which `fetch_add` gives at any ordering.
    static NEXT_TEMP: AtomicU64 = AtomicU64::new(0);
    let path = path.as_ref();
    let name = path.file_name().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("{} does not name a file", path.display()),
        )
    })?;
    let mut temp = OsString::from(".");
    temp.push(name);
    temp.push(format!(
        ".{}-{}.tmp",
        std::process::id(),
        NEXT_TEMP.fetch_add(1, Ordering::Relaxed)
    ));
    let temp = path.with_file_name(temp);
    let written = std::fs::write(&temp, bytes).and_then(|()| std::fs::rename(&temp, path));
    if written.is_err() {
        // The write's own error is the one to report.
        let _ = std::fs::remove_file(&temp);
    }
    written.map_err(StoreError::from)
}

impl ModelArtifact {
    /// Encodes into `.dpcm` bytes (see [`encode`]).
    pub fn encode(&self) -> Vec<u8> {
        encode(self)
    }

    /// Decodes from `.dpcm` bytes (see [`decode`]).
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        decode(bytes)
    }

    /// Writes the encoded artifact to `path`, atomically (see
    /// [`write_atomic`]).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        write_atomic(path, &self.encode())
    }

    /// Reads and decodes an artifact from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        decode(&bytes)
    }
}
