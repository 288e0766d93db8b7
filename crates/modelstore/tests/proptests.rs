//! Property tests for the `.dpcm` codec: randomized artifacts round-trip
//! losslessly, and **any** single flipped byte of the encoding is
//! rejected at decode with a precise (section, offset) error.

use mathkit::Matrix;
use modelstore::format::StoreError;
use modelstore::{
    probe, probe_shard_artifact, probe_version, AttributeSpec, BudgetEntry, BudgetLedger,
    CopulaFamily, ModelArtifact, RngProvenance, SamplingSpec, ShardArtifact, ShardFitConfig,
    ShardInfo,
};
use rngkit::rngs::StdRng;
use rngkit::{Rng, SeedableRng};
use testkit::{prop_assert, prop_assert_eq, property_tests};

/// Builds a randomized artifact: 1–5 attributes, domains 1–8, random
/// names/edges/family/ledger, and (half the time) per-shard provenance
/// so both the v1 and v2 encodings are exercised.
fn random_artifact(seed: u64) -> ModelArtifact {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = rng.gen_range(1..6usize);
    let schema: Vec<AttributeSpec> = (0..m)
        .map(|j| {
            let domain = rng.gen_range(1..9usize);
            let bin_edges = if rng.gen_range(0..2u32) == 0 {
                Vec::new()
            } else {
                (0..=domain)
                    .map(|e| e as f64 * rng.gen_range(0.5..2.0))
                    .collect()
            };
            AttributeSpec {
                name: format!("attr_{j}_{}", rng.gen_range(0..1000u32)),
                domain,
                bin_edges,
            }
        })
        .collect();
    let margins: Vec<Vec<f64>> = schema
        .iter()
        .map(|a| (0..a.domain).map(|_| rng.gen_range(-3.0..50.0)).collect())
        .collect();
    let mut correlation = Matrix::identity(m);
    for i in 0..m {
        for j in 0..i {
            let r = rng.gen_range(-0.9..0.9);
            correlation[(i, j)] = r;
            correlation[(j, i)] = r;
        }
    }
    let family = match rng.gen_range(0..3u32) {
        0 => CopulaFamily::Gaussian,
        1 => CopulaFamily::StudentT {
            dof: rng.gen_range(1.0..30.0),
        },
        _ => CopulaFamily::Hybrid {
            threshold: rng.gen_range(2..16u32),
        },
    };
    let shard_count = if rng.gen_range(0..2u32) == 0 {
        0
    } else {
        rng.gen_range(2..5usize)
    };
    let mut shards = Vec::with_capacity(shard_count);
    let mut row = 0u64;
    for s in 0..shard_count {
        let rows = rng.gen_range(1..500u64);
        shards.push(ShardInfo {
            row_start: row,
            row_end: row + rows,
            seed_index: s as u64,
        });
        row += rows;
    }
    ModelArtifact {
        schema,
        margin_method: ["efpa", "identity", "privelet"][rng.gen_range(0..3usize)].into(),
        margins,
        correlation,
        family,
        ledger: BudgetLedger {
            total: rng.gen_range(0.1..4.0),
            entries: vec![
                BudgetEntry {
                    label: "margins".into(),
                    epsilon: rng.gen_range(0.01..2.0),
                },
                BudgetEntry {
                    label: "correlation".into(),
                    epsilon: rng.gen_range(0.01..2.0),
                },
            ],
        },
        provenance: RngProvenance {
            base_seed: rng.gen_range(0..u64::MAX),
            sample_chunk: rng.gen_range(1..65536u64),
            sampler_stream: 6,
            scheme: "splitmix64x3/xoshiro256++".into(),
            shards,
        },
    }
}

property_tests! {
    fn round_trip_is_lossless(seed in 0u64..100_000) {
        let artifact = random_artifact(seed);
        let bytes = artifact.encode();
        let back = ModelArtifact::decode(&bytes).expect("clean bytes decode");
        prop_assert_eq!(back, artifact);
        // Encoding is deterministic: decode→encode reproduces the bytes.
        prop_assert_eq!(ModelArtifact::decode(&bytes).unwrap().encode(), bytes);
    }

    fn any_single_byte_flip_is_rejected(
        seed in 0u64..100_000,
        pos_pick in 0u64..1_000_000,
        bit in 0u32..8,
    ) {
        let artifact = random_artifact(seed);
        let mut bytes = artifact.encode();
        let pos = (pos_pick % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        let err = match ModelArtifact::decode(&bytes) {
            Ok(_) => panic!("flip at byte {pos} went undetected"),
            Err(e) => e,
        };
        // The error is a structural diagnosis, never a bare I/O error,
        // and its rendering always locates the damage.
        let msg = err.to_string();
        prop_assert!(!matches!(err, StoreError::Io(_)), "got io error: {msg}");
        prop_assert!(!msg.is_empty());
    }

    fn truncation_at_any_point_is_rejected(seed in 0u64..100_000, cut_pick in 0u64..1_000_000) {
        let artifact = random_artifact(seed);
        let bytes = artifact.encode();
        let cut = (cut_pick % bytes.len() as u64) as usize;
        prop_assert!(ModelArtifact::decode(&bytes[..cut]).is_err(), "cut at {cut}");
    }
}

/// Builds a randomized `.dpcs` shard artifact with a consistent
/// topology, schema-matched counts over the shard's rows, and a valid τ
/// layer — the same role [`random_artifact`] plays for `.dpcm`.
fn random_shard_artifact(seed: u64) -> ShardArtifact {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = rng.gen_range(1..6usize);
    let schema: Vec<AttributeSpec> = (0..m)
        .map(|j| {
            let name = format!("attr_{j}_{}", rng.gen_range(0..1000u32));
            let domain = rng.gen_range(1..9usize);
            AttributeSpec::new(name, domain)
        })
        .collect();

    let shard_count = rng.gen_range(1..5u64);
    let shard_index = rng.gen_range(0..shard_count);
    let rows = rng.gen_range(2..300u64);
    let counts: Vec<Vec<u64>> = schema
        .iter()
        .map(|a| {
            let mut counts = vec![0u64; a.domain];
            for _ in 0..rows {
                counts[rng.gen_range(0..a.domain)] += 1;
            }
            counts
        })
        .collect();
    let row_start = rng.gen_range(0..1000u64);
    let row_end = row_start + rows;
    let total_rows = row_end + rng.gen_range(shard_count..1000u64);

    let sampled_len = rng.gen_range(1..=rows.min(40)) as usize;
    let sampled = if m > 1 {
        (0..m)
            .map(|j| {
                (0..sampled_len)
                    .map(|_| rng.gen_range(0..schema[j].domain as u32))
                    .collect()
            })
            .collect()
    } else {
        Vec::new()
    };

    let strategy = match rng.gen_range(0..3u32) {
        0 => SamplingSpec::Full,
        1 => SamplingSpec::Auto,
        _ => SamplingSpec::Fixed(rng.gen_range(1..5000u64)),
    };
    ShardArtifact {
        schema,
        shard_index,
        shard_count,
        total_rows,
        row_start,
        row_end,
        seed_index: shard_index,
        config: ShardFitConfig {
            epsilon: rng.gen_range(0.1..4.0),
            k_ratio: rng.gen_range(0.1..16.0),
            margin_method: ["efpa", "identity", "privelet"][rng.gen_range(0..3usize)].into(),
            strategy,
            base_seed: rng.gen_range(0..u64::MAX),
            sample_chunk: rng.gen_range(1..65536u64),
            scheme: "splitmix64x3/xoshiro256++".into(),
        },
        counts,
        sampled,
    }
}

property_tests! {
    fn shard_round_trip_is_lossless(seed in 0u64..100_000) {
        let artifact = random_shard_artifact(seed);
        let bytes = artifact.encode();
        let back = ShardArtifact::decode(&bytes).expect("clean bytes decode");
        prop_assert_eq!(back, artifact);
        prop_assert_eq!(ShardArtifact::decode(&bytes).unwrap().encode(), bytes);
    }

    fn shard_any_single_byte_flip_is_rejected(
        seed in 0u64..100_000,
        pos_pick in 0u64..1_000_000,
        bit in 0u32..8,
    ) {
        let artifact = random_shard_artifact(seed);
        let mut bytes = artifact.encode();
        let pos = (pos_pick % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        let err = match ShardArtifact::decode(&bytes) {
            Ok(_) => panic!("flip at byte {pos} went undetected"),
            Err(e) => e,
        };
        let msg = err.to_string();
        prop_assert!(!matches!(err, StoreError::Io(_)), "got io error: {msg}");
        prop_assert!(!msg.is_empty());
    }

    fn shard_truncation_at_any_point_is_rejected(
        seed in 0u64..100_000,
        cut_pick in 0u64..1_000_000,
    ) {
        let artifact = random_shard_artifact(seed);
        let bytes = artifact.encode();
        let cut = (cut_pick % bytes.len() as u64) as usize;
        prop_assert!(ShardArtifact::decode(&bytes[..cut]).is_err(), "cut at {cut}");
    }
}

/// `.dpcs` damage is diagnosed with the same precision as `.dpcm`: a
/// flipped payload byte names its section at the payload's offset, and
/// header damage maps to the dedicated header errors.
#[test]
fn shard_corruption_errors_name_section_and_offset() {
    let artifact = random_shard_artifact(7);
    let clean = artifact.encode();
    let sections = probe_shard_artifact(&clean).unwrap();
    assert_eq!(
        sections.iter().map(|s| s.name).collect::<Vec<_>>(),
        vec!["schema", "shard", "config", "margins", "tau"]
    );

    for info in &sections {
        if info.payload_len == 0 {
            continue;
        }
        let flip_at = info.payload_offset + info.payload_len / 2;
        let mut bytes = clean.clone();
        bytes[flip_at] ^= 0x40;
        match ShardArtifact::decode(&bytes).unwrap_err() {
            StoreError::SectionChecksum {
                section, offset, ..
            } => {
                assert_eq!(section, info.name, "flip at {flip_at}");
                assert_eq!(offset, info.payload_offset);
            }
            other => panic!("section {}: unexpected error {other}", info.name),
        }
    }

    let mut bad_magic = clean.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        ShardArtifact::decode(&bad_magic).unwrap_err(),
        StoreError::BadMagic { .. }
    ));

    let mut bad_version = clean.clone();
    bad_version[4] ^= 0x01;
    assert!(matches!(
        ShardArtifact::decode(&bad_version).unwrap_err(),
        StoreError::UnsupportedVersion { .. }
    ));

    let mut bad_header_crc = clean.clone();
    bad_header_crc[9] ^= 0x10;
    assert!(matches!(
        ShardArtifact::decode(&bad_header_crc).unwrap_err(),
        StoreError::HeaderChecksum { .. }
    ));

    let mut padded = clean.clone();
    padded.push(0);
    match ShardArtifact::decode(&padded).unwrap_err() {
        StoreError::TrailingBytes { offset } => assert_eq!(offset, clean.len()),
        other => panic!("unexpected error {other}"),
    }

    // A `.dpcm` is not a `.dpcs`: cross-feeding the decoders fails on
    // the magic, not deep inside a section parse.
    let model_bytes = random_artifact(7).encode();
    assert!(matches!(
        ShardArtifact::decode(&model_bytes).unwrap_err(),
        StoreError::BadMagic { .. }
    ));
    assert!(matches!(
        ModelArtifact::decode(&clean).unwrap_err(),
        StoreError::BadMagic { .. }
    ));
}

/// `.dpcs` save/load round-trips through a real temp file.
#[test]
fn shard_save_load_round_trips_on_disk() {
    let artifact = random_shard_artifact(11);
    let dir = std::env::temp_dir().join(format!("modelstore_shard_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("part.dpcs");
    artifact.save(&path).unwrap();
    let back = ShardArtifact::load(&path).unwrap();
    assert_eq!(back, artifact);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Pins the *kind* and precision of the error for damage in each region
/// of the file: the reported section and offset must bracket the flip.
#[test]
fn corruption_errors_name_section_and_offset() {
    let artifact = random_artifact(7);
    let clean = artifact.encode();
    let sections = probe(&clean).unwrap();

    // Flip one payload byte of every section: the error must name that
    // section and report the payload's own offset.
    for info in &sections {
        if info.payload_len == 0 {
            continue;
        }
        let flip_at = info.payload_offset + info.payload_len / 2;
        let mut bytes = clean.clone();
        bytes[flip_at] ^= 0x40;
        match ModelArtifact::decode(&bytes).unwrap_err() {
            StoreError::SectionChecksum {
                section, offset, ..
            } => {
                assert_eq!(section, info.name, "flip at {flip_at}");
                assert_eq!(offset, info.payload_offset);
            }
            other => panic!("section {}: unexpected error {other}", info.name),
        }
    }

    // Header regions map to their dedicated errors.
    let mut bad_magic = clean.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        ModelArtifact::decode(&bad_magic).unwrap_err(),
        StoreError::BadMagic { .. }
    ));

    let mut bad_version = clean.clone();
    bad_version[4] ^= 0x01;
    assert!(matches!(
        ModelArtifact::decode(&bad_version).unwrap_err(),
        StoreError::UnsupportedVersion { .. }
    ));

    let mut bad_count = clean.clone();
    bad_count[6] ^= 0x01; // section count — caught by the header CRC
    assert!(matches!(
        ModelArtifact::decode(&bad_count).unwrap_err(),
        StoreError::HeaderChecksum { .. }
    ));

    let mut bad_header_crc = clean.clone();
    bad_header_crc[9] ^= 0x10;
    assert!(matches!(
        ModelArtifact::decode(&bad_header_crc).unwrap_err(),
        StoreError::HeaderChecksum { .. }
    ));

    // A flipped section tag reports which section was expected there.
    let tag_at = sections[1].payload_offset - 12;
    let mut bad_tag = clean.clone();
    bad_tag[tag_at] ^= 0x20;
    match ModelArtifact::decode(&bad_tag).unwrap_err() {
        StoreError::UnexpectedSection {
            expected, offset, ..
        } => {
            assert_eq!(expected, "margins");
            assert_eq!(offset, tag_at);
        }
        other => panic!("unexpected error {other}"),
    }

    // Appending bytes is rejected too.
    let mut padded = clean.clone();
    padded.push(0);
    match ModelArtifact::decode(&padded).unwrap_err() {
        StoreError::TrailingBytes { offset } => assert_eq!(offset, clean.len()),
        other => panic!("unexpected error {other}"),
    }
}

/// File-level save/load round-trip through a real temp file.
#[test]
fn save_load_round_trips_on_disk() {
    let artifact = random_artifact(11);
    let dir = std::env::temp_dir().join(format!("modelstore_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.dpcm");
    artifact.save(&path).unwrap();
    let back = ModelArtifact::load(&path).unwrap();
    assert_eq!(back, artifact);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Saves replace the file atomically: while one thread alternately
/// saves two artifacts to one path, every read of that path decodes,
/// and no temporary file outlives the saves.
#[test]
fn concurrent_reads_never_see_a_torn_save() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    let a = random_artifact(21);
    let mut b = a.clone();
    b.provenance.base_seed ^= 1;
    let dir = std::env::temp_dir().join(format!("modelstore_atomic_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.dpcm");
    a.save(&path).unwrap();

    let done = AtomicBool::new(false);
    let start = Barrier::new(2);
    let (reads, torn) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            start.wait();
            for i in 0..1000 {
                let next = if i % 2 == 0 { &b } else { &a };
                next.save(&path).expect("save");
            }
            done.store(true, Ordering::SeqCst);
        });
        start.wait();
        let (mut reads, mut torn) = (0u64, 0u64);
        loop {
            let finished = done.load(Ordering::SeqCst);
            let bytes = std::fs::read(&path).expect("the artifact path always exists");
            reads += 1;
            torn += u64::from(ModelArtifact::decode(&bytes).is_err());
            if finished {
                break;
            }
        }
        writer.join().expect("writer thread panicked");
        (reads, torn)
    });
    assert_eq!(torn, 0, "{torn} of {reads} reads saw a torn artifact");
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(left, ["model.dpcm"], "temporary files left behind");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `probe` validates framing without decoding and lists the six sections
/// in order (same section set in both format versions).
#[test]
fn probe_lists_sections_in_order() {
    let bytes = random_artifact(3).encode();
    let names: Vec<&str> = probe(&bytes).unwrap().iter().map(|s| s.name).collect();
    assert_eq!(
        names,
        vec![
            "schema",
            "margins",
            "correlation",
            "copula",
            "budget",
            "provenance"
        ]
    );
}

/// The encoder emits the oldest version able to represent the artifact:
/// no shard data → v1 bytes, any shard data → v2. This is what keeps
/// single-shard fits byte-identical to the pre-shard format.
#[test]
fn encoder_picks_minimal_version_for_shard_data() {
    let mut artifact = random_artifact(5);
    artifact.provenance.shards.clear();
    let v1_bytes = artifact.encode();
    assert_eq!(probe_version(&v1_bytes).unwrap(), 1);
    assert_eq!(ModelArtifact::decode(&v1_bytes).unwrap(), artifact);

    artifact.provenance.shards = vec![
        ShardInfo {
            row_start: 0,
            row_end: 10,
            seed_index: 0,
        },
        ShardInfo {
            row_start: 10,
            row_end: 25,
            seed_index: 1,
        },
    ];
    let v2_bytes = artifact.encode();
    assert_eq!(probe_version(&v2_bytes).unwrap(), 2);
    assert_eq!(ModelArtifact::decode(&v2_bytes).unwrap(), artifact);
    assert_ne!(v1_bytes, v2_bytes);
}

/// A v2 shard record claiming an empty row range is structurally
/// malformed and rejected with the provenance section named.
#[test]
fn empty_shard_row_range_is_rejected() {
    let mut artifact = random_artifact(9);
    artifact.provenance.shards = vec![
        ShardInfo {
            row_start: 0,
            row_end: 8,
            seed_index: 0,
        },
        ShardInfo {
            row_start: 8,
            row_end: 8,
            seed_index: 1,
        },
    ];
    let bytes = artifact.encode();
    match ModelArtifact::decode(&bytes).unwrap_err() {
        StoreError::Malformed {
            section, reason, ..
        } => {
            assert_eq!(section, "provenance");
            assert!(reason.contains("shard 1"), "reason: {reason}");
        }
        other => panic!("unexpected error {other}"),
    }
}

/// A pre-refactor `.dpcm` written by the v1 encoder still loads: the
/// checked-in fixture decodes to exactly the artifact that produced it,
/// and re-encoding reproduces the fixture bytes (so old artifacts
/// survive a rewrite cycle untouched).
#[test]
fn v1_fixture_still_loads_and_round_trips() {
    let bytes = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/v1_model.dpcm"
    ))
    .expect("fixture present");
    assert_eq!(probe_version(&bytes).unwrap(), 1);

    let expected = ModelArtifact {
        schema: vec![
            AttributeSpec::new("age", 4),
            AttributeSpec {
                name: "income".into(),
                domain: 3,
                bin_edges: vec![0.0, 10.0, 20.0, 30.0],
            },
        ],
        margin_method: "efpa".into(),
        margins: vec![vec![3.5, 1.25, 0.0, 2.75], vec![5.0, -0.5, 1.5]],
        correlation: Matrix::from_vec(2, 2, vec![1.0, 0.25, 0.25, 1.0]),
        family: CopulaFamily::StudentT { dof: 7.5 },
        ledger: BudgetLedger {
            total: 1.0,
            entries: vec![
                BudgetEntry {
                    label: "margins".into(),
                    epsilon: 8.0 / 9.0,
                },
                BudgetEntry {
                    label: "correlation".into(),
                    epsilon: 1.0 / 9.0,
                },
            ],
        },
        provenance: RngProvenance {
            base_seed: 424242,
            sample_chunk: 8192,
            sampler_stream: 6,
            scheme: "splitmix64x3/xoshiro256++".into(),
            shards: Vec::new(),
        },
    };

    let decoded = ModelArtifact::decode(&bytes).expect("v1 fixture decodes");
    assert_eq!(decoded, expected);
    assert_eq!(decoded.encode(), bytes, "v1 bytes are reproduced exactly");
}

/// A sharded `.dpcm` v2 written with two per-shard sub-ledgers in `BDGT`
/// still loads: the checked-in fixture decodes to the schema, margins,
/// correlation, combined ledger and shard provenance that produced it.
#[test]
fn v2_fixture_with_shard_sub_ledgers_still_loads() {
    let bytes = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/v2_sharded_model.dpcm"
    ))
    .expect("fixture present");
    assert_eq!(probe_version(&bytes).unwrap(), 2);

    let decoded = ModelArtifact::decode(&bytes).expect("v2 fixture decodes");
    assert_eq!(
        decoded.schema,
        vec![
            AttributeSpec::new("age", 4),
            AttributeSpec {
                name: "income".into(),
                domain: 3,
                bin_edges: vec![0.0, 10.0, 20.0, 30.0],
            },
        ]
    );
    assert_eq!(decoded.margin_method, "identity");
    assert_eq!(
        decoded.margins,
        vec![vec![310.5, 288.25, -1.5, 602.75], vec![405.0, 397.5, 398.0]]
    );
    assert_eq!(
        decoded.correlation,
        Matrix::from_vec(2, 2, vec![1.0, -0.125, -0.125, 1.0])
    );
    assert_eq!(decoded.family, CopulaFamily::Gaussian);
    assert_eq!(decoded.ledger.total, 1.0);
    assert_eq!(
        decoded.ledger.entries,
        vec![
            BudgetEntry {
                label: "margins".into(),
                epsilon: 8.0 / 9.0,
            },
            BudgetEntry {
                label: "correlation".into(),
                epsilon: 1.0 / 9.0,
            },
        ]
    );
    assert_eq!(
        decoded.provenance,
        RngProvenance {
            base_seed: 99,
            sample_chunk: 8192,
            sampler_stream: 6,
            scheme: "splitmix64x3/xoshiro256++".into(),
            shards: vec![
                ShardInfo {
                    row_start: 0,
                    row_end: 600,
                    seed_index: 0,
                },
                ShardInfo {
                    row_start: 600,
                    row_end: 1200,
                    seed_index: 1,
                },
            ],
        }
    );
}
