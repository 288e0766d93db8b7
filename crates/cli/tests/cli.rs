//! End-to-end tests of the `dpcopula-cli` binary: the full
//! gen → fit → inspect → sample → eval loop through real files and real
//! process boundaries, including the bit-identity contract between
//! serving a saved artifact and in-process synthesis.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dpcopula-cli"))
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("spawn dpcopula-cli")
}

fn run_ok(args: &[&str]) -> String {
    let out = run(args);
    assert!(
        out.status.success(),
        "`dpcopula-cli {}` failed:\nstdout: {}\nstderr: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

/// A scratch directory removed on drop, unique per test.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("dpcopula_cli_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_str().unwrap().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn gen_small(dir: &Scratch, name: &str) -> String {
    let csv = dir.path(name);
    run_ok(&["gen", "--out", &csv, "--records", "1500", "--seed", "7"]);
    csv
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = run(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn unknown_command_is_an_error() {
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn unknown_flags_are_errors_before_anything_is_written() {
    // A misspelt `--eps` must not release a model at the default budget.
    let dir = Scratch::new("unknown_flag");
    let csv = gen_small(&dir, "census.csv");
    let model = dir.path("model.dpcm");
    let out = run(&["fit", "--input", &csv, "--out", &model, "--eps", "0.1"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --eps for fit"), "{stderr}");
    assert!(!Path::new(&model).exists(), "fit wrote {model}");

    // Every subcommand checks, merge's positional form included; a flag
    // another subcommand reads is still unknown here.
    let merged = dir.path("merged.dpcm");
    for (args, message) in [
        (
            vec!["merge", "a.dpcs", "--out", &merged, "--seed", "1"],
            "unknown flag --seed for merge",
        ),
        (
            vec!["gen", "--out", &merged, "--rows", "10"],
            "unknown flag --rows for gen",
        ),
        (
            vec![
                "sample",
                "--model",
                &model,
                "--out",
                &merged,
                "--epsilon",
                "1",
            ],
            "unknown flag --epsilon for sample",
        ),
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(!Path::new(&merged).exists(), "{args:?} wrote {merged}");
    }
}

#[test]
fn gen_writes_a_readable_census_csv() {
    let dir = Scratch::new("gen");
    let csv = gen_small(&dir, "census.csv");
    let text = std::fs::read_to_string(&csv).unwrap();
    let header = text.lines().next().unwrap();
    assert!(header.contains(':'), "header carries domains: {header}");
    assert_eq!(text.lines().count(), 1501, "header + 1500 rows");
}

#[test]
fn fit_sample_matches_synth_byte_for_byte() {
    let dir = Scratch::new("roundtrip");
    let csv = gen_small(&dir, "census.csv");
    let model = dir.path("model.dpcm");
    let served = dir.path("served.csv");
    let synthed = dir.path("synthed.csv");
    let common = ["--epsilon", "1.0", "--seed", "99"];

    run_ok(&[&["fit", "--input", &csv, "--out", &model][..], &common[..]].concat());
    run_ok(&[
        "sample",
        "--model",
        &model,
        "--out",
        &served,
        "--rows",
        "1000",
        "--workers",
        "3",
    ]);
    run_ok(
        &[
            &[
                "synth", "--input", &csv, "--out", &synthed, "--rows", "1000",
            ][..],
            &common[..],
        ]
        .concat(),
    );

    let a = std::fs::read(&served).unwrap();
    let b = std::fs::read(&synthed).unwrap();
    assert!(!a.is_empty());
    assert_eq!(a, b, "served artifact rows must equal in-process synthesis");
}

#[test]
fn sample_windows_stitch_across_separate_invocations() {
    let dir = Scratch::new("windows");
    let csv = gen_small(&dir, "census.csv");
    let model = dir.path("model.dpcm");
    run_ok(&["fit", "--input", &csv, "--out", &model, "--seed", "5"]);
    let whole = dir.path("whole.csv");
    let head = dir.path("head.csv");
    let tail = dir.path("tail.csv");
    run_ok(&[
        "sample", "--model", &model, "--out", &whole, "--rows", "800",
    ]);
    run_ok(&[
        "sample",
        "--model",
        &model,
        "--out",
        &head,
        "--rows",
        "300",
        "--workers",
        "2",
    ]);
    run_ok(&[
        "sample",
        "--model",
        &model,
        "--out",
        &tail,
        "--rows",
        "500",
        "--offset",
        "300",
        "--workers",
        "7",
    ]);

    let whole = std::fs::read_to_string(&whole).unwrap();
    let head = std::fs::read_to_string(&head).unwrap();
    let tail = std::fs::read_to_string(&tail).unwrap();
    let stitched: Vec<&str> = head
        .lines()
        .chain(tail.lines().skip(1)) // second header
        .collect();
    let expected: Vec<&str> = whole.lines().collect();
    assert_eq!(stitched, expected, "shards must stitch to the whole window");
}

#[test]
fn inspect_reports_sections_and_budget() {
    let dir = Scratch::new("inspect");
    let csv = gen_small(&dir, "census.csv");
    let model = dir.path("model.dpcm");
    run_ok(&["fit", "--input", &csv, "--out", &model, "--epsilon", "0.5"]);
    let report = run_ok(&["inspect", "--model", &model]);
    for needle in [
        "format v1",
        "schema",
        "margins",
        "correlation",
        "budget",
        "provenance",
        "margin method: efpa",
        "copula family: gaussian",
        "spent 0.500000",
    ] {
        assert!(report.contains(needle), "missing `{needle}` in:\n{report}");
    }
}

#[test]
fn sharded_fit_matches_single_shard_budget_and_serves() {
    let dir = Scratch::new("sharded");
    let csv = gen_small(&dir, "census.csv");
    let model = dir.path("model.dpcm");
    let out = run_ok(&[
        "fit",
        "--input",
        &csv,
        "--out",
        &model,
        "--shards",
        "4",
        "--seed",
        "11",
        "--workers",
        "2",
    ]);
    assert!(out.contains("shards 4"), "{out}");
    assert!(out.contains("spent epsilon 1.000000"), "{out}");

    // The sharded artifact carries per-shard provenance (format v2) and
    // still serves rows like any other model.
    let report = run_ok(&["inspect", "--model", &model]);
    for needle in [
        "format v2",
        "shard 0",
        "shard 3",
        "rows [0, 375)",
        "seed index 3",
        "spent 1.000000",
    ] {
        assert!(report.contains(needle), "missing `{needle}` in:\n{report}");
    }
    // Its margins section (offset, length, CRC) is the unsharded fit's:
    // each margin is published once from the counts of every row.
    let plain = dir.path("plain.dpcm");
    run_ok(&["fit", "--input", &csv, "--out", &plain, "--seed", "11"]);
    let plain_report = run_ok(&["inspect", "--model", &plain]);
    let margins_line = |report: &str| {
        let line = report
            .lines()
            .find(|l| l.trim_start().starts_with("margins ") && l.contains("crc32"));
        line.map(str::to_owned)
    };
    assert!(margins_line(&report).is_some(), "{report}");
    assert_eq!(margins_line(&report), margins_line(&plain_report));
    let served = dir.path("served.csv");
    run_ok(&[
        "sample", "--model", &model, "--out", &served, "--rows", "200",
    ]);
    assert_eq!(
        std::fs::read_to_string(&served).unwrap().lines().count(),
        201
    );
}

#[test]
fn explicit_shard_inputs_concatenate_and_fit() {
    let dir = Scratch::new("multi_input");
    let a = dir.path("a.csv");
    let b = dir.path("b.csv");
    run_ok(&["gen", "--out", &a, "--records", "700", "--seed", "1"]);
    run_ok(&["gen", "--out", &b, "--records", "500", "--seed", "2"]);
    let model = dir.path("model.dpcm");
    let out = run_ok(&[
        "fit", "--input", &a, "--input", &b, "--out", &model, "--seed", "9",
    ]);
    // --shards defaults to the input count; rows pool across files.
    assert!(out.contains("from 1200 records"), "{out}");
    assert!(out.contains("shards 2"), "{out}");
    let report = run_ok(&["inspect", "--model", &model]);
    assert!(report.contains("rows [600, 1200)"), "{report}");
}

#[test]
fn shard_misuse_is_a_named_error_not_a_panic() {
    let dir = Scratch::new("shard_errors");
    let csv = gen_small(&dir, "census.csv");
    let model = dir.path("model.dpcm");

    // Zero shards: no partition to fit.
    let out = run(&["fit", "--input", &csv, "--out", &model, "--shards", "0"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("at least one shard"),
        "error should name the problem: {stderr}"
    );

    // More shards than records: some shard would be empty.
    let out = run(&["fit", "--input", &csv, "--out", &model, "--shards", "2000"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("2000 shards requested but only 1500 records"),
        "error should count the shortfall: {stderr}"
    );

    // Estimators without a mergeable summary refuse to shard.
    for method in ["mle", "spearman"] {
        let out = run(&[
            "fit", "--input", &csv, "--out", &model, "--shards", "2", "--method", method,
        ]);
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("no mergeable summary"),
            "{method}: {stderr}"
        );
    }
    assert!(
        !Path::new(&model).exists(),
        "no artifact from a refused fit"
    );
}

#[test]
fn mismatched_shard_schemas_are_refused_with_the_culprit_named() {
    let dir = Scratch::new("shard_schema");
    // 4 US-census attributes vs 8 Brazil-census attributes.
    let us = dir.path("us.csv");
    let br = dir.path("br.csv");
    run_ok(&["gen", "--out", &us, "--records", "400", "--seed", "1"]);
    run_ok(&[
        "gen",
        "--out",
        &br,
        "--dataset",
        "brazil-census",
        "--records",
        "400",
        "--seed",
        "1",
    ]);
    let out = run(&[
        "fit",
        "--input",
        &us,
        "--input",
        &br,
        "--out",
        &dir.path("m.dpcm"),
    ]);
    assert!(!out.status.success(), "mismatched schemas must be refused");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("shard 1 schema does not match shard 0") && stderr.contains("br.csv"),
        "error should name the disagreeing shard and file: {stderr}"
    );
}

#[test]
fn corrupt_artifact_is_rejected_with_precise_error() {
    let dir = Scratch::new("corrupt");
    let csv = gen_small(&dir, "census.csv");
    let model = dir.path("model.dpcm");
    run_ok(&["fit", "--input", &csv, "--out", &model]);

    let mut bytes = std::fs::read(&model).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&model, &bytes).unwrap();

    for args in [
        vec![
            "sample",
            "--model",
            &model,
            "--out",
            &dir.path("x.csv"),
            "--rows",
            "10",
        ],
        vec!["inspect", "--model", &model],
    ] {
        let args: Vec<&str> = args.iter().map(|s| s.as_ref()).collect();
        let out = run(&args);
        assert!(!out.status.success(), "corrupt model must be refused");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("offset") || stderr.contains("checksum"),
            "error should localise the damage: {stderr}"
        );
    }
    assert!(
        !Path::new(&dir.path("x.csv")).exists(),
        "no output from a refused model"
    );
}

#[test]
fn eval_scores_a_release_against_its_source() {
    let dir = Scratch::new("eval");
    let csv = gen_small(&dir, "census.csv");
    let synthed = dir.path("synthed.csv");
    run_ok(&[
        "synth",
        "--input",
        &csv,
        "--out",
        &synthed,
        "--epsilon",
        "2.0",
        "--seed",
        "3",
    ]);
    let report = run_ok(&[
        "eval",
        "--synthetic",
        &synthed,
        "--reference",
        &csv,
        "--queries",
        "50",
        "--seed",
        "1",
    ]);
    assert!(report.contains("queries 50"), "{report}");
    assert!(report.contains("mean relative error"), "{report}");
}

#[test]
fn eval_refuses_a_schema_mismatch() {
    let dir = Scratch::new("eval_schema");
    // Two real generators with incompatible schemas: 4 US-census
    // attributes vs 8 Brazil-census attributes.
    let us = dir.path("us.csv");
    let br = dir.path("br.csv");
    run_ok(&["gen", "--out", &us, "--records", "400", "--seed", "1"]);
    run_ok(&[
        "gen",
        "--out",
        &br,
        "--dataset",
        "brazil-census",
        "--records",
        "400",
        "--seed",
        "1",
    ]);
    let out = run(&["eval", "--synthetic", &us, "--reference", &br]);
    assert!(!out.status.success(), "mismatched schemas must be refused");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("schema mismatch"),
        "error should name the problem: {stderr}"
    );
}

#[test]
fn missing_input_files_fail_with_the_path_in_the_message() {
    let dir = Scratch::new("missing");
    let ghost = dir.path("does_not_exist");
    for args in [
        vec!["fit", "--input", &ghost, "--out", &dir.path("m.dpcm")],
        vec![
            "sample",
            "--model",
            &ghost,
            "--out",
            &dir.path("x.csv"),
            "--rows",
            "10",
        ],
        vec!["inspect", "--model", &ghost],
        vec!["synth", "--input", &ghost, "--out", &dir.path("y.csv")],
        vec!["eval", "--synthetic", &ghost, "--reference", &ghost],
    ] {
        let args: Vec<&str> = args.iter().map(|s| s.as_ref()).collect();
        let out = run(&args);
        assert!(
            !out.status.success(),
            "{:?} with a missing file must fail",
            args[0]
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("does_not_exist"),
            "`{}` error should name the missing path: {stderr}",
            args[0]
        );
    }
}

#[test]
fn truncated_artifact_is_refused_with_a_section_name() {
    let dir = Scratch::new("truncated");
    let csv = gen_small(&dir, "census.csv");
    let model = dir.path("model.dpcm");
    run_ok(&["fit", "--input", &csv, "--out", &model, "--seed", "5"]);

    // Cut the file mid-payload: the loader must report the section it
    // ran out of bytes in, not panic or misparse.
    let mut bytes = std::fs::read(&model).unwrap();
    bytes.truncate(bytes.len() / 3);
    std::fs::write(&model, &bytes).unwrap();

    for args in [
        vec![
            "sample",
            "--model",
            &model,
            "--out",
            &dir.path("x.csv"),
            "--rows",
            "10",
        ],
        vec!["inspect", "--model", &model],
    ] {
        let args: Vec<&str> = args.iter().map(|s| s.as_ref()).collect();
        let out = run(&args);
        assert!(!out.status.success(), "truncated model must be refused");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("truncated") && stderr.contains("section"),
            "error should name the truncated section: {stderr}"
        );
    }
}

/// Splits a written CSV into `shards` contiguous part files on the
/// engine's shard boundaries (the first `n % shards` shards take one
/// extra row), returning the part paths.
fn split_csv(dir: &Scratch, csv: &str, shards: usize) -> Vec<String> {
    let text = std::fs::read_to_string(csv).unwrap();
    let mut lines = text.lines();
    let header = lines.next().unwrap();
    let rows: Vec<&str> = lines.collect();
    let n = rows.len();
    let base = n / shards;
    let extra = n % shards;
    let mut start = 0;
    (0..shards)
        .map(|i| {
            let len = base + usize::from(i < extra);
            let path = dir.path(&format!("part{i}.csv"));
            let mut part = String::from(header);
            part.push('\n');
            for row in &rows[start..start + len] {
                part.push_str(row);
                part.push('\n');
            }
            std::fs::write(&path, part).unwrap();
            start += len;
            path
        })
        .collect()
}

#[test]
fn fit_shard_plus_merge_reproduces_fit_shards_byte_for_byte() {
    let dir = Scratch::new("distfit");
    let csv = gen_small(&dir, "census.csv");
    let reference = dir.path("reference.dpcm");
    run_ok(&[
        "fit",
        "--input",
        &csv,
        "--out",
        &reference,
        "--shards",
        "4",
        "--seed",
        "11",
        "--epsilon",
        "1.0",
    ]);

    // Four independent worker invocations, one part each.
    let parts = split_csv(&dir, &csv, 4);
    let mut dpcs = Vec::new();
    for (i, part) in parts.iter().enumerate() {
        let out = dir.path(&format!("part{i}.dpcs"));
        let index = i.to_string();
        let stdout = run_ok(&[
            "fit-shard",
            "--input",
            part,
            "--out",
            &out,
            "--shard-index",
            &index,
            "--shards",
            "4",
            "--total-rows",
            "1500",
            "--seed",
            "11",
            "--epsilon",
            "1.0",
        ]);
        assert!(
            stdout.contains(&format!("fitted shard {i} of 4")),
            "{stdout}"
        );
        dpcs.push(out);
    }

    let merged = dir.path("merged.dpcm");
    let stdout = run_ok(
        &[
            &["merge"][..],
            &dpcs.iter().map(|s| s.as_str()).collect::<Vec<_>>()[..],
            &["--out", &merged][..],
        ]
        .concat(),
    );
    assert!(stdout.contains("merged 4 shard artifacts"), "{stdout}");
    assert!(stdout.contains("spent epsilon 1.000000"), "{stdout}");

    let a = std::fs::read(&merged).unwrap();
    let b = std::fs::read(&reference).unwrap();
    assert_eq!(
        a, b,
        "merged .dpcm must equal single-process fit --shards 4"
    );
}

#[test]
fn fit_shard_misuse_and_merge_misuse_are_named_errors() {
    let dir = Scratch::new("distfit_errors");
    let csv = gen_small(&dir, "census.csv");

    // The part's rows must match the declared shard window exactly.
    let out = run(&[
        "fit-shard",
        "--input",
        &csv,
        "--out",
        &dir.path("x.dpcs"),
        "--shard-index",
        "0",
        "--shards",
        "4",
        "--total-rows",
        "1500",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("holds 1500 rows") && stderr.contains("covers 375"),
        "error should count the mismatch: {stderr}"
    );

    // Non-mergeable estimators are refused before any rows stream.
    let out = run(&[
        "fit-shard",
        "--input",
        &csv,
        "--out",
        &dir.path("x.dpcs"),
        "--shard-index",
        "0",
        "--shards",
        "1",
        "--total-rows",
        "1500",
        "--method",
        "mle",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no mergeable summary"), "{stderr}");

    // Merge with a missing part names the wrong count.
    let parts = split_csv(&dir, &csv, 2);
    let mut dpcs = Vec::new();
    for (i, part) in parts.iter().enumerate() {
        let out = dir.path(&format!("part{i}.dpcs"));
        let index = i.to_string();
        run_ok(&[
            "fit-shard",
            "--input",
            part,
            "--out",
            &out,
            "--shard-index",
            &index,
            "--shards",
            "2",
            "--total-rows",
            "1500",
        ]);
        dpcs.push(out);
    }
    let out = run(&["merge", &dpcs[0], "--out", &dir.path("m.dpcm")]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("1 shard artifacts provided") && stderr.contains("declared as 2 shards"),
        "error should count declared vs provided: {stderr}"
    );

    // A duplicated part names the culprit file.
    let out = run(&["merge", &dpcs[0], &dpcs[0], "--out", &dir.path("m.dpcm")]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("claims shard index") && stderr.contains("part0.dpcs"),
        "error should name the duplicate: {stderr}"
    );

    // A corrupted .dpcs is rejected with section + offset, not a panic.
    let mut bytes = std::fs::read(&dpcs[1]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&dpcs[1], &bytes).unwrap();
    let out = run(&["merge", &dpcs[0], &dpcs[1], "--out", &dir.path("m.dpcm")]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("offset") || stderr.contains("checksum"),
        "error should localise the damage: {stderr}"
    );

    // A version 1 part, from when shards published noisy margins, is
    // refused by file name with the remedy.
    let mut bytes = std::fs::read(&dpcs[0]).unwrap();
    bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
    let crc = modelstore::crc32::crc32(&bytes[0..8]);
    bytes[8..12].copy_from_slice(&crc.to_le_bytes());
    let old = dir.path("old.dpcs");
    std::fs::write(&old, &bytes).unwrap();
    let out = run(&["merge", &old, &dpcs[1], "--out", &dir.path("m.dpcm")]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("old.dpcs") && stderr.contains("re-run fit-shard"),
        "error should name the file and the remedy: {stderr}"
    );

    // Empty merge is refused.
    let out = run(&["merge", "--out", &dir.path("m.dpcm")]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("at least one"), "{stderr}");

    assert!(
        !Path::new(&dir.path("m.dpcm")).exists(),
        "no artifact from a refused merge"
    );
}

#[test]
fn tiny_per_mechanism_budget_is_a_named_error_not_a_panic() {
    // ε₁/m or ε₂/C(m,2) below the floor would overflow a mechanism's
    // arithmetic; the fit refuses it and writes no model.
    let dir = Scratch::new("tiny_budget");
    let csv = gen_small(&dir, "census.csv");
    let model = dir.path("model.dpcm");
    for budget in [
        ["--epsilon", "1e-150", "--k", "8"],
        ["--epsilon", "1e-310", "--k", "8"],
        ["--epsilon", "1", "--k", "1e-150"],
    ] {
        let mut args = vec!["fit", "--input", &csv, "--out", &model];
        args.extend(budget);
        let out = run(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{budget:?}: {stderr}");
        assert!(stderr.contains("below the floor"), "{budget:?}: {stderr}");
        assert!(!Path::new(&model).exists(), "{budget:?} wrote {model}");
    }
}

#[test]
fn overflowing_sample_window_is_a_clean_error() {
    let dir = Scratch::new("overflow");
    let csv = gen_small(&dir, "census.csv");
    let model = dir.path("model.dpcm");
    run_ok(&["fit", "--input", &csv, "--out", &model, "--seed", "5"]);

    // offset + rows wraps usize: must surface as a diagnosable error,
    // never a panic or a silently wrapped window.
    let out = run(&[
        "sample",
        "--model",
        &model,
        "--out",
        &dir.path("x.csv"),
        "--rows",
        "100",
        "--offset",
        "18446744073709551615",
    ]);
    assert!(!out.status.success(), "overflowing window must be refused");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("overflows the addressable row space"),
        "error should explain the overflow: {stderr}"
    );
    assert!(
        !Path::new(&dir.path("x.csv")).exists(),
        "no output from a refused window"
    );
}
