//! `dpcopula-cli` — fit-once/sample-many front-end over `.dpcm` model
//! artifacts.
//!
//! The binary wires the workspace end to end: `gen` writes a census CSV,
//! `fit` spends the privacy budget once and persists the released model
//! as a `.dpcm` artifact, `inspect` prints what an artifact contains
//! without sampling from it, `sample` serves any row window from a saved
//! artifact (free post-processing), `synth` runs the classic one-shot
//! fit-and-sample pipeline in process, `eval` scores a synthetic CSV
//! against a reference with random range-count queries, and `serve`
//! runs the synthesis daemon (`crates/serve`) over a model directory —
//! the daemon's only command-line front door.
//!
//! Determinism contract: `fit` + `sample --offset 0 --rows n` produces
//! byte-for-byte the CSV `synth` emits for the same input, seed, and
//! engine options — which `scripts/ci.sh` checks with a literal `diff`.

use dpcopula::kendall::SamplingStrategy;
use dpcopula::mle::PartitionStrategy;
use dpcopula::synthesizer::{CorrelationMethod, DpCopulaConfig, MarginMethod};
use dpcopula::{DpCopulaError, EngineOptions, FittedModel, SamplingProfile, SynthesisRequest};
use dpmech::Epsilon;
use obskit::{MetricsRegistry, MetricsSink};
use rngkit::rngs::StdRng;
use rngkit::SeedableRng;
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
dpcopula-cli — differentially private data synthesis over .dpcm artifacts

USAGE:
  dpcopula-cli gen     --out FILE [--dataset us-census|brazil-census]
                       [--records N] [--seed S]
  dpcopula-cli fit     --input FILE [--input FILE ...] --out FILE
                       [--epsilon E] [--seed S] [--shards N]
                       [--method kendall|mle|spearman] [--margin NAME]
                       [--k RATIO] [--workers W] [--chunk C]
  dpcopula-cli fit-shard --input FILE --out FILE --shard-index I --shards N
                       --total-rows R [--epsilon E] [--seed S]
                       [--method kendall] [--margin NAME] [--k RATIO]
                       [--chunk C]
  dpcopula-cli merge   PART.dpcs [PART.dpcs ...] --out FILE [--workers W]
  dpcopula-cli inspect --model FILE
  dpcopula-cli sample  --model FILE --out FILE --rows N [--offset O]
                       [--workers W] [--profile reference|fast]
  dpcopula-cli synth   --input FILE --out FILE [--rows N] [--epsilon E]
                       [--seed S] [--method M] [--margin NAME] [--k RATIO]
                       [--workers W] [--chunk C] [--profile reference|fast]
  dpcopula-cli eval    --synthetic FILE --reference FILE [--queries N]
                       [--seed S] [--sanity B]
  dpcopula-cli serve   --model-dir DIR [--addr HOST:PORT] [--tenants FILE]
                       [--default-epsilon E] [--cache-cap N]
                       [--max-body-bytes N] [--max-fit-body N]
                       [--pool N] [--workers W]
                       [--max-rows N] [--max-connections N] [--max-inflight N]
                       [--read-timeout-ms N] [--write-timeout-ms N]
                       [--head-timeout-ms N] [--body-timeout-ms N]

Every subcommand but serve also takes [--metrics json|prom|off] (default
off) and [--metrics-out FILE]; serve exposes GET /metrics instead. Any
flag a subcommand does not list is an error. With metrics on, the full obskit taxonomy is
pre-registered and a snapshot is written next to the result file
(`RESULT.metrics.json` / `.prom`), to --metrics-out when given, or to
stdout when the command writes no file.

`fit` then `sample --offset 0 --rows N` reproduces `synth --rows N`
byte-for-byte for the same input/seed/options: sampling a saved artifact
is pure post-processing of the one budgeted release — with or without
metrics, which only observe and never perturb a release.

`fit --shards N` partitions the input rows into N disjoint shards,
which release nothing of their own: each margin is published once from
the exact counts of every row, so the margins are the unsharded fit's
byte for byte, and Kendall's tau is scored once over the union of the
shards' record samples before its single noise draw. The guarantee
and the spent budget match the unsharded fit.
Repeating --input supplies explicit shards — the files must agree on
the schema and --shards defaults to the file count. Sharded fits need
--method kendall (mle/spearman have no mergeable summary).

`fit-shard` + `merge` is the distributed, out-of-core form of
`fit --shards N`: each worker streams its own CSV part (shard I of N,
rows never fully resident) into a `.dpcs` shard summary of exact counts
and its share of the tau sample. A shard draws no noise and spends no
epsilon, so a `.dpcs` is as sensitive as the rows it came from. `merge`
sums the counts, draws all the noise and writes a `.dpcm`
byte-identical to the single-process `fit --shards N` on the
concatenated input at the same seed and options. Every worker must be given the same --epsilon, --seed,
--method, --margin, --k, --chunk, --shards, and --total-rows (the row
count of the whole dataset, not the part); `merge` refuses mismatched or
duplicate parts, a part whose counts do not cover its rows and a part
whose tau sample is not its share of the plan, by file name. A version 1
`.dpcs` (written when shards published noisy margins) is refused: re-run
fit-shard.

`--profile fast` samples with the vectorized hot path: same fitted DP
model, same privacy guarantee, much higher rows/s. Fast output is
deterministic with itself (same seed/options => same bytes at any worker
count) but on its own byte stream — it is not comparable to the
reference profile byte-for-byte, only distributionally.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let parse = |known: &[&[&str]]| Flags::parse(cmd, rest, known);
    let result = match cmd.as_str() {
        "gen" => {
            parse(&[&["out", "dataset", "records", "seed"], METRICS]).and_then(|f| cmd_gen(&f))
        }
        "fit" => parse(&[&["input", "out", "shards"], CONFIG, METRICS]).and_then(|f| cmd_fit(&f)),
        "fit-shard" => parse(&[
            &["input", "out", "shard-index", "shards", "total-rows"],
            CONFIG,
            METRICS,
        ])
        .and_then(|f| cmd_fit_shard(&f)),
        "merge" => cmd_merge(rest),
        "inspect" => parse(&[&["model"], METRICS]).and_then(|f| cmd_inspect(&f)),
        "sample" => parse(&[
            &["model", "out", "rows", "offset", "workers", "profile"],
            METRICS,
        ])
        .and_then(|f| cmd_sample(&f)),
        "synth" => parse(&[&["input", "out", "rows", "profile"], CONFIG, METRICS])
            .and_then(|f| cmd_synth(&f)),
        "eval" => parse(&[
            &["synthetic", "reference", "queries", "seed", "sanity"],
            METRICS,
        ])
        .and_then(|f| cmd_eval(&f)),
        "serve" => parse(&[SERVE]).and_then(|f| cmd_serve(&f)),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The flags of the shared fit configuration ([`parse_config`]).
const CONFIG: &[&str] = &[
    "epsilon", "seed", "method", "margin", "k", "workers", "chunk",
];
/// The metrics side-channel flags ([`Metrics::parse`]).
const METRICS: &[&str] = &["metrics", "metrics-out"];
/// The daemon's flags ([`cmd_serve`]).
const SERVE: &[&str] = &[
    "addr",
    "model-dir",
    "tenants",
    "default-epsilon",
    "cache-cap",
    "max-body-bytes",
    "max-fit-body",
    "pool",
    "workers",
    "max-rows",
    "max-connections",
    "max-inflight",
    "read-timeout-ms",
    "write-timeout-ms",
    "head-timeout-ms",
    "body-timeout-ms",
];

/// `--name value` flag pairs, hand-parsed (the workspace takes no
/// dependencies, so no clap).
struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Parses `args` for subcommand `cmd`, which reads only the flags in
    /// `known`: any other flag is refused before anything is read or
    /// written, so a misspelt `--eps` cannot silently fall back to the
    /// default budget.
    fn parse(cmd: &str, args: &[String], known: &[&[&str]]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got `{flag}`"))?;
            if !known.iter().any(|group| group.contains(&name)) {
                return Err(format!("unknown flag --{name} for {cmd}"));
            }
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Self { pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Every value of a repeatable flag, in argument order.
    fn get_all(&self, name: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value `{v}` for --{name}")),
        }
    }
}

/// Which rendering `--metrics` asked for.
enum MetricsMode {
    Off,
    Json,
    Prom,
}

/// The metrics side-channel of one CLI invocation: a private registry
/// with the full taxonomy pre-registered (so a snapshot always lists
/// every series, zeros included), plus where to write the snapshot.
struct Metrics {
    mode: MetricsMode,
    registry: Arc<MetricsRegistry>,
    out: Option<String>,
}

impl Metrics {
    fn parse(flags: &Flags) -> Result<Self, String> {
        let mode = match flags.get("metrics").unwrap_or("off") {
            "off" => MetricsMode::Off,
            "json" => MetricsMode::Json,
            "prom" => MetricsMode::Prom,
            other => {
                return Err(format!(
                    "unknown --metrics mode `{other}` (json, prom, off)"
                ))
            }
        };
        let registry = Arc::new(MetricsRegistry::new());
        if !matches!(mode, MetricsMode::Off) {
            obskit::names::register_taxonomy(&registry);
        }
        Ok(Self {
            mode,
            registry,
            out: flags.get("metrics-out").map(str::to_string),
        })
    }

    /// The sink instrumented code records through — disabled (one branch
    /// per would-be record) unless `--metrics` asked for a rendering.
    fn sink(&self) -> MetricsSink {
        match self.mode {
            MetricsMode::Off => MetricsSink::off(),
            _ => MetricsSink::to_registry(self.registry.clone()),
        }
    }

    /// Renders and writes the snapshot: to `--metrics-out` when given,
    /// else alongside the command's result file, else to stdout.
    fn write(&self, result_path: Option<&str>) -> Result<(), String> {
        let (rendered, ext) = match self.mode {
            MetricsMode::Off => return Ok(()),
            MetricsMode::Json => (self.registry.snapshot().to_json(), "metrics.json"),
            MetricsMode::Prom => (self.registry.snapshot().to_prometheus(), "metrics.prom"),
        };
        let path = self
            .out
            .clone()
            .or_else(|| result_path.map(|p| format!("{p}.{ext}")));
        match path {
            Some(p) => {
                std::fs::write(&p, rendered).map_err(|e| format!("writing {p}: {e}"))?;
                println!("metrics snapshot: {p}");
            }
            None => print!("{rendered}"),
        }
        Ok(())
    }
}

fn parse_method(s: &str) -> Result<CorrelationMethod, String> {
    match s {
        "kendall" => Ok(CorrelationMethod::Kendall(SamplingStrategy::Auto)),
        "mle" => Ok(CorrelationMethod::Mle(PartitionStrategy::Auto)),
        "spearman" => Ok(CorrelationMethod::Spearman),
        other => Err(format!(
            "unknown correlation method `{other}` (kendall, mle, spearman)"
        )),
    }
}

fn parse_profile(s: &str) -> Result<SamplingProfile, String> {
    match s {
        "reference" => Ok(SamplingProfile::Reference),
        "fast" => Ok(SamplingProfile::Fast),
        other => Err(format!(
            "unknown sampling profile `{other}` (reference, fast)"
        )),
    }
}

fn parse_margin(s: &str) -> Result<MarginMethod, String> {
    Ok(match s {
        "efpa" => MarginMethod::Efpa,
        "efpa-dct" => MarginMethod::EfpaDct,
        "identity" => MarginMethod::Identity,
        "privelet" => MarginMethod::Privelet,
        "php" => MarginMethod::Php,
        "hierarchical" => MarginMethod::Hierarchical,
        "noisefirst" => MarginMethod::NoiseFirst,
        "structurefirst" => MarginMethod::StructureFirst,
        other => return Err(format!("unknown margin method `{other}`")),
    })
}

/// The shared fit configuration of `fit` and `synth`.
fn parse_config(flags: &Flags) -> Result<(DpCopulaConfig, EngineOptions, u64), String> {
    let epsilon =
        Epsilon::new(flags.parsed("epsilon", 1.0)?).map_err(|e| format!("bad --epsilon: {e}"))?;
    let mut config = DpCopulaConfig::kendall(epsilon);
    config.method = parse_method(flags.get("method").unwrap_or("kendall"))?;
    config = config.with_margin(parse_margin(flags.get("margin").unwrap_or("efpa"))?);
    if let Some(k) = flags.get("k") {
        let k: f64 = k.parse().map_err(|_| format!("bad value `{k}` for --k"))?;
        if !k.is_finite() || k <= 0.0 {
            return Err("--k must be positive and finite".into());
        }
        config = config.with_k_ratio(k);
    }
    let mut opts = EngineOptions::with_workers(flags.parsed("workers", 1usize)?);
    opts.sample_chunk = flags.parsed("chunk", opts.sample_chunk)?;
    if opts.sample_chunk == 0 {
        return Err("--chunk must be positive".into());
    }
    let seed = flags.parsed("seed", 42u64)?;
    Ok((config, opts, seed))
}

fn load_dataset(path: &str) -> Result<datagen::Dataset, String> {
    datagen::io::load_csv(path).map_err(|e| format!("reading {path}: {e}"))
}

fn save_dataset(dataset: &datagen::Dataset, path: &str) -> Result<(), String> {
    datagen::io::save_csv(dataset, path).map_err(|e| format!("writing {path}: {e}"))
}

fn cmd_gen(flags: &Flags) -> Result<(), String> {
    let out = flags.require("out")?;
    let records = flags.parsed("records", 10_000usize)?;
    let seed = flags.parsed("seed", 42u64)?;
    let dataset = match flags.get("dataset").unwrap_or("us-census") {
        "us-census" => datagen::census::us_census(records, seed),
        "brazil-census" => datagen::census::brazil_census(records, seed),
        other => {
            return Err(format!(
                "unknown dataset `{other}` (us-census, brazil-census)"
            ))
        }
    };
    save_dataset(&dataset, out)?;
    println!(
        "wrote {} records x {} attributes to {out}",
        dataset.len(),
        dataset.dims()
    );
    Metrics::parse(flags)?.write(Some(out))?;
    Ok(())
}

/// Concatenates explicit shard inputs into one dataset, verifying every
/// file releases the same schema as the first (names and domains) —
/// summaries over disagreeing schemas cannot be merged into one model.
fn merge_shard_inputs(
    mut datasets: Vec<datagen::Dataset>,
    paths: &[&str],
) -> Result<datagen::Dataset, String> {
    let first = datasets.remove(0);
    if datasets.is_empty() {
        return Ok(first);
    }
    let attributes = first.attributes().to_vec();
    let mut columns: Vec<Vec<u32>> = first.into_columns();
    for (i, d) in datasets.into_iter().enumerate() {
        let shard = i + 1;
        if let Some(reason) = schema_mismatch(&attributes, d.attributes()) {
            let err = DpCopulaError::ShardSchemaMismatch { shard, reason };
            return Err(format!("{err} (shard {shard} is {})", paths[shard]));
        }
        for (col, extra) in columns.iter_mut().zip(d.into_columns()) {
            col.extend(extra);
        }
    }
    Ok(datagen::Dataset::new(attributes, columns))
}

/// How `other` disagrees with the first input's schema, if it does.
fn schema_mismatch(base: &[datagen::Attribute], other: &[datagen::Attribute]) -> Option<String> {
    if base.len() != other.len() {
        return Some(format!("{} attributes vs {}", other.len(), base.len()));
    }
    base.iter().zip(other).enumerate().find_map(|(j, (a, b))| {
        (a != b).then(|| {
            format!(
                "attribute {j} is `{}` (domain {}) vs `{}` (domain {})",
                b.name, b.domain, a.name, a.domain
            )
        })
    })
}

fn cmd_fit(flags: &Flags) -> Result<(), String> {
    let inputs = flags.get_all("input");
    if inputs.is_empty() {
        return Err("missing required flag --input".into());
    }
    let out = flags.require("out")?;
    let (config, mut opts, seed) = parse_config(flags)?;
    // Each extra --input is one explicit shard of rows; a single input
    // can still be split into N balanced row ranges with --shards.
    opts.shards = flags.parsed("shards", inputs.len())?;
    let metrics = Metrics::parse(flags)?;
    let mut datasets = Vec::with_capacity(inputs.len());
    for path in &inputs {
        datasets.push(load_dataset(path)?);
    }
    let dataset = merge_shard_inputs(datasets, &inputs)?;
    let domains = dataset.domains();
    let (mut model, report) = SynthesisRequest::from_config(dataset.columns(), &domains, config)
        .engine(opts)
        .seed(seed)
        .metrics(metrics.sink())
        .fit()
        .map_err(|e| format!("fit failed: {e}"))?;
    let names: Vec<&str> = dataset
        .attributes()
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    model.set_attribute_names(&names);
    model.save(out).map_err(|e| format!("writing {out}: {e}"))?;
    let ledger = &model.artifact().ledger;
    println!(
        "fitted {} attributes from {} records in {:?} (seed {seed}, workers {}, shards {})",
        model.dims(),
        dataset.len(),
        report.timings.total(),
        report.workers,
        opts.shards,
    );
    println!(
        "spent epsilon {:.6} of {:.6}; artifact: {out}",
        ledger.spent(),
        ledger.total
    );
    metrics.write(Some(out))?;
    Ok(())
}

fn cmd_fit_shard(flags: &Flags) -> Result<(), String> {
    let input = flags.require("input")?;
    let out = flags.require("out")?;
    let shard_index: usize = flags
        .require("shard-index")?
        .parse()
        .map_err(|_| "bad value for --shard-index".to_string())?;
    let shards: usize = flags
        .require("shards")?
        .parse()
        .map_err(|_| "bad value for --shards".to_string())?;
    let total_rows: usize = flags
        .require("total-rows")?
        .parse()
        .map_err(|_| "bad value for --total-rows".to_string())?;
    let (config, opts, seed) = parse_config(flags)?;
    let metrics = Metrics::parse(flags)?;
    // The part streams through block by block — only one block of rows
    // is ever resident, which is the whole point of the shard worker.
    let mut source =
        datagen::CsvFileSource::open(input).map_err(|e| format!("reading {input}: {e}"))?;
    let artifact = dpcopula::fit_shard(
        &mut source,
        &config,
        shard_index,
        shards,
        total_rows,
        seed,
        &opts,
        &metrics.sink(),
    )
    .map_err(|e| format!("fit-shard failed: {e}"))?;
    artifact
        .save(out)
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "fitted shard {shard_index} of {shards}: rows [{}, {}) of {total_rows}, \
         {} attributes (seed {seed}); artifact: {out}",
        artifact.row_start,
        artifact.row_end,
        artifact.schema.len(),
    );
    metrics.write(Some(out))?;
    Ok(())
}

fn cmd_merge(args: &[String]) -> Result<(), String> {
    // `merge` takes its shard inputs positionally (`merge a.dpcs b.dpcs
    // --out m.dpcm`); every other argument is a regular --flag pair.
    let mut inputs: Vec<String> = Vec::new();
    let mut flag_args: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg.starts_with("--") {
            flag_args.push(arg.clone());
            if let Some(value) = it.next() {
                flag_args.push(value.clone());
            }
        } else {
            inputs.push(arg.clone());
        }
    }
    let flags = Flags::parse(
        "merge",
        &flag_args,
        &[&["input", "out", "workers"], METRICS],
    )?;
    // `--input` also works, for symmetry with `fit`.
    inputs.extend(flags.get_all("input").iter().map(|s| s.to_string()));
    if inputs.is_empty() {
        return Err("merge needs at least one .dpcs shard artifact".into());
    }
    let out = flags.require("out")?;
    let workers = flags.parsed("workers", 1usize)?;
    let metrics = Metrics::parse(&flags)?;
    let mut artifacts = Vec::with_capacity(inputs.len());
    for path in &inputs {
        let artifact =
            modelstore::ShardArtifact::load(path).map_err(|e| format!("reading {path}: {e}"))?;
        artifacts.push((path.clone(), artifact));
    }
    let total_rows = artifacts[0].1.total_rows;
    let model = dpcopula::merge_shards(&artifacts, workers, &metrics.sink())
        .map_err(|e| format!("merge failed: {e}"))?;
    model.save(out).map_err(|e| format!("writing {out}: {e}"))?;
    let ledger = &model.artifact().ledger;
    println!(
        "merged {} shard artifacts covering {total_rows} records into {} attributes",
        artifacts.len(),
        model.dims(),
    );
    println!(
        "spent epsilon {:.6} of {:.6}; artifact: {out}",
        ledger.spent(),
        ledger.total
    );
    metrics.write(Some(out))?;
    Ok(())
}

fn cmd_inspect(flags: &Flags) -> Result<(), String> {
    let path = flags.require("model")?;
    let metrics = Metrics::parse(flags)?;
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let sections = modelstore::probe(&bytes).map_err(|e| e.to_string())?;
    let version = modelstore::probe_version(&bytes).map_err(|e| e.to_string())?;
    let artifact =
        modelstore::decode_observed(&bytes, &metrics.sink()).map_err(|e| e.to_string())?;
    println!(
        "{path}: {} bytes, format v{version}, {} sections",
        bytes.len(),
        sections.len()
    );
    for s in &sections {
        println!(
            "  {:<12} offset {:>6}  len {:>7}  crc32 {:08x}",
            s.name, s.payload_offset, s.payload_len, s.crc
        );
    }
    println!("schema: {} attributes", artifact.dims());
    for attr in &artifact.schema {
        let binned = if attr.bin_edges.is_empty() {
            String::new()
        } else {
            format!("  ({} bin edges)", attr.bin_edges.len())
        };
        println!("  {:<20} domain {:>6}{binned}", attr.name, attr.domain);
    }
    println!(
        "margin method: {}\ncopula family: {}",
        artifact.margin_method,
        artifact.family.name()
    );
    let ledger = &artifact.ledger;
    println!(
        "budget: total epsilon {:.6}, spent {:.6}",
        ledger.total,
        ledger.spent()
    );
    for entry in &ledger.entries {
        println!("  {:<12} epsilon {:.6}", entry.label, entry.epsilon);
    }
    let p = &artifact.provenance;
    println!(
        "provenance: seed {}, chunk {}, stream {}, scheme {}",
        p.base_seed, p.sample_chunk, p.sampler_stream, p.scheme
    );
    for (s, info) in p.shards.iter().enumerate() {
        println!(
            "  shard {s:<6} rows [{}, {})  seed index {}",
            info.row_start, info.row_end, info.seed_index
        );
    }
    println!("correlation:");
    let m = artifact.correlation.rows();
    for i in 0..m {
        let row: Vec<String> = (0..m)
            .map(|j| format!("{:>7.4}", artifact.correlation[(i, j)]))
            .collect();
        println!("  {}", row.join(" "));
    }
    metrics.write(None)?;
    Ok(())
}

fn cmd_sample(flags: &Flags) -> Result<(), String> {
    let path = flags.require("model")?;
    let out = flags.require("out")?;
    let rows: usize = flags
        .require("rows")?
        .parse()
        .map_err(|_| "bad value for --rows".to_string())?;
    let offset = flags.parsed("offset", 0usize)?;
    let workers = flags.parsed("workers", 1usize)?;
    let profile = parse_profile(flags.get("profile").unwrap_or("reference"))?;
    let metrics = Metrics::parse(flags)?;
    let model = FittedModel::load_observed(path, &metrics.sink())
        .map_err(|e| format!("reading {path}: {e}"))?;
    let attributes: Vec<datagen::Attribute> = model
        .artifact()
        .schema
        .iter()
        .map(|a| datagen::Attribute::new(a.name.clone(), a.domain))
        .collect();
    // The header, then the window's blocks as its chunk tasks encoded
    // them: the bytes `write_csv` writes for the window's dataset.
    let blocks = model
        .try_sample_blocks(profile, offset, rows, workers, |_, columns| {
            let mut block = Vec::new();
            datagen::io::encode_csv_rows(&mut block, &attributes, &columns).map(|()| block)
        })
        .map_err(|e| e.to_string())?;
    let written = std::fs::File::create(out).and_then(|mut file| {
        file.write_all(&datagen::io::csv_header(&attributes))?;
        blocks
            .into_iter()
            .try_for_each(|block| file.write_all(&block?))
    });
    written.map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "served rows [{offset}, {}) from {path} to {out}",
        offset + rows
    );
    metrics.write(Some(out))?;
    Ok(())
}

fn cmd_synth(flags: &Flags) -> Result<(), String> {
    let input = flags.require("input")?;
    let out = flags.require("out")?;
    let (mut config, opts, seed) = parse_config(flags)?;
    config = config.with_profile(parse_profile(flags.get("profile").unwrap_or("reference"))?);
    let metrics = Metrics::parse(flags)?;
    let dataset = load_dataset(input)?;
    if let Some(rows) = flags.get("rows") {
        let rows: usize = rows
            .parse()
            .map_err(|_| "bad value for --rows".to_string())?;
        config = config.with_output_records(rows);
    }
    let domains = dataset.domains();
    let (synthesis, report) = SynthesisRequest::from_config(dataset.columns(), &domains, config)
        .engine(opts)
        .seed(seed)
        .metrics(metrics.sink())
        .run()
        .map_err(|e| format!("synthesis failed: {e}"))?;
    let attributes = dataset.attributes().to_vec();
    let released = datagen::Dataset::new(attributes, synthesis.columns);
    save_dataset(&released, out)?;
    println!(
        "synthesized {} records x {} attributes to {out} in {:?} (seed {seed})",
        released.len(),
        released.dims(),
        report.timings.total(),
    );
    metrics.write(Some(out))?;
    Ok(())
}

fn cmd_eval(flags: &Flags) -> Result<(), String> {
    let synthetic = load_dataset(flags.require("synthetic")?)?;
    let reference = load_dataset(flags.require("reference")?)?;
    if synthetic.domains() != reference.domains() {
        return Err(format!(
            "schema mismatch: synthetic domains {:?} vs reference {:?}",
            synthetic.domains(),
            reference.domains()
        ));
    }
    let queries = flags.parsed("queries", 1_000usize)?;
    let seed = flags.parsed("seed", 42u64)?;
    let sanity = flags.parsed("sanity", 1.0f64)?;
    if sanity <= 0.0 {
        return Err("--sanity must be positive".into());
    }
    let metrics = Metrics::parse(flags)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let workload = queryeval::Workload::random(&reference.domains(), queries, &mut rng);
    let report = queryeval::evaluate(
        &workload,
        &queryeval::Synthetic::new(synthetic.columns(), reference.columns()).sanity(sanity),
    );
    let summary = report.summary;
    println!(
        "queries {}  mean relative error {:.6}  mean absolute error {:.3}  max relative error {:.6}",
        summary.queries,
        summary.mean_relative,
        summary.mean_absolute,
        report.max_relative()
    );
    metrics.write(None)?;
    Ok(())
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    use dpcopula_serve::{ServeConfig, Server};
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        addr: flags.get("addr").unwrap_or(&defaults.addr).to_string(),
        model_dir: flags.require("model-dir")?.into(),
        tenant_file: flags.get("tenants").map(Into::into),
        default_epsilon: flags.parsed("default-epsilon", defaults.default_epsilon)?,
        cache_capacity: flags.parsed("cache-cap", defaults.cache_capacity)?,
        max_body_bytes: flags.parsed("max-body-bytes", defaults.max_body_bytes)?,
        max_fit_body_bytes: flags.parsed("max-fit-body", defaults.max_fit_body_bytes)?,
        pool_workers: flags.parsed("pool", defaults.pool_workers)?,
        sample_workers: flags.parsed("workers", defaults.sample_workers)?,
        max_rows: flags.parsed("max-rows", defaults.max_rows)?,
        max_connections: flags.parsed("max-connections", defaults.max_connections)?,
        max_inflight: flags.parsed("max-inflight", defaults.max_inflight)?,
        read_timeout: ms_flag(flags, "read-timeout-ms", defaults.read_timeout)?,
        write_timeout: ms_flag(flags, "write-timeout-ms", defaults.write_timeout)?,
        head_timeout: ms_flag(flags, "head-timeout-ms", defaults.head_timeout)?,
        body_timeout: ms_flag(flags, "body-timeout-ms", defaults.body_timeout)?,
    };
    let server = Server::bind(config).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!("listening on http://{addr}");
    server.run().map_err(|e| e.to_string())
}

fn ms_flag(
    flags: &Flags,
    name: &str,
    default: std::time::Duration,
) -> Result<std::time::Duration, String> {
    let ms: u64 = flags.parsed(name, default.as_millis() as u64)?;
    if ms == 0 {
        return Err(format!("--{name} must be at least 1 millisecond"));
    }
    Ok(std::time::Duration::from_millis(ms))
}
