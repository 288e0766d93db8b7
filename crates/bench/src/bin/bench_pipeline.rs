//! Emits `BENCH_pipeline.json`: machine-readable per-stage wall-clock
//! statistics (min/median/p95 seconds) of the staged synthesis engine at
//! worker counts {1, 2, 4} on fig11-sized census data, plus the legacy
//! serial correlation estimator (`dp_correlation_matrix`, per-pair sorts,
//! single-threaded) as the reference the correlation-stage speedup is
//! measured against, and the sampling stage timed under both sampling
//! profiles (`reference` vs the ziggurat/table `fast` hot path).
//!
//! `QUICK=1` shrinks the input and sample count for smoke runs.

use datagen::census::us_census;
use datagen::RowSource;
use dpcopula::kendall::{dp_correlation_matrix, SamplingStrategy};
use dpcopula::{DpCopulaConfig, EngineOptions, SamplingProfile, SynthesisRequest};
use dpmech::Epsilon;
use obskit::{MetricsRegistry, MetricsSink, Stopwatch};
use rngkit::rngs::StdRng;
use rngkit::SeedableRng;
use std::fmt::Write as _;
use std::sync::Arc;

/// Ceiling on summary-merge time as a fraction of the single-shard fit:
/// sharding pays its parallel-composition bookkeeping out of the fit it
/// accelerates, so the merge must stay a small tax.
const MAX_MERGE_OVERHEAD: f64 = 0.15;

/// Floor on the 4-shard fit speedup over the serial single-shard fit,
/// asserted only on hosts with at least 4 cores.
const MIN_SHARD_SPEEDUP: f64 = 2.0;

/// min/median/p95 over a set of timing samples, in seconds.
#[derive(Debug, Clone, Copy)]
struct Stats {
    min: f64,
    median: f64,
    p95: f64,
}

fn stats(samples: &[f64]) -> Stats {
    assert!(!samples.is_empty());
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let pick = |p: f64| s[((s.len() - 1) as f64 * p).round() as usize];
    Stats {
        min: s[0],
        median: pick(0.5),
        p95: pick(0.95),
    }
}

fn json_stats(s: Stats) -> String {
    format!(
        "{{\"min_s\": {:.6}, \"median_s\": {:.6}, \"p95_s\": {:.6}}}",
        s.min, s.median, s.p95
    )
}

/// A [`RowSource`] adapter counting the blocks it forwards and the
/// largest one seen — the row-buffer census behind the out-of-core
/// memory gate.
struct BlockCensus<S> {
    inner: S,
    peak_block_rows: usize,
    blocks: u64,
}

impl<S: RowSource> BlockCensus<S> {
    fn new(inner: S) -> Self {
        Self {
            inner,
            peak_block_rows: 0,
            blocks: 0,
        }
    }
}

impl<S: RowSource> RowSource for BlockCensus<S> {
    fn attributes(&self) -> &[datagen::Attribute] {
        self.inner.attributes()
    }

    fn rewindable(&self) -> bool {
        self.inner.rewindable()
    }

    fn next_block(&mut self) -> Result<Option<datagen::Block>, datagen::SourceError> {
        let block = self.inner.next_block()?;
        if let Some(b) = &block {
            self.blocks += 1;
            self.peak_block_rows = self.peak_block_rows.max(b.rows());
        }
        Ok(block)
    }

    fn rewind(&mut self) -> Result<(), datagen::SourceError> {
        self.inner.rewind()
    }
}

const STAGE_NAMES: [&str; 5] = [
    "budget_plan",
    "margins",
    "correlation",
    "pd_repair",
    "sampling",
];

fn main() {
    let quick = std::env::var("QUICK").map(|v| v == "1").unwrap_or(false);
    let n = if quick { 10_000 } else { 100_000 };
    let samples = if quick { 3 } else { 7 };
    let epsilon = 1.0;
    let k_ratio = 8.0;
    let worker_counts = [1usize, 2, 4];

    let data = us_census(n, 0xbe9c);
    let m = data.domains().len();
    let eps = Epsilon::new(epsilon).expect("positive epsilon");
    let config = DpCopulaConfig::kendall(eps).with_k_ratio(k_ratio);
    let (_, eps2) = eps.split_ratio(k_ratio);

    // Reference: the legacy serial correlation estimator, exactly as the
    // pre-engine pipeline ran it (per-pair lexicographic sorts, one
    // thread, repair included).
    let mut legacy = Vec::with_capacity(samples);
    for s in 0..samples {
        let mut rng = StdRng::seed_from_u64(0xaced + s as u64);
        let t0 = Stopwatch::start();
        let p = dp_correlation_matrix(data.columns(), eps2, SamplingStrategy::Auto, &mut rng);
        legacy.push(t0.elapsed().as_secs_f64());
        assert_eq!(p.rows(), m);
    }
    let legacy_stats = stats(&legacy);
    println!(
        "legacy serial correlation: median {:.4}s over {samples} samples",
        legacy_stats.median
    );

    // The staged engine at each worker count: per-stage duration vectors.
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"pipeline_stages\",");
    let _ = writeln!(
        out,
        "  \"config\": {{\"records\": {n}, \"dims\": {m}, \"epsilon\": {epsilon}, \
         \"k_ratio\": {k_ratio}, \"samples\": {samples}, \"quick\": {quick}, \
         \"host_cores\": {}}},",
        std::thread::available_parallelism().map_or(1, |c| c.get())
    );
    let _ = writeln!(
        out,
        "  \"legacy_serial_correlation\": {},",
        json_stats(legacy_stats)
    );

    let _ = writeln!(out, "  \"workers\": [");
    let mut correlation_medians = Vec::new();
    for (wi, &workers) in worker_counts.iter().enumerate() {
        let mut per_stage: Vec<Vec<f64>> = (0..5).map(|_| Vec::with_capacity(samples)).collect();
        let mut totals = Vec::with_capacity(samples);
        for s in 0..samples {
            let (_, report) =
                SynthesisRequest::from_config(data.columns(), &data.domains(), config)
                    .engine(EngineOptions::with_workers(workers))
                    .seed(0xf00d + s as u64)
                    .run()
                    .expect("census synthesis succeeds");
            for (bucket, (_, d)) in per_stage.iter_mut().zip(report.timings.stages()) {
                bucket.push(d.as_secs_f64());
            }
            totals.push(report.timings.total().as_secs_f64());
        }
        let corr = stats(&per_stage[2]);
        correlation_medians.push(corr.median);
        println!(
            "engine workers={workers}: total median {:.4}s, correlation median {:.4}s",
            stats(&totals).median,
            corr.median
        );

        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"workers\": {workers},");
        let _ = writeln!(out, "      \"stages\": {{");
        for (si, name) in STAGE_NAMES.iter().enumerate() {
            let comma = if si + 1 < STAGE_NAMES.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "        \"{name}\": {}{comma}",
                json_stats(stats(&per_stage[si]))
            );
        }
        let _ = writeln!(out, "      }},");
        let _ = writeln!(out, "      \"total\": {}", json_stats(stats(&totals)));
        let comma = if wi + 1 < worker_counts.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ],");

    // The sampling stage under each profile, full engine at 4 workers:
    // same fitted model shape, different hot path.
    let _ = writeln!(out, "  \"sampling_profiles\": {{");
    let profiles = [SamplingProfile::Reference, SamplingProfile::Fast];
    for (pi, &profile) in profiles.iter().enumerate() {
        let mut sampling = Vec::with_capacity(samples);
        for s in 0..samples {
            let (_, report) = SynthesisRequest::from_config(
                data.columns(),
                &data.domains(),
                config.with_profile(profile),
            )
            .engine(EngineOptions::with_workers(4))
            .seed(0xf00d + s as u64)
            .run()
            .expect("census synthesis succeeds");
            let (_, d) = report
                .timings
                .stages()
                .into_iter()
                .find(|(name, _)| *name == "sampling")
                .expect("sampling stage timed");
            sampling.push(d.as_secs_f64());
        }
        let st = stats(&sampling);
        let rows_per_s = n as f64 / st.median;
        println!(
            "sampling profile={}: median {:.4}s ({rows_per_s:.0} rows/s)",
            profile.name(),
            st.median
        );
        let comma = if pi + 1 < profiles.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    \"{}\": {{\"min_s\": {:.6}, \"median_s\": {:.6}, \"p95_s\": {:.6}, \
             \"rows_per_s\": {rows_per_s:.1}}}{comma}",
            profile.name(),
            st.min,
            st.median,
            st.p95
        );
    }
    let _ = writeln!(out, "  }},");

    // Sharded fit: wall clock of the fit (no sampling) at shard counts
    // {1, 2, 4} with workers matched to shards, so the single-shard
    // entry is the serial fit the speedup is measured against. Per-run
    // summary-build and summary-merge time comes from the engine's
    // pipeline/shard_fit and pipeline/shard_merge spans.
    let shard_counts = [1usize, 2, 4];
    let mut fit_medians = Vec::new();
    let mut merge_medians = Vec::new();
    let _ = writeln!(out, "  \"fit_shards\": [");
    for (si, &shards) in shard_counts.iter().enumerate() {
        let mut fits = Vec::with_capacity(samples);
        let mut builds = Vec::with_capacity(samples);
        let mut merges = Vec::with_capacity(samples);
        for s in 0..samples {
            let registry = Arc::new(MetricsRegistry::new());
            let mut opts = EngineOptions::with_workers(shards);
            opts.shards = shards;
            let t0 = Stopwatch::start();
            let (_, _) = SynthesisRequest::from_config(data.columns(), &data.domains(), config)
                .engine(opts)
                .seed(0xfee1 + s as u64)
                .metrics(MetricsSink::to_registry(registry.clone()))
                .fit()
                .expect("census fit succeeds");
            fits.push(t0.elapsed().as_secs_f64());
            let span_sum = |path: &str| {
                registry
                    .snapshot()
                    .get(&format!("span_ns{{span=\"{path}\"}}"))
                    .and_then(|e| e.value.as_hist().map(|h| h.sum))
                    .unwrap_or(0) as f64
                    / 1e9
            };
            builds.push(span_sum("pipeline/shard_fit"));
            merges.push(span_sum("pipeline/shard_merge"));
        }
        let fit = stats(&fits);
        let merge = stats(&merges);
        fit_medians.push(fit.median);
        merge_medians.push(merge.median);
        println!(
            "fit shards={shards}: total median {:.4}s, summary build {:.4}s, merge {:.4}s",
            fit.median,
            stats(&builds).median,
            merge.median
        );
        let comma = if si + 1 < shard_counts.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"shards\": {shards}, \"workers\": {shards}, \
             \"fit\": {}, \"summary_build\": {}, \"summary_merge\": {}}}{comma}",
            json_stats(fit),
            json_stats(stats(&builds)),
            json_stats(merge)
        );
    }
    let _ = writeln!(out, "  ],");
    let merge_overhead = merge_medians[shard_counts.len() - 1] / fit_medians[0];
    let shard_speedup = fit_medians[0] / fit_medians[shard_counts.len() - 1];
    let _ = writeln!(out, "  \"shard_merge_overhead_frac\": {merge_overhead:.4},");
    let _ = writeln!(out, "  \"shard_speedup_4_vs_1\": {shard_speedup:.3},");

    // Distributed out-of-core fit: the same census rows as 4 CSV part
    // files on disk, `fit_shard` per part through a counting RowSource
    // and one `merge_shards` — the coordinator path minus the process
    // spawns. The row-buffer census proves the out-of-core claim: no
    // ingested block ever exceeds the configured block size, so peak
    // ingestion memory is bounded by `block_rows × dims × 4` bytes per
    // shard worker regardless of shard row count.
    let distfit_shards = 4usize;
    let block_rows = 4096usize;
    let dir = std::env::temp_dir().join(format!("dpcopula-bench-distfit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create distfit scratch dir");
    let specs = dpcopula::shard::shard_specs(n, distfit_shards);
    let part_paths: Vec<_> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let part_cols: Vec<Vec<u32>> = data
                .columns()
                .iter()
                .map(|c| c[spec.start..spec.end].to_vec())
                .collect();
            let part = datagen::Dataset::new(data.attributes().to_vec(), part_cols);
            let path = dir.join(format!("part{i}.csv"));
            datagen::io::save_csv(&part, &path).expect("write shard csv");
            path
        })
        .collect();

    let mut shard_fit_totals = Vec::with_capacity(samples);
    let mut merge_times = Vec::with_capacity(samples);
    let mut peak_block_rows = 0usize;
    let mut census_blocks = 0u64;
    for s in 0..samples {
        let mut artifacts = Vec::with_capacity(distfit_shards);
        let t0 = Stopwatch::start();
        for (i, path) in part_paths.iter().enumerate() {
            let mut source = BlockCensus::new(
                datagen::CsvFileSource::open_with_block_rows(path, block_rows)
                    .expect("open shard csv"),
            );
            let artifact = dpcopula::fit_shard(
                &mut source,
                &config,
                i,
                distfit_shards,
                n,
                0xfee1 + s as u64,
                &EngineOptions::with_workers(1),
                &MetricsSink::off(),
            )
            .expect("shard fit succeeds");
            peak_block_rows = peak_block_rows.max(source.peak_block_rows);
            census_blocks += source.blocks;
            artifacts.push((format!("part{i}.dpcs"), artifact));
        }
        shard_fit_totals.push(t0.elapsed().as_secs_f64());
        let t1 = Stopwatch::start();
        let merged = dpcopula::merge_shards(&artifacts, distfit_shards, &MetricsSink::off())
            .expect("merge succeeds");
        merge_times.push(t1.elapsed().as_secs_f64());
        assert_eq!(merged.dims(), m);
    }
    std::fs::remove_dir_all(&dir).expect("remove distfit scratch dir");
    let peak_block_bytes = peak_block_rows * m * std::mem::size_of::<u32>();
    let distfit_fit = stats(&shard_fit_totals);
    let distfit_merge = stats(&merge_times);
    println!(
        "distfit shards={distfit_shards}: fit-shard total median {:.4}s, merge median {:.4}s, \
         peak block {peak_block_rows} rows ({peak_block_bytes} B) over {census_blocks} blocks",
        distfit_fit.median, distfit_merge.median
    );
    let _ = writeln!(
        out,
        "  \"distfit\": {{\"shards\": {distfit_shards}, \"block_rows\": {block_rows}, \
         \"fit_shard_total\": {}, \"merge\": {}, \"peak_block_rows\": {peak_block_rows}, \
         \"peak_block_bytes\": {peak_block_bytes}, \"blocks\": {census_blocks}}},",
        json_stats(distfit_fit),
        json_stats(distfit_merge)
    );
    if peak_block_rows > block_rows {
        eprintln!(
            "REGRESSION: out-of-core ingestion produced a {peak_block_rows}-row block \
             past the {block_rows}-row bound — the fit is no longer streaming"
        );
        std::process::exit(1);
    }

    // Correlation-stage speedup of the engine over the legacy serial
    // estimator, at each worker count (medians).
    let _ = writeln!(out, "  \"correlation_speedup_vs_legacy\": {{");
    for (wi, &workers) in worker_counts.iter().enumerate() {
        let comma = if wi + 1 < worker_counts.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    \"{workers}\": {:.3}{comma}",
            legacy_stats.median / correlation_medians[wi]
        );
    }
    let _ = writeln!(out, "  }}");
    out.push_str("}\n");

    let path = "BENCH_pipeline.json";
    if quick {
        println!("quick run: leaving {path} untouched");
    } else {
        std::fs::write(path, &out).expect("write BENCH_pipeline.json");
        println!("wrote {path}");
    }
    println!(
        "correlation speedup vs legacy at 4 workers: {:.2}x",
        legacy_stats.median / correlation_medians[worker_counts.len() - 1]
    );

    // Gates. Merge overhead: combining per-shard summaries (histogram
    // sums, cross-shard concordance, ledger max) must cost a small
    // fraction of the fit it parallelises.
    println!(
        "shard merge overhead: {:.1}% of the single-shard fit (ceiling {:.0}%)",
        merge_overhead * 100.0,
        MAX_MERGE_OVERHEAD * 100.0
    );
    if merge_overhead >= MAX_MERGE_OVERHEAD {
        eprintln!(
            "REGRESSION: merging 4 shard summaries costs {:.1}% of the \
             single-shard fit (ceiling {:.0}%)",
            merge_overhead * 100.0,
            MAX_MERGE_OVERHEAD * 100.0
        );
        std::process::exit(1);
    }
    // Speedup floor only means something with real cores to spread
    // shards over; single-core CI boxes skip it.
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!("4-shard fit speedup over serial fit: {shard_speedup:.2}x ({cores} cores)");
    if cores >= 4 && shard_speedup < MIN_SHARD_SPEEDUP {
        eprintln!(
            "REGRESSION: 4-shard fit is only {shard_speedup:.2}x the serial \
             single-shard fit (floor {MIN_SHARD_SPEEDUP}x on a {cores}-core host)"
        );
        std::process::exit(1);
    }
}
