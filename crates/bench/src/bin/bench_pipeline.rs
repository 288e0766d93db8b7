//! Emits `BENCH_pipeline.json`: machine-readable per-stage wall-clock
//! statistics (min/median/p95 seconds) of the staged synthesis engine at
//! worker counts {1, 2, 4} on fig11-sized census data, plus the legacy
//! serial correlation estimator (`dp_correlation_matrix`, single-threaded)
//! as the reference the correlation-stage speedup is measured against,
//! the sampling stage timed under both sampling profiles (`reference` vs
//! the ziggurat/table `fast` hot path), the budget-plan and correlation
//! stages and the whole fit of an 8-attribute sharded fit
//! (`correlation_wide`, no gate), and CSV ingest of that fit's rows
//! (`ingest`, no gate).
//!
//! `QUICK=1` shrinks the input and sample count for smoke runs.

use datagen::census::{brazil_census, us_census};
use datagen::RowSource;
use dpcopula::kendall::{dp_correlation_matrix, SamplingStrategy};
use dpcopula::shard::kendall_sample_target;
use dpcopula::{DpCopulaConfig, EngineOptions, SamplingProfile, SynthesisRequest};
use dpmech::Epsilon;
use obskit::{MetricsRegistry, MetricsSink, Stopwatch};
use rngkit::rngs::StdRng;
use rngkit::SeedableRng;
use std::fmt::Write as _;
use std::sync::Arc;

/// Ceiling on summary-merge time as a fraction of the single-shard fit:
/// sharding pays its fold out of the fit it accelerates, so the merge
/// must stay a small tax.
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

    // The fit at the shape of dpbench's `fit-sharded`: a 4-shard fit of
    // the 8-attribute Brazil census, whose categorical columns put many
    // τ-sample records in each (x, y) value cell. `budget_plan` holds the
    // exact counts over every row, `correlation` the Kendall pairs, and
    // `fit` is the wall clock of the whole call.
    let wide_n = if quick { 40_000 } else { 400_000 };
    let wide_samples = if quick { 3 } else { 61 };
    let wide = brazil_census(wide_n, 0xb2a2);
    let wide_m = wide.domains().len();
    let wide_shards = 4usize;
    let tau_sample = kendall_sample_target(wide_m, wide_n, SamplingStrategy::Auto, eps2);
    let _ = writeln!(
        out,
        "  \"correlation_wide\": {{\"records\": {wide_n}, \"attributes\": {wide_m}, \
         \"shards\": {wide_shards}, \"tau_sample\": {tau_sample}, \
         \"samples\": {wide_samples}, \"workers\": ["
    );
    let wide_workers = [1usize, 2];
    for (wi, &workers) in wide_workers.iter().enumerate() {
        let mut budget_plan = Vec::with_capacity(wide_samples);
        let mut correlation = Vec::with_capacity(wide_samples);
        let mut fits = Vec::with_capacity(wide_samples);
        for s in 0..wide_samples {
            let mut opts = EngineOptions::with_workers(workers);
            opts.shards = wide_shards;
            let t0 = Stopwatch::start();
            let (_, report) =
                SynthesisRequest::from_config(wide.columns(), &wide.domains(), config)
                    .engine(opts)
                    .seed(0xc0de + s as u64)
                    .fit()
                    .expect("census fit succeeds");
            fits.push(t0.elapsed().as_secs_f64());
            budget_plan.push(report.timings.budget_plan.as_secs_f64());
            correlation.push(report.timings.correlation.as_secs_f64());
        }
        let (plan, corr, fit) = (stats(&budget_plan), stats(&correlation), stats(&fits));
        println!(
            "wide fit ({wide_n} x {wide_m}, {wide_shards} shards, tau sample {tau_sample}) \
             workers={workers}: budget_plan median {:.4}s, correlation median {:.4}s, \
             fit median {:.4}s",
            plan.median, corr.median, fit.median
        );
        let comma = if wi + 1 < wide_workers.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"workers\": {workers}, \"budget_plan\": {}, \"correlation\": {}, \
             \"fit\": {}}}{comma}",
            json_stats(plan),
            json_stats(corr),
            json_stats(fit)
        );
    }
    let _ = writeln!(out, "  ]}},");

    // Ingest: the same census as a CSV, read back eagerly from memory
    // (`read_csv`, as the daemon reads a fit body) and from a file
    // (`load_csv`, as `fit` does), its CRLF twin from memory, and the
    // file drained through `CsvFileSource` in default-size blocks (the
    // spooled and `fit-shard` path). No gate.
    let mut csv = Vec::new();
    datagen::io::write_csv(&wide, &mut csv).expect("encode census csv");
    let crlf: Vec<u8> = csv
        .split_inclusive(|&b| b == b'\n')
        .flat_map(|line| [&line[..line.len() - 1], b"\r\n"].concat())
        .collect();
    let ingest_dir =
        std::env::temp_dir().join(format!("dpcopula-bench-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&ingest_dir).expect("create ingest scratch dir");
    let csv_path = ingest_dir.join("census.csv");
    std::fs::write(&csv_path, &csv).expect("write census csv");
    let drain = || {
        let mut source = datagen::CsvFileSource::open(&csv_path).expect("open census csv");
        let mut rows = 0;
        while let Some(block) = source.next_block().expect("census csv reads") {
            rows += block.rows();
        }
        rows
    };
    let readers: [(&str, usize, &dyn Fn() -> usize); 4] = [
        ("read_csv", csv.len(), &|| {
            datagen::io::read_csv(&csv[..])
                .expect("census csv reads")
                .len()
        }),
        ("load_csv", csv.len(), &|| {
            datagen::io::load_csv(&csv_path)
                .expect("census csv reads")
                .len()
        }),
        ("read_csv_crlf", crlf.len(), &|| {
            datagen::io::read_csv(&crlf[..])
                .expect("census csv reads")
                .len()
        }),
        ("csv_source_drain", csv.len(), &drain),
    ];
    let ingest_samples = if quick { 3 } else { 21 };
    let _ = writeln!(
        out,
        "  \"ingest\": {{\"records\": {wide_n}, \"attributes\": {wide_m}, \
         \"bytes\": {}, \"samples\": {ingest_samples},",
        csv.len()
    );
    for (ri, (name, bytes, read)) in readers.iter().enumerate() {
        let mut times = Vec::with_capacity(ingest_samples);
        for _ in 0..ingest_samples {
            let t0 = Stopwatch::start();
            assert_eq!(std::hint::black_box(read()), wide_n, "{name} row count");
            times.push(t0.elapsed().as_secs_f64());
        }
        let st = stats(&times);
        let mb_per_s = *bytes as f64 / st.median / 1e6;
        println!(
            "ingest {name}: min {:.4}s, median {:.4}s ({mb_per_s:.0} MB/s)",
            st.min, st.median
        );
        let comma = if ri + 1 < readers.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    \"{name}\": {{\"min_s\": {:.6}, \"median_s\": {:.6}, \"p95_s\": {:.6}, \
             \"mb_per_s\": {mb_per_s:.1}}}{comma}",
            st.min, st.median, st.p95
        );
    }
    let _ = writeln!(out, "  }},");
    std::fs::remove_dir_all(&ingest_dir).expect("remove ingest scratch dir");

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

    // Gates. Merge overhead: folding per-shard summaries (histogram
    // sums, budget accountant, ledger max) must cost a small fraction of
    // the fit it parallelises. The Kendall pass over the pooled τ sample
    // counts as summary building, not merge.
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
