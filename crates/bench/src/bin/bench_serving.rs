//! Emits `BENCH_serving.json`: fit-once/sample-many serving costs — how
//! long a fit takes versus how cheaply its saved artifact is encoded,
//! loaded (with full validation) and served, with sampling throughput at
//! worker counts {1, 2, 4} for **both sampling profiles**. The point of
//! the artifact store in numbers: the budgeted fit happens once, while
//! each served window costs milliseconds and no epsilon.
//!
//! Doubles as the fast-profile regression gate: the run exits non-zero
//! when the `fast` profile's best sampling throughput drops below
//! [`MIN_FAST_SPEEDUP`]x the `reference` profile's — so a change that
//! quietly de-optimises the ziggurat/table/blocked-apply hot path fails
//! CI instead of shipping.
//!
//! `QUICK=1` shrinks the input and sample counts for smoke runs and
//! leaves the committed `BENCH_serving.json` untouched.

use datagen::census::us_census;
use dpcopula::{EngineOptions, FittedModel, SamplingProfile, SynthesisRequest};
use dpmech::Epsilon;
use obskit::Stopwatch;
use std::fmt::Write as _;

/// Regression gate: the fast profile must sample at least this many
/// times faster than the reference profile (best rows/s over the
/// benchmarked worker counts).
const MIN_FAST_SPEEDUP: f64 = 4.0;

fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[(samples.len() - 1) / 2]
}

fn main() {
    let quick = std::env::var("QUICK").map(|v| v == "1").unwrap_or(false);
    let n = if quick { 10_000 } else { 100_000 };
    let serve_rows = if quick { 20_000 } else { 200_000 };
    let samples = if quick { 3 } else { 7 };
    let worker_counts = [1usize, 2, 4];

    let data = us_census(n, 0xcafe);
    let domains = data.domains();

    // The one budgeted step: fit.
    let t0 = Stopwatch::start();
    let (model, _) = SynthesisRequest::new(
        data.columns(),
        &domains,
        Epsilon::new(1.0).expect("positive epsilon"),
    )
    .engine(EngineOptions::with_workers(4))
    .seed(0xfeed)
    .fit()
    .expect("census fit succeeds");
    let fit_s = t0.elapsed().as_secs_f64();
    println!(
        "fit: {fit_s:.4}s over {n} records x {} attributes",
        model.dims()
    );

    // Encode / decode+validate medians, in memory (no disk noise).
    let mut encode = Vec::with_capacity(samples);
    let mut bytes = Vec::new();
    for _ in 0..samples {
        let t = Stopwatch::start();
        bytes = model.artifact().encode();
        encode.push(t.elapsed().as_secs_f64());
    }
    let mut load = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Stopwatch::start();
        let artifact = modelstore::decode(&bytes).expect("artifact decodes");
        let served = FittedModel::from_artifact(artifact).expect("artifact validates");
        load.push(t.elapsed().as_secs_f64());
        assert_eq!(served.dims(), model.dims());
    }
    let encode_s = median(&mut encode);
    let load_s = median(&mut load);
    println!(
        "artifact: {} bytes, encode median {encode_s:.6}s, load+validate median {load_s:.6}s",
        bytes.len()
    );

    // Serving throughput per profile and worker count.
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"model_serving\",");
    let _ = writeln!(
        out,
        "  \"config\": {{\"records\": {n}, \"dims\": {}, \"serve_rows\": {serve_rows}, \
         \"samples\": {samples}, \"quick\": {quick}, \"host_cores\": {}}},",
        model.dims(),
        std::thread::available_parallelism().map_or(1, |c| c.get())
    );
    let _ = writeln!(out, "  \"fit_s\": {fit_s:.6},");
    let _ = writeln!(out, "  \"artifact_bytes\": {},", bytes.len());
    let _ = writeln!(out, "  \"encode_median_s\": {encode_s:.6},");
    let _ = writeln!(out, "  \"load_validate_median_s\": {load_s:.6},");
    let profiles = [SamplingProfile::Reference, SamplingProfile::Fast];
    let mut best_rows_per_s = [0.0f64; 2];
    let _ = writeln!(out, "  \"serving\": [");
    for (pi, &profile) in profiles.iter().enumerate() {
        for (wi, &workers) in worker_counts.iter().enumerate() {
            let mut times = Vec::with_capacity(samples);
            for s in 0..samples {
                // Rotate the window so runs do not share chunk boundaries.
                let offset = s * serve_rows;
                let t = Stopwatch::start();
                let cols = model
                    .try_sample_range_profiled(profile, offset, serve_rows, workers)
                    .expect("in-range window");
                times.push(t.elapsed().as_secs_f64());
                assert_eq!(cols[0].len(), serve_rows);
            }
            let med = median(&mut times);
            let rows_per_s = serve_rows as f64 / med;
            best_rows_per_s[pi] = best_rows_per_s[pi].max(rows_per_s);
            println!(
                "serve profile={} workers={workers}: median {med:.4}s ({rows_per_s:.0} rows/s)",
                profile.name()
            );
            let comma = if pi + 1 < profiles.len() || wi + 1 < worker_counts.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    {{\"profile\": \"{}\", \"workers\": {workers}, \"median_s\": {med:.6}, \
                 \"rows_per_s\": {rows_per_s:.1}}}{comma}",
                profile.name()
            );
        }
    }
    let _ = writeln!(out, "  ],");
    let speedup = best_rows_per_s[1] / best_rows_per_s[0];
    let _ = writeln!(out, "  \"fast_speedup\": {speedup:.3},");
    let _ = writeln!(out, "  \"fast_speedup_floor\": {MIN_FAST_SPEEDUP}");
    out.push_str("}\n");

    let path = "BENCH_serving.json";
    if quick {
        println!("quick run: leaving {path} untouched");
    } else {
        std::fs::write(path, &out).expect("write BENCH_serving.json");
        println!("wrote {path}");
    }

    println!(
        "fast profile speedup: {speedup:.2}x (best {:.0} vs {:.0} rows/s, floor {MIN_FAST_SPEEDUP}x)",
        best_rows_per_s[1], best_rows_per_s[0]
    );
    if speedup < MIN_FAST_SPEEDUP {
        eprintln!(
            "REGRESSION: fast profile is only {speedup:.2}x the reference sampling \
             throughput (floor {MIN_FAST_SPEEDUP}x)"
        );
        std::process::exit(1);
    }
}
