//! Emits `BENCH_serving.json`: fit-once/sample-many serving costs — how
//! long a fit takes versus how cheaply its saved artifact is encoded,
//! loaded (with full validation) and served, with sampling throughput at
//! worker counts {1, 2, 4} for **both sampling profiles**. The point of
//! the artifact store in numbers: the budgeted fit happens once, while
//! each served window costs milliseconds and no epsilon.
//!
//! The `windows` rows time one small window per profile at the start of
//! a chunk and halfway into one, where the rows the chunk draws before
//! the window (the burn) dominate: the per-request cost of a 256-row
//! window at a random offset. They are recorded, not gated.
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
/// benchmarked worker counts). Both profiles read the same z-tables, the
/// reference one behind its exactness guard, so fast's lead is its
/// ziggurat normals, exact burn and blocked Cholesky apply: 1.8–2.4× in
/// quick runs and 2.5–3.5× in full runs on a 2-vCPU host. Routing fast
/// through the reference kernel reads at most 1×.
const MIN_FAST_SPEEDUP: f64 = 1.5;

/// Rows per timed small window.
const WINDOW_ROWS: usize = 256;

/// In-chunk offsets of the timed small windows: no burn, and the mean
/// burn of a window at a uniformly random offset (half a chunk).
const WINDOW_IN_CHUNK: [usize; 2] = [0, 4_096];

/// Worker count of the timed small windows.
const WINDOW_WORKERS: usize = 2;

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
    let window_samples = if quick { 11 } else { 101 };
    let host_cores = std::thread::available_parallelism().map_or(1, |c| c.get());
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
         \"samples\": {samples}, \"quick\": {quick}, \"host_cores\": {host_cores}}},",
        model.dims(),
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

    // Small windows, starting one chunk further along per sample so no
    // two share a chunk.
    let chunk = model.artifact().provenance.sample_chunk as usize;
    let _ = writeln!(out, "  \"windows\": [");
    for (pi, &profile) in profiles.iter().enumerate() {
        for (oi, &in_chunk) in WINDOW_IN_CHUNK.iter().enumerate() {
            let mut times = Vec::with_capacity(window_samples);
            for s in 0..window_samples {
                let offset = (s + 1) * chunk + in_chunk;
                let t = Stopwatch::start();
                let cols = model
                    .try_sample_range_profiled(profile, offset, WINDOW_ROWS, WINDOW_WORKERS)
                    .expect("in-range window");
                times.push(t.elapsed().as_secs_f64());
                assert_eq!(cols[0].len(), WINDOW_ROWS);
            }
            let med_us = median(&mut times) * 1e6;
            println!(
                "window profile={} rows={WINDOW_ROWS} in_chunk_offset={in_chunk}: \
                 median {med_us:.1}us",
                profile.name()
            );
            let comma = if pi + 1 < profiles.len() || oi + 1 < WINDOW_IN_CHUNK.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    {{\"profile\": \"{}\", \"rows\": {WINDOW_ROWS}, \"in_chunk_offset\": {in_chunk}, \
                 \"workers\": {WINDOW_WORKERS}, \"median_us\": {med_us:.1}, \"host_cores\": {host_cores}}}{comma}",
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
