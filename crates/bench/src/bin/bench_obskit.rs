//! Emits `BENCH_obskit.json` and gates the observability layer's cost:
//! with metrics off (`MetricsSink::off()`), the instrumentation must
//! cost less than `OBSKIT_GATE_PCT` percent (default 2%) of the staged
//! pipeline's wall clock.
//!
//! The disabled path cannot be measured by differencing two wall-clock
//! runs — at millisecond pipeline scale, scheduler noise dwarfs a
//! branch-per-call budget — so the gate is computed as a deterministic
//! upper bound instead:
//!
//! 1. **micro** — nanoseconds per *disabled* `sink.add` call in a
//!    tight loop (the one-branch fast path every instrumented site
//!    pays with metrics off), plus the enabled-path cost for scale;
//! 2. **call census** — one pipeline run against a counting
//!    [`Recorder`] learns exactly how many record calls (counter,
//!    gauge, histogram, span) one run makes;
//! 3. **bound** — `calls x disabled ns/op` versus the min-of-samples
//!    pipeline wall clock with the sink off. The bound is pessimistic:
//!    it charges every disabled call the full measured branch cost.
//!
//! Exits non-zero when the bound exceeds the gate. The enabled-path
//! overhead is also measured (interleaved min-of-samples) and reported
//! in the JSON, but only informationally — full recording is allowed
//! to cost more than the no-op branch.
//!
//! `QUICK=1` shrinks the input and sample count for smoke runs and
//! leaves the committed `BENCH_obskit.json` untouched.

use datagen::census::us_census;
use dpcopula::{DpCopulaConfig, EngineOptions, SynthesisRequest};
use dpmech::Epsilon;
use obskit::registry::{Recorder, Unit};
use obskit::{MetricsRegistry, MetricsSink, Stopwatch};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts record calls without storing anything — the call census the
/// disabled-cost bound multiplies by the per-call branch cost.
#[derive(Debug, Default)]
struct CountingRecorder {
    calls: AtomicU64,
}

impl Recorder for CountingRecorder {
    fn enabled(&self) -> bool {
        true
    }
    fn add(&self, _: &str, _: &[(&str, &str)], _: Unit, _: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
    fn gauge_set(&self, _: &str, _: &[(&str, &str)], _: Unit, _: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
    fn observe(&self, _: &str, _: &[(&str, &str)], _: Unit, _: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
}

fn ns_per_add(sink: &MetricsSink, iters: u64) -> f64 {
    let t0 = Stopwatch::start();
    for i in 0..iters {
        black_box(sink).add(black_box("bench_noop_total"), Unit::Count, black_box(i & 1));
    }
    t0.elapsed_ns() as f64 / iters as f64
}

fn main() {
    let quick = std::env::var("QUICK").map(|v| v == "1").unwrap_or(false);
    let gate_pct: f64 = std::env::var("OBSKIT_GATE_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    // The pipeline at these sizes runs in milliseconds, so min-of-many
    // is cheap — and a 2% gate on a millisecond-scale measurement needs
    // many samples for the minima to converge.
    let n = if quick { 10_000 } else { 50_000 };
    let samples = if quick { 21 } else { 41 };

    // Micro: cost of one record call, disabled vs enabled.
    let iters = 20_000_000u64;
    let off_ns = ns_per_add(&MetricsSink::off(), iters);
    let registry = Arc::new(MetricsRegistry::new());
    let on_ns = ns_per_add(&MetricsSink::to_registry(registry.clone()), iters / 10);
    println!("micro: disabled add {off_ns:.3} ns/op, enabled add {on_ns:.3} ns/op");

    // Pipeline: disabled-sink runs vs enabled-sink runs, interleaved.
    let data = us_census(n, 0x0b51);
    let config = DpCopulaConfig::kendall(Epsilon::new(1.0).expect("positive epsilon"));
    let domains = data.domains();
    let opts = EngineOptions::with_workers(2);

    // Call census: exactly how many record calls one run makes.
    let counter = Arc::new(CountingRecorder::default());
    let census_sink = MetricsSink::to_recorder(counter.clone());
    let _ = SynthesisRequest::from_config(data.columns(), &domains, config)
        .engine(opts)
        .seed(0xca11)
        .metrics(census_sink)
        .run()
        .expect("census synthesis succeeds");
    let record_calls = counter.calls.load(Ordering::Relaxed);
    println!("call census: {record_calls} record calls per pipeline run");
    let run = |sink: MetricsSink, seed: u64| -> f64 {
        let t0 = Stopwatch::start();
        let (synthesis, _) = SynthesisRequest::from_config(data.columns(), &domains, config)
            .engine(opts)
            .seed(seed)
            .metrics(sink)
            .run()
            .expect("census synthesis succeeds");
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(synthesis.columns.len(), domains.len());
        dt
    };
    // Warm-up run so page faults and lazy init hit neither arm.
    let _ = run(MetricsSink::off(), 0xdead);
    let mut off_times = Vec::with_capacity(samples);
    let mut on_times = Vec::with_capacity(samples);
    for s in 0..samples as u64 {
        off_times.push(run(MetricsSink::off(), 0xf00d + s));
        on_times.push(run(MetricsSink::to_registry(registry.clone()), 0xf00d + s));
    }
    let min = |v: &[f64]| v.iter().cloned().fold(f64::INFINITY, f64::min);
    let (off_s, on_s) = (min(&off_times), min(&on_times));
    let enabled_overhead_pct = ((on_s / off_s) - 1.0).max(0.0) * 100.0;
    // The gate: a pessimistic bound on what the disabled branches cost
    // one run, as a share of that run's wall clock.
    let noop_bound_s = record_calls as f64 * off_ns * 1e-9;
    let noop_overhead_pct = noop_bound_s / off_s * 100.0;
    println!(
        "pipeline: disabled sink min {off_s:.4}s, enabled sink min {on_s:.4}s \
         (recording overhead {enabled_overhead_pct:.2}%)"
    );
    println!(
        "no-op bound: {record_calls} calls x {off_ns:.3} ns = {:.1} us, \
         {noop_overhead_pct:.3}% of the pipeline (gate {gate_pct}%)",
        noop_bound_s * 1e6
    );

    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"obskit_overhead\",");
    let _ = writeln!(
        out,
        "  \"config\": {{\"records\": {n}, \"samples\": {samples}, \"quick\": {quick}, \
         \"gate_pct\": {gate_pct}, \"host_cores\": {}}},",
        std::thread::available_parallelism().map_or(1, |c| c.get())
    );
    let _ = writeln!(out, "  \"disabled_add_ns_per_op\": {off_ns:.4},");
    let _ = writeln!(out, "  \"enabled_add_ns_per_op\": {on_ns:.4},");
    let _ = writeln!(out, "  \"record_calls_per_run\": {record_calls},");
    let _ = writeln!(out, "  \"pipeline_disabled_min_s\": {off_s:.6},");
    let _ = writeln!(out, "  \"pipeline_enabled_min_s\": {on_s:.6},");
    let _ = writeln!(
        out,
        "  \"enabled_recording_overhead_pct\": {enabled_overhead_pct:.3},"
    );
    let _ = writeln!(
        out,
        "  \"noop_overhead_bound_pct\": {noop_overhead_pct:.4},"
    );
    let _ = writeln!(out, "  \"gate_passed\": {}", noop_overhead_pct < gate_pct);
    out.push_str("}\n");
    let path = "BENCH_obskit.json";
    if quick {
        println!("quick run: leaving {path} untouched");
    } else {
        std::fs::write(path, &out).expect("write BENCH_obskit.json");
        println!("wrote {path}");
    }

    if noop_overhead_pct >= gate_pct {
        eprintln!(
            "obskit no-op overhead gate FAILED: {noop_overhead_pct:.3}% >= {gate_pct}% \
             (override with OBSKIT_GATE_PCT)"
        );
        std::process::exit(1);
    }
}
