//! The observability contract of the staged engine: the deterministic
//! view of a run's metrics snapshot is bit-identical at any worker
//! count, the instrumentation emits no series outside the registered
//! taxonomy, and the per-stage timings the engine reports are exactly
//! the span histograms in the snapshot.

#[path = "../../crates/core/tests/pins/mod.rs"]
mod pins;

use dpcopula::{DpCopulaConfig, EngineOptions, SynthesisRequest};
use dpmech::Epsilon;
use obskit::{MetricsRegistry, MetricsSink, Snapshot};
use std::path::Path;
use std::sync::Arc;

const WORKER_COUNTS: [usize; 3] = [1, 2, 7];

fn run_with_workers(workers: usize) -> (Snapshot, dpcopula::engine::PipelineReport) {
    let data = datagen::census::us_census(2_000, 0xdec0);
    let domains = data.domains();
    let registry = Arc::new(MetricsRegistry::new());
    obskit::names::register_taxonomy(&registry);
    let config = DpCopulaConfig::kendall(Epsilon::new(1.0).expect("positive epsilon"));
    let (_, report) = SynthesisRequest::from_config(data.columns(), &domains, config)
        .engine(EngineOptions::with_workers(workers))
        .seed(0x5eed)
        .metrics(MetricsSink::to_registry(registry.clone()))
        .run()
        .expect("census synthesis succeeds");
    (registry.snapshot(), report)
}

#[test]
fn deterministic_snapshot_is_identical_across_worker_counts() {
    let (reference, _) = run_with_workers(WORKER_COUNTS[0]);
    let reference_json = reference.deterministic().to_json();
    for &workers in &WORKER_COUNTS[1..] {
        let (snap, _) = run_with_workers(workers);
        assert_eq!(
            snap.deterministic().to_json(),
            reference_json,
            "deterministic metrics diverged at {workers} workers"
        );
    }
}

#[test]
fn deterministic_snapshot_matches_its_pin() {
    // The other tests compare runs with each other and check names and
    // signs; this digest pins the values, so a run that also counted its
    // rows as served, or moved its tasks to another stage, fails here.
    let (snap, _) = run_with_workers(WORKER_COUNTS[0]);
    let [_, _, name] = pins::INTEGRATION_PINS;
    let pin_file = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../crates/core/tests/fixtures/sharded_pins.txt");
    let json = snap.deterministic().to_json().into_bytes();
    pins::assert_digests_pinned(&pin_file, &[(name.to_string(), json)]);
}

#[test]
fn run_emits_no_series_outside_the_taxonomy() {
    let taxonomy = MetricsRegistry::new();
    obskit::names::register_taxonomy(&taxonomy);
    let expected = taxonomy.snapshot().names();
    for &workers in &WORKER_COUNTS {
        let (snap, _) = run_with_workers(workers);
        assert_eq!(
            snap.names(),
            expected,
            "series set drifted from the registered taxonomy at {workers} workers"
        );
    }
}

#[test]
fn snapshot_covers_every_stage_with_live_values() {
    let (snap, _) = run_with_workers(2);
    // Each pipeline stage span fired exactly once.
    for stage in obskit::names::STAGES {
        let id = obskit::series_id(obskit::SPAN_NS, &[("span", &format!("pipeline/{stage}"))]);
        let hist = snap
            .get(&id)
            .and_then(|e| e.value.as_hist())
            .unwrap_or_else(|| panic!("missing span histogram {id}"));
        assert_eq!(hist.count, 1, "stage {stage} span should fire once");
    }
    // The budget ledger debited the two budgeted stages.
    for stage in ["margins", "correlation"] {
        let id = obskit::series_id(obskit::names::BUDGET_SPENDS_TOTAL, &[("stage", stage)]);
        let spends = snap.get(&id).and_then(|e| e.value.as_u64()).unwrap_or(0);
        assert!(spends > 0, "no budget debits recorded for {stage}");
        let id = obskit::series_id(
            obskit::names::NOISE_DRAWS_TOTAL,
            &[("stage", stage), ("mech", "laplace")],
        );
        let draws = snap.get(&id).and_then(|e| e.value.as_u64()).unwrap_or(0);
        assert!(draws > 0, "no laplace draws recorded for {stage}");
    }
    // Fan-out stages pushed tasks through parkit.
    for stage in ["margins", "correlation", "sampling"] {
        let id = obskit::series_id(obskit::names::PARKIT_TASKS_TOTAL, &[("stage", stage)]);
        let tasks = snap.get(&id).and_then(|e| e.value.as_u64()).unwrap_or(0);
        assert!(tasks > 0, "no parkit tasks recorded for {stage}");
    }
    // The run-level counters saw exactly this run.
    let runs = snap
        .get(obskit::names::PIPELINE_RUNS_TOTAL)
        .and_then(|e| e.value.as_u64());
    assert_eq!(runs, Some(1));
}

#[test]
fn reported_timings_equal_the_span_histograms() {
    let (snap, report) = run_with_workers(2);
    let from_snapshot = dpcopula::engine::StageTimings::from_snapshot(&snap);
    for (&(name, reported), (snap_name, derived)) in
        report.timings.stages().iter().zip(from_snapshot.stages())
    {
        assert_eq!(name, snap_name);
        assert_eq!(
            reported, derived,
            "stage {name}: report says {reported:?}, snapshot says {derived:?}"
        );
    }
}
