//! The workspace metric taxonomy: every metric name, label key, and
//! label value the instrumented crates emit, plus
//! [`register_taxonomy`] to pre-create the full series set at zero so a
//! snapshot always carries every name even when a code path didn't run
//! (what the CI metric-name manifest diffs against).
//!
//! Naming rules (documented in DESIGN.md §10): counters end in
//! `_total`, nanosecond series end in `_ns`, byte counters in
//! `_bytes_total`, nano-ε counters in `_neps`; label keys are `stage`,
//! `mech`, `section`, `span`.

use crate::registry::{MetricsRegistry, Unit};
use crate::span::SPAN_NS;

/// The five pipeline stages, in execution order — the `stage` label
/// values used by engine, parkit, and dpmech series.
pub const STAGES: [&str; 5] = [
    "budget_plan",
    "margins",
    "correlation",
    "pd_repair",
    "sampling",
];

/// `stage` label value for model-serving work outside the fit pipeline.
pub const STAGE_SERVE: &str = "serve";

/// Completed pipeline runs (fit or full synthesis).
pub const PIPELINE_RUNS_TOTAL: &str = "pipeline_runs_total";
/// Synthetic rows produced by pipeline sampling.
pub const PIPELINE_ROWS_OUT_TOTAL: &str = "pipeline_rows_out_total";
/// Worker threads the engine was configured with (environment fact).
pub const ENGINE_WORKERS: &str = "engine_workers";
/// Shards the fit partitioned its input rows into (configuration fact;
/// `1` is the unsharded fit).
pub const ENGINE_SHARDS: &str = "engine_shards";
/// Privacy budget each fit shard's sub-ledger spent, in integer nano-ε,
/// by `shard` index. Shards hold disjoint rows, so the combined fit cost
/// is the per-label **max** of these, not their sum (parallel
/// composition).
pub const SHARD_EPS_SPENT_NEPS: &str = "shard_eps_spent_neps";

/// Logical tasks executed by a parkit fan-out, by `stage`.
pub const PARKIT_TASKS_TOTAL: &str = "parkit_tasks_total";
/// Per-task latency histogram, by `stage`.
pub const PARKIT_TASK_NS: &str = "parkit_task_ns";
/// Total nanoseconds workers spent executing tasks, by `stage`.
pub const PARKIT_WORKER_BUSY_NS: &str = "parkit_worker_busy_ns";
/// Total nanoseconds workers spent outside tasks (queue wait, spawn
/// and join overhead), by `stage`.
pub const PARKIT_WORKER_IDLE_NS: &str = "parkit_worker_idle_ns";

/// Budget ledger debits, by `stage`.
pub const BUDGET_SPENDS_TOTAL: &str = "budget_spends_total";
/// Privacy budget debited, in integer nano-ε, by `stage`.
pub const BUDGET_EPS_SPENT_NEPS: &str = "budget_eps_spent_neps";
/// Primitive noise draws, by `stage` and `mech`.
pub const NOISE_DRAWS_TOTAL: &str = "noise_draws_total";
/// The `mech` label values of [`NOISE_DRAWS_TOTAL`].
pub const MECHS: [&str; 2] = ["laplace", "exponential"];

/// Successful model artifact loads.
pub const MODELSTORE_LOADS_TOTAL: &str = "modelstore_loads_total";
/// Bytes of model artifacts decoded.
pub const MODELSTORE_LOAD_BYTES_TOTAL: &str = "modelstore_load_bytes_total";
/// Artifacts rejected at load (checksum, magic, or structural damage).
pub const MODELSTORE_CORRUPTION_REJECTS_TOTAL: &str = "modelstore_corruption_rejects_total";
/// Per-section decode latency, by `section`.
pub const MODELSTORE_SECTION_PARSE_NS: &str = "modelstore_section_parse_ns";
/// The `section` label values of [`MODELSTORE_SECTION_PARSE_NS`] —
/// the `.dpcm` sections in wire order.
pub const SECTIONS: [&str; 6] = ["SCHM", "MRGN", "CORR", "COPL", "BDGT", "PROV"];

/// Rows served from a fitted model via `try_sample_range_profiled`.
pub const SERVE_ROWS_TOTAL: &str = "serve_rows_total";
/// Row windows served from a fitted model.
pub const SERVE_WINDOWS_TOTAL: &str = "serve_windows_total";

/// HTTP requests handled by the serving daemon, by `endpoint` and
/// `status` (the response code as a string).
pub const SERVE_REQUESTS_TOTAL: &str = "serve_requests_total";
/// End-to-end request latency histogram of the serving daemon, by
/// `endpoint`: from the request's first byte to its response bytes
/// written (an idle keep-alive wait before it is not counted).
pub const SERVE_REQUEST_NS: &str = "serve_request_ns";
/// Decoded models currently resident in the registry's LRU cache.
pub const REGISTRY_MODELS_LOADED: &str = "registry_models_loaded";
/// Models evicted from the registry cache to respect its capacity.
pub const REGISTRY_CACHE_EVICTIONS_TOTAL: &str = "registry_cache_evictions_total";
/// Fit requests refused by per-tenant ε admission control, by `tenant`.
/// Sampling requests never appear here: serving rows from a fitted
/// model is ε-free post-processing and is never admission-controlled.
pub const BUDGET_REJECTIONS_TOTAL: &str = "budget_rejections_total";
/// The `endpoint` label values of [`SERVE_REQUESTS_TOTAL`] /
/// [`SERVE_REQUEST_NS`] — one per route of the serving daemon, plus
/// `other` for unroutable paths.
pub const SERVE_ENDPOINTS: [&str; 7] = [
    "healthz", "metrics", "models", "sample", "fit", "delete", "other",
];
/// The `status` label values of [`SERVE_REQUESTS_TOTAL`]: every
/// response code the daemon emits.
pub const SERVE_STATUSES: [&str; 10] = [
    "200", "400", "403", "404", "405", "408", "413", "429", "500", "503",
];
/// Work shed by overload admission control, by `route`: `connection`
/// (the accept loop refused to queue a connection past the
/// `--max-connections` pool bound) or a heavy route name (`sample`,
/// `fit` — a request refused at the per-route `--max-inflight` cap).
/// Every shed is answered `503` with `Retry-After` instead of queuing.
pub const SERVER_SHED_TOTAL: &str = "server_shed_total";
/// The `route` label values of [`SERVER_SHED_TOTAL`].
pub const SHED_ROUTES: [&str; 3] = ["connection", "sample", "fit"];
/// Requests cut off by a read deadline, by `phase`: `head` (request
/// line + headers stalled past the head deadline — the slowloris
/// defense) or `body` (a declared body stopped arriving). Both are
/// answered `408` and the connection is closed.
pub const SERVE_TIMEOUTS_TOTAL: &str = "serve_timeouts_total";
/// The `phase` label values of [`SERVE_TIMEOUTS_TOTAL`].
pub const TIMEOUT_PHASES: [&str; 2] = ["head", "body"];
/// Models removed via `DELETE /v1/models/{id}` (cache entry evicted,
/// artifact unlinked, id tombstoned until the removal is confirmed).
pub const REGISTRY_DELETES_TOTAL: &str = "registry_deletes_total";

/// Synthetic rows emitted, by sampling `profile` (pipeline and serving).
pub const SAMPLING_PROFILE_ROWS_TOTAL: &str = "sampling_profile_rows_total";
/// The `profile` label values of [`SAMPLING_PROFILE_ROWS_TOTAL`].
pub const SAMPLING_PROFILES: [&str; 2] = ["reference", "fast"];

/// Span paths the instrumented pipeline and serving layer produce.
/// `pipeline/shard_fit` and `pipeline/shard_merge` cut across the fit
/// stages: summary building (ingest, per-shard work and the Kendall pass
/// over the pooled τ sample) vs. the serial fold of the summaries into
/// one model, the sharded fit's two cost centres.
pub const SPAN_PATHS: [&str; 12] = [
    "pipeline",
    "pipeline/budget_plan",
    "pipeline/margins",
    "pipeline/correlation",
    "pipeline/pd_repair",
    "pipeline/sampling",
    "pipeline/shard_fit",
    "pipeline/shard_merge",
    "serve/load",
    "serve/decode",
    "serve/validate",
    "serve/window",
];

/// Pre-creates every series in the taxonomy at zero, so snapshots carry
/// the complete name set regardless of which code paths ran.
pub fn register_taxonomy(registry: &MetricsRegistry) {
    registry.ensure_counter(PIPELINE_RUNS_TOTAL, &[], Unit::Count);
    registry.ensure_counter(PIPELINE_ROWS_OUT_TOTAL, &[], Unit::Count);
    registry.ensure_gauge(ENGINE_WORKERS, &[], Unit::Info);
    registry.ensure_gauge(ENGINE_SHARDS, &[], Unit::Info);
    // Per-shard series are keyed by dynamic shard indices; pre-create
    // shard 0, which every fit (sharded or not) has.
    registry.ensure_counter(SHARD_EPS_SPENT_NEPS, &[("shard", "0")], Unit::NanoEps);

    for stage in STAGES.iter().chain([STAGE_SERVE].iter()) {
        let labels = [("stage", *stage)];
        registry.ensure_counter(PARKIT_TASKS_TOTAL, &labels, Unit::Count);
        registry.ensure_hist(PARKIT_TASK_NS, &labels, Unit::Nanos);
        registry.ensure_counter(PARKIT_WORKER_BUSY_NS, &labels, Unit::Nanos);
        registry.ensure_counter(PARKIT_WORKER_IDLE_NS, &labels, Unit::Nanos);
        registry.ensure_counter(BUDGET_SPENDS_TOTAL, &labels, Unit::Count);
        registry.ensure_counter(BUDGET_EPS_SPENT_NEPS, &labels, Unit::NanoEps);
        for mech in MECHS {
            registry.ensure_counter(
                NOISE_DRAWS_TOTAL,
                &[("stage", stage), ("mech", mech)],
                Unit::Count,
            );
        }
    }

    registry.ensure_counter(MODELSTORE_LOADS_TOTAL, &[], Unit::Count);
    registry.ensure_counter(MODELSTORE_LOAD_BYTES_TOTAL, &[], Unit::Bytes);
    registry.ensure_counter(MODELSTORE_CORRUPTION_REJECTS_TOTAL, &[], Unit::Count);
    for section in SECTIONS {
        registry.ensure_hist(
            MODELSTORE_SECTION_PARSE_NS,
            &[("section", section)],
            Unit::Nanos,
        );
    }

    registry.ensure_counter(SERVE_ROWS_TOTAL, &[], Unit::Count);
    registry.ensure_counter(SERVE_WINDOWS_TOTAL, &[], Unit::Count);

    for endpoint in SERVE_ENDPOINTS {
        registry.ensure_hist(SERVE_REQUEST_NS, &[("endpoint", endpoint)], Unit::Nanos);
        for status in SERVE_STATUSES {
            registry.ensure_counter(
                SERVE_REQUESTS_TOTAL,
                &[("endpoint", endpoint), ("status", status)],
                Unit::Count,
            );
        }
    }
    for route in SHED_ROUTES {
        registry.ensure_counter(SERVER_SHED_TOTAL, &[("route", route)], Unit::Count);
    }
    for phase in TIMEOUT_PHASES {
        registry.ensure_counter(SERVE_TIMEOUTS_TOTAL, &[("phase", phase)], Unit::Count);
    }
    registry.ensure_gauge(REGISTRY_MODELS_LOADED, &[], Unit::Count);
    registry.ensure_counter(REGISTRY_CACHE_EVICTIONS_TOTAL, &[], Unit::Count);
    registry.ensure_counter(REGISTRY_DELETES_TOTAL, &[], Unit::Count);
    // Tenant names are deployment config; pre-create the label the
    // daemon uses when no tenant file is configured.
    registry.ensure_counter(
        BUDGET_REJECTIONS_TOTAL,
        &[("tenant", "default")],
        Unit::Count,
    );
    for profile in SAMPLING_PROFILES {
        registry.ensure_counter(
            SAMPLING_PROFILE_ROWS_TOTAL,
            &[("profile", profile)],
            Unit::Count,
        );
    }

    for span in SPAN_PATHS {
        registry.ensure_hist(SPAN_NS, &[("span", span)], Unit::Nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_is_nonempty_and_idempotent() {
        let r = MetricsRegistry::new();
        register_taxonomy(&r);
        let first = r.snapshot();
        assert!(first.entries.len() > 40, "{}", first.entries.len());
        register_taxonomy(&r);
        assert_eq!(r.snapshot(), first);
    }

    #[test]
    fn taxonomy_carries_the_overload_and_lifecycle_series() {
        let r = MetricsRegistry::new();
        register_taxonomy(&r);
        let snap = r.snapshot();
        for route in SHED_ROUTES {
            let id = format!("{SERVER_SHED_TOTAL}{{route=\"{route}\"}}");
            assert!(snap.get(&id).is_some(), "missing {id}");
        }
        for phase in TIMEOUT_PHASES {
            let id = format!("{SERVE_TIMEOUTS_TOTAL}{{phase=\"{phase}\"}}");
            assert!(snap.get(&id).is_some(), "missing {id}");
        }
        assert!(snap.get(REGISTRY_DELETES_TOTAL).is_some());
        // The shed/timeout answer codes are part of the status set.
        for status in ["408", "503"] {
            assert!(SERVE_STATUSES.contains(&status), "missing status {status}");
            let id = format!("serve_requests_total{{endpoint=\"other\",status=\"{status}\"}}");
            assert!(snap.get(&id).is_some(), "missing {id}");
        }
        assert!(SERVE_ENDPOINTS.contains(&"delete"));
    }

    #[test]
    fn taxonomy_series_start_at_zero() {
        let r = MetricsRegistry::new();
        register_taxonomy(&r);
        for e in r.snapshot().entries {
            match e.value {
                crate::MetricValue::Counter(v) | crate::MetricValue::Gauge(v) => {
                    assert_eq!(v, 0, "{}", e.id)
                }
                crate::MetricValue::Hist(h) => assert_eq!(h.count, 0, "{}", e.id),
            }
        }
    }
}
