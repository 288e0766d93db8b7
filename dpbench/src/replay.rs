//! The layer replay of a `--trace 1` run: the traced request stream is
//! run again, in-process and in order, through the public function of
//! each layer the daemon calls for it, with one span per call. Per-layer
//! metrics come from those spans, from the daemon's `/metrics` counters
//! scraped around the traced phase, and from two standalone probes of
//! the `modelstore` layer.

use crate::child::{CACHE_CAP, DEFAULT_EPSILON, SAMPLE_WORKERS};
use crate::client::Conn;
use crate::inputs::{self, EPSILON};
use crate::run::{encode_window, DaemonCtx, Kind, Metric, Op, Workload};
use crate::stats::percentile_of;
use crate::trace::Tracer;
use dpcopula::{FittedModel, SamplingProfile};
use dpcopula_serve::http::{read_request, ReadLimits, Request, Response};
use dpcopula_serve::json::{quote, Json};
use dpcopula_serve::{BudgetGate, ModelRegistry, ServeConfig, DEFAULT_TENANT};
use dpmech::Epsilon;
use modelstore::crc32::fnv1a64;
use obskit::{MetricsRegistry, MetricsSink, Stopwatch};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

/// Saves the torn-read probe makes while another thread reads.
const TORN_SAVES: usize = 200;
/// Decodes timed by the `modelstore.decode_us` probe.
const DECODE_PROBES: usize = 50;

/// Wall-clock seconds the replay may take for a run of `run_seconds`.
pub fn budget_s(run_seconds: f64) -> f64 {
    (run_seconds / 4.0).clamp(0.5, 3.0)
}

/// Span name, metric name, unit and nanoseconds per unit of every layer
/// the replay times. Values are the p50, over replayed requests, of the
/// layer's time in one request.
pub const TIMED_LAYERS: [(&str, &str, &str, f64); 14] = [
    ("serve.http.read", "serve.http.read_us", "us", 1e3),
    ("serve.json.parse", "serve.json.parse_us", "us", 1e3),
    ("serve.registry.get", "serve.registry.get_us", "us", 1e3),
    ("core.sample", "core.sample_us", "us", 1e3),
    ("datagen.encode", "datagen.encode_us", "us", 1e3),
    ("serve.http.write", "serve.http.write_us", "us", 1e3),
    ("datagen.read_csv", "datagen.read_csv_us", "us", 1e3),
    ("serve.budget.admit", "serve.budget.admit_us", "us", 1e3),
    ("core.fit", "core.fit_ms", "ms", 1e6),
    ("modelstore.save", "modelstore.save_us", "us", 1e3),
    (
        "serve.registry.insert",
        "serve.registry.insert_us",
        "us",
        1e3,
    ),
    ("core.fit_shard", "core.fit_shard_ms", "ms", 1e6),
    ("core.merge_shards", "core.merge_shards_ms", "ms", 1e6),
    ("modelstore.decode", "modelstore.decode_us", "us", 1e3),
];

/// Series of the daemon's Prometheus exposition: name, labels, value.
pub struct Scrape(Vec<(String, String, f64)>);

impl Scrape {
    pub fn fetch(addr: SocketAddr) -> Result<Self, String> {
        let reply = Conn::new(addr).get("/metrics");
        if !reply.ok() {
            return Err(format!("GET /metrics answered {}", reply.status));
        }
        Ok(Self::parse(&String::from_utf8_lossy(&reply.body)))
    }

    fn parse(text: &str) -> Self {
        let series = text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                let (series, value) = l.rsplit_once(' ')?;
                let (name, labels) = match series.split_once('{') {
                    Some((name, labels)) => (name, labels.trim_end_matches('}')),
                    None => (series, ""),
                };
                Some((name.to_string(), labels.to_string(), value.parse().ok()?))
            })
            .collect();
        Self(series)
    }

    fn sum(&self, name: &str, keep: &dyn Fn(&str) -> bool) -> f64 {
        self.0
            .iter()
            .filter(|(n, labels, _)| n == name && keep(labels))
            .map(|(_, _, v)| v)
            .sum()
    }
}

fn delta(before: &Scrape, after: &Scrape, name: &str, keep: &dyn Fn(&str) -> bool) -> f64 {
    after.sum(name, keep) - before.sum(name, keep)
}

/// The daemon's request path, rebuilt from its public parts: a registry
/// and a budget gate like the daemon's, over a directory of its own.
pub struct DaemonReplay<'a> {
    ctx: &'a DaemonCtx,
    registry: ModelRegistry,
    gate: BudgetGate,
    sink: MetricsSink,
    max_body: usize,
    /// Per model: the version its artifact holds.
    installed: Vec<Option<usize>>,
}

impl<'a> DaemonReplay<'a> {
    pub fn new(ctx: &'a DaemonCtx, dir: &Path) -> Result<Self, String> {
        // The daemon records metrics; so does its replay.
        let sink = MetricsSink::to_registry(Arc::new(MetricsRegistry::new()));
        let gate =
            BudgetGate::single_tenant(Epsilon::new(DEFAULT_EPSILON).map_err(|e| e.to_string())?);
        Ok(Self {
            ctx,
            registry: ModelRegistry::new(dir, CACHE_CAP, sink.clone()),
            gate,
            sink,
            max_body: ServeConfig::default().max_body_bytes,
            installed: vec![None; ctx.models.len()],
        })
    }

    /// Makes `model` hold `version` the way the fit route leaves it
    /// (artifact saved, then cached), outside any span.
    fn install(&mut self, model: usize, version: usize) -> Result<(), String> {
        let id = &self.ctx.models[model];
        let fitted = self.ctx.input(version).model.clone();
        fitted
            .save(self.registry.path_for(id))
            .map_err(|e| e.to_string())?;
        self.registry.insert(id, Arc::new(fitted));
        self.installed[model] = Some(version);
        Ok(())
    }

    /// Replays one operation under a `replay.request` span; returns the
    /// span and the output's digest (window bytes or model checksum).
    pub fn replay(&mut self, tracer: &mut Tracer, op: &Op) -> Result<(usize, Option<u64>), String> {
        let ctx = self.ctx;
        let request = op.request;
        match op.kind {
            Kind::Sample => {
                if self.installed[op.model] != Some(op.version) {
                    self.install(op.model, op.version)?;
                }
                let bytes = ctx.sample_request(op.model, op.offset, op.rows);
                let root = tracer.open("replay.request", None, request);
                let digest = self.sample(tracer, root, request, &bytes);
                tracer.close(root);
                Ok((root, Some(digest?)))
            }
            Kind::FitJson => {
                let bytes = &ctx.fit_requests[op.version];
                let root = tracer.open("replay.request", None, request);
                let checksum = self.fit(tracer, root, request, bytes);
                tracer.close(root);
                self.installed[op.model] = Some(op.version);
                Ok((root, Some(checksum?)))
            }
            Kind::FitLib => Err("library fits replay without the daemon".into()),
        }
    }

    fn read(&self, bytes: &[u8]) -> Result<Request, String> {
        let mut stream = bytes;
        read_request(
            &mut stream,
            &mut std::io::sink(),
            ReadLimits::size_only(self.max_body),
        )
        .map_err(|e| e.to_string())
    }

    /// `POST /v1/sample`: read, parse, registry get, sample, encode,
    /// write.
    fn sample(
        &self,
        tr: &mut Tracer,
        root: usize,
        request: u64,
        bytes: &[u8],
    ) -> Result<u64, String> {
        let p = Some(root);
        let req = tr.time("serve.http.read", p, request, || self.read(bytes))?;
        let (id, offset, rows, profile) =
            tr.time("serve.json.parse", p, request, || sample_fields(&req.body))?;
        let model = tr
            .time("serve.registry.get", p, request, || self.registry.get(&id))
            .map_err(|e| e.to_string())?;
        let columns = tr
            .time("core.sample", p, request, || {
                model.try_sample_range_profiled(profile, offset, rows, SAMPLE_WORKERS)
            })
            .map_err(|e| e.to_string())?;
        let (csv, _) = tr.time("datagen.encode", p, request, || {
            encode_window(&model, columns)
        });
        let digest = fnv1a64(&csv);
        let mut wire = Vec::with_capacity(csv.len() + 256);
        tr.time("serve.http.write", p, request, || {
            Response::csv(csv).write_to(&mut wire, true)
        })
        .map_err(|e| e.to_string())?;
        Ok(digest)
    }

    /// `POST /v1/fit` with a JSON envelope: read, parse, CSV ingest,
    /// budget admit, fit, save, registry insert, write.
    fn fit(&self, tr: &mut Tracer, root: usize, request: u64, bytes: &[u8]) -> Result<u64, String> {
        let p = Some(root);
        let req = tr.time("serve.http.read", p, request, || self.read(bytes))?;
        let doc = tr.time("serve.json.parse", p, request, || {
            let text = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
            Json::parse(text).map_err(|e| e.to_string())
        })?;
        let field = |name: &str| doc.get(name).ok_or(format!("fit body lacks `{name}`"));
        let id = field("id")?.as_str().ok_or("`id` is not a string")?;
        let seed = field("seed")?.as_u64().ok_or("`seed` is not an integer")?;
        let csv = field("csv")?
            .as_str()
            .ok_or("`csv` is not a string")?
            .as_bytes();
        let dataset = tr
            .time("datagen.read_csv", p, request, || {
                datagen::io::read_csv(csv)
            })
            .map_err(|e| e.to_string())?;
        let epsilon = Epsilon::new(EPSILON).expect("valid epsilon");
        tr.time("serve.budget.admit", p, request, || {
            self.gate.admit(DEFAULT_TENANT, epsilon)
        })
        .map_err(|e| e.to_string())?;
        let model = tr
            .time("core.fit", p, request, || {
                inputs::daemon_fit(&dataset, seed, &self.sink)
            })
            .map_err(|e| e.to_string())?;
        let path = self.registry.path_for(id);
        tr.time("modelstore.save", p, request, || model.save(&path))
            .map_err(|e| e.to_string())?;
        let checksum = tr.time("serve.registry.insert", p, request, || {
            let checksum = model.artifact().checksum();
            self.registry.insert(id, Arc::new(model));
            checksum
        });
        let mut wire = Vec::new();
        tr.time("serve.http.write", p, request, || {
            let remaining = self
                .gate
                .remaining_neps(DEFAULT_TENANT)
                .map_or(0.0, |n| n as f64 / 1e9);
            let body = format!(
                "{{\"id\":{},\"checksum\":\"{checksum:016x}\",\"remaining_eps\":{remaining},\"rows\":{}}}\n",
                quote(id),
                dataset.len()
            );
            Response::json(200, body).write_to(&mut wire, true)
        })
        .map_err(|e| e.to_string())?;
        Ok(checksum)
    }
}

fn sample_fields(body: &[u8]) -> Result<(String, usize, usize, SamplingProfile), String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let id = doc
        .get("model")
        .and_then(Json::as_str)
        .ok_or("sample body lacks `model`")?;
    let rows = doc
        .get("rows")
        .and_then(Json::as_u64)
        .ok_or("sample body lacks `rows`")?;
    let offset = doc.get("offset").and_then(Json::as_u64).unwrap_or(0);
    let profile = match doc.get("profile").and_then(Json::as_str) {
        Some("fast") => SamplingProfile::Fast,
        _ => SamplingProfile::Reference,
    };
    Ok((id.to_string(), offset as usize, rows as usize, profile))
}

/// Timings of `modelstore::decode` over the served model's bytes — what
/// one cold registry get pays to decode.
pub fn decode_samples_ns(model: &FittedModel) -> Vec<f64> {
    let bytes = model.artifact().encode();
    (0..DECODE_PROBES)
        .map(|_| {
            let watch = Stopwatch::start();
            let decoded = modelstore::decode(std::hint::black_box(&bytes));
            std::hint::black_box(decoded.is_ok());
            watch.elapsed_ns() as f64
        })
        .collect()
}

/// Share of reads that find an undecodable artifact while another
/// thread keeps re-saving it with `FittedModel::save` — the torn reads a
/// daemon serves when a model is refit while it is being sampled.
pub fn torn_read_frac(model: &FittedModel, dir: &Path) -> Result<f64, String> {
    let a = model.artifact().clone();
    let mut b = a.clone();
    b.provenance.base_seed ^= 1;
    let path = dir.join("torn-read-probe.dpcm");
    a.save(&path).map_err(|e| e.to_string())?;
    let done = AtomicBool::new(false);
    let start = Barrier::new(2);
    let (reads, torn) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            start.wait();
            for i in 0..TORN_SAVES {
                let _ = if i % 2 == 0 {
                    b.save(&path)
                } else {
                    a.save(&path)
                };
            }
            done.store(true, Ordering::SeqCst);
        });
        start.wait();
        let (mut reads, mut torn) = (0u64, 0u64);
        while !done.load(Ordering::SeqCst) {
            reads += 1;
            let whole = std::fs::read(&path).is_ok_and(|bytes| modelstore::decode(&bytes).is_ok());
            torn += u64::from(!whole);
        }
        writer.join().expect("torn-read writer panicked");
        (reads, torn)
    });
    // Once the saves are over the file must decode: a probe whose
    // artifacts never decode would count every read as torn.
    let settled = std::fs::read(&path).map_err(|e| e.to_string())?;
    modelstore::decode(&settled).map_err(|e| format!("torn-read probe artifact: {e}"))?;
    let _ = std::fs::remove_file(&path);
    Ok(torn as f64 / reads.max(1) as f64)
}

/// What [`layer_metrics`] summarises.
pub struct LayerReport<'a> {
    pub workload: Workload,
    pub tracer: &'a Tracer,
    /// Root span of each replayed request, and whether it is the
    /// workload's measured operation.
    pub roots: Vec<(usize, bool)>,
    pub untraced: &'a [Op],
    pub traced: &'a [Op],
    /// `/metrics` before and after the traced phase (daemon workloads).
    pub counters: Option<(&'a Scrape, &'a Scrape)>,
    /// `provenance.sample_chunk` of the served model.
    pub chunk: u64,
    pub decode_ns: Vec<f64>,
    pub torn_read_frac: f64,
}

fn p50_ms(ops: &[Op], workload: Workload) -> f64 {
    let latencies: Vec<f64> = ops
        .iter()
        .filter(|o| o.ok() && o.primary(workload))
        .map(Op::ms)
        .collect();
    percentile_of(&latencies, 0.5)
}

/// Every per-layer metric, in `BENCHMARK.json` order. Layers a workload
/// does not run read 0.
pub fn layer_metrics(r: &LayerReport) -> Vec<Metric> {
    let per_root: Vec<(bool, Vec<(&str, u64)>)> = r
        .roots
        .iter()
        .map(|&(root, primary)| (primary, r.tracer.child_ns(root)))
        .collect();
    let mut out = Vec::new();
    for (span, name, unit, ns_per_unit) in TIMED_LAYERS {
        let values: Vec<f64> = if span == "modelstore.decode" {
            r.decode_ns.clone()
        } else {
            per_root
                .iter()
                .filter_map(|(_, layers)| layers.iter().find(|(n, _)| *n == span))
                .map(|&(_, ns)| ns as f64)
                .collect()
        };
        out.push(Metric {
            name,
            unit,
            value: percentile_of(&values, 0.5) / ns_per_unit,
            samples: values.len(),
        });
    }

    let (mut returned, mut drawn, mut bytes) = (0usize, 0usize, 0usize);
    let samples = r.traced.iter().filter(|o| o.ok() && o.kind == Kind::Sample);
    for op in samples {
        returned += op.rows;
        bytes += op.bytes;
        drawn += parkit::chunk_windows(op.offset as usize, op.rows, r.chunk as usize)
            .iter()
            .map(|w| w.skip + w.take)
            .sum::<usize>();
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut derived = vec![
        (
            "core.sample.useful_row_frac",
            "ratio",
            ratio(returned as f64, drawn as f64),
        ),
        (
            "datagen.encode.bytes_per_row",
            "B/row",
            ratio(bytes as f64, returned as f64),
        ),
    ];

    let counters = match &r.counters {
        Some((before, after)) => {
            let not_scrape = |l: &str| !l.contains("endpoint=\"metrics\"");
            let requests = "serve_requests_total";
            let ok = delta(before, after, requests, &|l| {
                not_scrape(l) && l.contains("status=\"2")
            });
            let all = delta(before, after, requests, &not_scrape);
            let samples = delta(before, after, requests, &|l| {
                l.contains("endpoint=\"sample\"")
            });
            let decodes = delta(before, after, "modelstore_loads_total", &|_| true);
            [
                ok,
                all - ok,
                delta(before, after, "registry_cache_evictions_total", &|_| true),
                delta(before, after, "budget_spends_total", &|_| true),
                ratio(decodes, samples),
            ]
        }
        None => [0.0; 5],
    };
    derived.extend([
        ("serve.requests.ok", "count", counters[0]),
        ("serve.requests.failed", "count", counters[1]),
        ("serve.registry.evictions", "count", counters[2]),
        ("serve.budget.spends", "count", counters[3]),
        ("serve.registry.decodes_per_req", "ratio", counters[4]),
        ("modelstore.save.torn_read_frac", "ratio", r.torn_read_frac),
    ]);

    // Attributed time of a measured request: the sum of its layers'
    // self times. What the layers do not cover — sockets, scheduling,
    // the daemon's own glue — is the unattributed share.
    let attributed: Vec<f64> = per_root
        .iter()
        .filter(|(primary, _)| *primary)
        .map(|(_, layers)| layers.iter().map(|&(_, ns)| ns).sum::<u64>() as f64 / 1e6)
        .collect();
    let traced_p50 = p50_ms(r.traced, r.workload);
    let untraced_p50 = p50_ms(r.untraced, r.workload);
    derived.extend([
        (
            "trace.unattributed_frac",
            "ratio",
            1.0 - ratio(percentile_of(&attributed, 0.5), traced_p50),
        ),
        (
            "trace.overhead_frac",
            "ratio",
            ratio(traced_p50, untraced_p50) - 1.0,
        ),
    ]);
    out.extend(derived.into_iter().map(|(name, unit, value)| Metric {
        name,
        unit,
        value,
        samples: 1,
    }));
    out
}
