//! The four workloads: their inputs, set-up, timed closed-loop phases,
//! correctness checks and end-to-end metrics.

use crate::check::{self, Checks};
use crate::child::{ChildProc, Daemon, SAMPLE_WORKERS};
use crate::client::{request_bytes, Conn, Failures, Reply};
use crate::hostref::{self, HostRef};
use crate::inputs::{self, derive, FitInput, Scale, EPSILON};
use crate::replay::{self, DaemonReplay, LayerReport, Scrape};
use crate::stats::percentile_of;
use crate::trace::Tracer;
use dpcopula::{FittedModel, SamplingProfile};
use modelstore::crc32::fnv1a64;
use obskit::Stopwatch;
use rngkit::rngs::StdRng;
use rngkit::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};

/// Sample responses per phase whose bytes are re-derived in-process
/// after the run (the traced phase re-derives all it replays).
const VERIFY_PER_PHASE: u32 = 8;

/// Window offsets are drawn from `[0, 2^26)`.
const OFFSET_SPACE: u64 = 1 << 26;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SampleSmall,
    SampleBulk,
    FitHttp,
    FitSharded,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SampleSmall,
        Workload::SampleBulk,
        Workload::FitHttp,
        Workload::FitSharded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SampleSmall => "sample-small",
            Workload::SampleBulk => "sample-bulk",
            Workload::FitHttp => "fit-http",
            Workload::FitSharded => "fit-sharded",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's measured operation is a sample (else a
    /// fit).
    pub fn samples(self) -> bool {
        matches!(self, Workload::SampleSmall | Workload::SampleBulk)
    }

    fn profile(self) -> SamplingProfile {
        match self {
            Workload::SampleSmall => SamplingProfile::Fast,
            _ => SamplingProfile::Reference,
        }
    }
}

pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub out_dir: PathBuf,
    pub work_dir: PathBuf,
    /// Rendered JSON object heading the trace file.
    pub header: String,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

pub struct Outcome {
    pub checks: Checks,
    pub attempted: u64,
    pub failures: Failures,
    /// What the JSON line carries.
    pub metrics: Vec<Metric>,
    /// Printed in the report only: timings as measured, which the host
    /// moves by more than any bound could allow, and the host's speed.
    pub info: Vec<Metric>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Sample,
    FitJson,
    FitLib,
}

/// One attempted operation of a timed phase.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: Kind,
    /// `phase << 40 | sequence`, shared by every span of the operation.
    pub request: u64,
    pub model: usize,
    /// Which training input the model held (sample) or was fit from.
    pub version: usize,
    pub offset: u64,
    pub seed: u64,
    pub rows: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub status: u16,
    pub bytes: usize,
    /// FNV-1a 64 of a sample body, or the released model's checksum.
    pub digest: Option<u64>,
}

impl Op {
    pub fn ok(&self) -> bool {
        self.status == 200
    }

    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    pub fn primary(&self, workload: Workload) -> bool {
        (self.kind == Kind::Sample) == workload.samples()
    }
}

pub fn run(spec: &RunSpec) -> Result<Outcome, String> {
    std::fs::create_dir_all(&spec.work_dir).map_err(|e| format!("creating work dir: {e}"))?;
    match spec.workload {
        Workload::FitSharded => run_sharded(spec),
        _ => run_daemon(spec),
    }
}

/// The inputs of a daemon workload, shared by its client and its
/// replay.
pub struct DaemonCtx {
    pub workload: Workload,
    pub scale: Scale,
    pub seed: u64,
    /// Model ids, indexed by `Op::model`.
    pub models: Vec<String>,
    /// The sample workloads' training input (`seed` model).
    pub train: Option<FitInput>,
    /// `fit-http` training inputs, indexed by version; version `v` is
    /// fit into model `v`.
    pub bodies: Vec<FitInput>,
    /// Per version: the fit request that installs it.
    pub fit_requests: Vec<Vec<u8>>,
}

impl DaemonCtx {
    fn new(spec: &RunSpec) -> Self {
        let (w, s, seed) = (spec.workload, spec.scale, spec.seed);
        let census = |rows, tag| datagen::census::us_census(rows, derive(seed, tag));
        if w.samples() {
            let train = FitInput::new(census(s.train_rows, 1), derive(seed, 2));
            return Self {
                workload: w,
                scale: s,
                seed,
                models: vec!["seed".into()],
                fit_requests: vec![csv_fit_request("seed", &train)],
                train: Some(train),
                bodies: Vec::new(),
            };
        }
        let bodies: Vec<FitInput> = (0..4)
            .map(|v| FitInput::new(census(s.fit_rows, 10 + v), derive(seed, 20 + v)))
            .collect();
        let models: Vec<String> = (0..bodies.len()).map(|v| format!("fit-{v}")).collect();
        let fit_requests = bodies
            .iter()
            .zip(&models)
            .map(|(b, id)| json_fit_request(id, b))
            .collect();
        Self {
            workload: w,
            scale: s,
            seed,
            models,
            train: None,
            bodies,
            fit_requests,
        }
    }

    pub fn input(&self, version: usize) -> &FitInput {
        match &self.train {
            Some(train) => train,
            None => &self.bodies[version],
        }
    }

    fn window_rows(&self) -> usize {
        match self.workload {
            Workload::SampleBulk => self.scale.bulk_rows,
            _ => self.scale.small_rows,
        }
    }

    pub fn sample_request(&self, model: usize, offset: u64, rows: usize) -> Vec<u8> {
        let profile = match self.workload.profile() {
            SamplingProfile::Fast => ",\"profile\":\"fast\"",
            _ => "",
        };
        let body = format!(
            "{{\"model\":\"{}\",\"offset\":{offset},\"rows\":{rows}{profile}}}",
            self.models[model]
        );
        request_bytes("POST", "/v1/sample", "application/json", body.as_bytes())
    }
}

/// The input sizes and load shape of a workload, for the report stamp.
pub fn sizes(workload: Workload, s: Scale) -> String {
    let load = match workload {
        Workload::SampleSmall => format!(
            "train_rows={} window_rows={} profile=fast clients=1 connections=1",
            s.train_rows, s.small_rows
        ),
        Workload::SampleBulk => format!(
            "train_rows={} window_rows={} profile=reference clients=1 connections=1",
            s.train_rows, s.bulk_rows
        ),
        Workload::FitHttp => format!(
            "fit_rows={} bodies=4 route=json clients=1 connections=1",
            s.fit_rows
        ),
        Workload::FitSharded => format!(
            "rows={} attributes=8 shards=4 workers=2 callers=1",
            s.sharded_rows
        ),
    };
    format!(
        "{load} setup_reps={} probe_rows={} queries={}",
        s.setup_reps, s.probe_rows, s.queries
    )
}

fn csv_fit_request(id: &str, input: &FitInput) -> Vec<u8> {
    let target = format!("/v1/fit?id={id}&epsilon={EPSILON}&seed={}", input.seed);
    request_bytes("POST", &target, "text/csv", &input.csv)
}

fn json_fit_request(id: &str, input: &FitInput) -> Vec<u8> {
    let csv = std::str::from_utf8(&input.csv).expect("generated csv is ascii");
    let body = format!(
        "{{\"id\":\"{id}\",\"epsilon\":{EPSILON},\"seed\":{},\"csv\":{}}}",
        input.seed,
        dpcopula_serve::json::quote(csv)
    );
    request_bytes("POST", "/v1/fit", "application/json", body.as_bytes())
}

/// The model checksum a fit response reports.
fn reported_checksum(reply: &Reply) -> Option<u64> {
    let doc = dpcopula_serve::json::Json::parse(std::str::from_utf8(&reply.body).ok()?).ok()?;
    u64::from_str_radix(doc.get("checksum")?.as_str()?, 16).ok()
}

/// A window as the daemon's sample handler encodes it: the model's
/// schema, `Dataset::new` and `write_csv`. Returns the CSV bytes and
/// hands the columns back.
pub fn encode_window(model: &FittedModel, columns: Vec<Vec<u32>>) -> (Vec<u8>, Vec<Vec<u32>>) {
    let attributes = model
        .artifact()
        .schema
        .iter()
        .map(|a| datagen::Attribute::new(a.name.clone(), a.domain))
        .collect();
    let dataset = datagen::Dataset::new(attributes, columns);
    let mut bytes = Vec::new();
    datagen::io::write_csv(&dataset, &mut bytes).expect("encoding into memory");
    (bytes, dataset.into_columns())
}

/// An in-process window and its CSV bytes.
fn window(
    model: &FittedModel,
    profile: SamplingProfile,
    offset: u64,
    rows: usize,
) -> (Vec<u8>, Vec<Vec<u32>>) {
    let columns = model
        .try_sample_range_profiled(profile, offset as usize, rows, SAMPLE_WORKERS)
        .expect("window inside the row space");
    encode_window(model, columns)
}

struct PhaseOut {
    ops: Vec<Op>,
    failures: Failures,
    bad: Vec<String>,
}

/// One closed-loop phase against the daemon at `addr`: one client on
/// one keep-alive connection, sending its next request when the last
/// one is answered, for `seconds`. Between requests, every
/// [`hostref::EVERY_NS`], `host` samples the host's speed.
fn daemon_phase(
    ctx: &DaemonCtx,
    addr: SocketAddr,
    seconds: f64,
    phase: u64,
    epoch: Stopwatch,
    all_digests: bool,
    host: &mut HostRef,
) -> PhaseOut {
    let deadline_ns = epoch.elapsed_ns() + (seconds * 1e9) as u64;
    let rows = ctx.window_rows();
    let mut rng = StdRng::seed_from_u64(derive(ctx.seed, 100 + phase));
    // sample-bulk pages through consecutive windows.
    let first = derive(ctx.seed, 200 + phase) % 1024 * rows as u64;
    let mut conn = Conn::new(addr);
    let mut out = PhaseOut {
        ops: Vec::new(),
        failures: Failures::default(),
        bad: Vec::new(),
    };
    let mut seq = 0u32;
    let mut next_sample_ns = 0;
    while epoch.elapsed_ns() < deadline_ns {
        if epoch.elapsed_ns() >= next_sample_ns {
            host.sample();
            next_sample_ns = epoch.elapsed_ns() + hostref::EVERY_NS;
        }
        let sample_bytes;
        let (request, kind, version, offset, seed, op_rows): (&[u8], _, _, _, _, _) =
            if ctx.workload.samples() {
                let offset = match ctx.workload {
                    Workload::SampleBulk => first + u64::from(seq) * rows as u64,
                    _ => rng.gen_range(0..OFFSET_SPACE),
                };
                sample_bytes = ctx.sample_request(0, offset, rows);
                (&sample_bytes, Kind::Sample, 0, offset, 0, rows)
            } else {
                let version = seq as usize % ctx.bodies.len();
                let input = &ctx.bodies[version];
                let request = &ctx.fit_requests[version];
                (
                    request,
                    Kind::FitJson,
                    version,
                    0,
                    input.seed,
                    input.dataset.len(),
                )
            };
        let start_ns = epoch.elapsed_ns();
        let reply = conn.send(request);
        let mut op = Op {
            kind,
            request: phase << 40 | u64::from(seq),
            model: version,
            version,
            offset,
            seed,
            rows: op_rows,
            start_ns,
            end_ns: epoch.elapsed_ns(),
            status: reply.status,
            bytes: reply.body.len(),
            digest: None,
        };
        if !reply.ok() {
            out.failures.record(&reply);
        } else if op.kind == Kind::Sample {
            if !check::has_rows_plus_one_lines(&reply.body, rows) {
                out.bad.push(format!(
                    "sample of {rows} rows at offset {} answered with {} lines",
                    op.offset,
                    reply.body.iter().filter(|&&b| b == b'\n').count()
                ));
            }
            if all_digests || seq < VERIFY_PER_PHASE {
                op.digest = Some(fnv1a64(&reply.body));
            }
        } else {
            op.digest = reported_checksum(&reply);
            let expected = ctx.bodies[op.version].checksum;
            if op.digest != Some(expected) {
                out.bad.push(format!(
                    "fit of {} reported checksum {:016x?}, in-process fit gives {expected:016x}",
                    ctx.models[op.model], op.digest
                ));
            }
        }
        out.ops.push(op);
        seq += 1;
    }
    out
}

/// Starts a daemon over a fresh model directory and brings it to the
/// state the workload needs, timing spawn → listening → models
/// installed → first request answered.
fn setup_daemon(ctx: &DaemonCtx, spec: &RunSpec, rep: usize) -> Result<(Daemon, f64), String> {
    let dir = spec.work_dir.join(format!("models-{rep}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating model dir: {e}"))?;
    let watch = Stopwatch::start();
    let daemon = Daemon::spawn(&dir, &spec.work_dir)?;
    let mut conn = Conn::new(daemon.addr);
    // The sample workloads install their one model; fit-http starts
    // empty.
    let first = if ctx.workload.samples() {
        let reply = conn.send(&ctx.fit_requests[0]);
        let expected = ctx.input(0).checksum;
        if !reply.ok() || reported_checksum(&reply) != Some(expected) {
            return Err(format!(
                "installing {} answered {}: {}",
                ctx.models[0],
                reply.status,
                reply.reason()
            ));
        }
        conn.send(&ctx.sample_request(0, 0, ctx.window_rows()))
    } else {
        conn.get("/healthz")
    };
    if !first.ok() {
        return Err(format!(
            "first request answered {}: {}",
            first.status,
            first.reason()
        ));
    }
    Ok((daemon, watch.elapsed().as_secs_f64()))
}

/// Set-ups per run, and how many of them come before the timed phase.
/// The rest run after it, so the median spans the run rather than one
/// moment of the host: a fresh process's first-touch costs on a shared
/// host shift from second to second.
fn setup_split(scale: Scale) -> (usize, usize) {
    let reps = scale.setup_reps.max(1);
    (reps.div_ceil(2), reps)
}

/// A run's set-up times, each right after a sample of the host's speed,
/// so `setup_s` is scaled by the host as it was during the set-ups.
#[derive(Default)]
struct Setups {
    seconds: Vec<f64>,
    host: HostRef,
}

impl Setups {
    /// Samples the host, then runs and records one timed set-up.
    fn time<T>(&mut self, setup: impl FnOnce() -> Result<(T, f64), String>) -> Result<T, String> {
        self.host.sample();
        let (ready, seconds) = setup()?;
        self.seconds.push(seconds);
        Ok(ready)
    }
}

fn run_daemon(spec: &RunSpec) -> Result<Outcome, String> {
    let ctx = DaemonCtx::new(spec);
    let (early, reps) = setup_split(spec.scale);
    let mut setups = Setups::default();
    let mut daemon = None;
    for rep in 0..early {
        // One daemon at a time: the previous one is stopped first.
        drop(daemon.take());
        daemon = Some(setups.time(|| setup_daemon(&ctx, spec, rep))?);
    }
    let daemon = daemon.expect("at least one set-up");
    let addr = daemon.addr;
    let epoch = Stopwatch::start();
    let mut checks = Checks::default();
    let mut host = HostRef::default();

    let (measured, traced) = if spec.trace {
        let half = spec.seconds / 2.0;
        let untraced = daemon_phase(&ctx, addr, half, 0, epoch, false, &mut host);
        let before = Scrape::fetch(addr)?;
        let traced = daemon_phase(&ctx, addr, half, 1, epoch, true, &mut host);
        let after = Scrape::fetch(addr)?;
        (untraced, Some((traced, before, after)))
    } else {
        let phase = daemon_phase(&ctx, addr, spec.seconds, 0, epoch, false, &mut host);
        (phase, None)
    };
    let rss_mib = daemon.proc.peak_rss_kib().unwrap_or(0) as f64 / 1024.0;

    let mut failures = Failures::default();
    let mut attempted = measured.ops.len() as u64;
    let mut bad = measured.bad.clone();
    if let Some((t, _, _)) = &traced {
        attempted += t.ops.len() as u64;
        bad.extend(t.bad.iter().cloned());
    }
    checks.check(bad.is_empty(), || {
        format!(
            "{} answers failed their check, first: {}",
            bad.len(),
            bad.first().map_or("", String::as_str)
        )
    });
    verify_windows(&ctx, &measured.ops, &mut checks);

    // The workload's final model: the last model a fit released, or the
    // seed model.
    let all_ops = measured
        .ops
        .iter()
        .chain(traced.iter().flat_map(|(t, _, _)| t.ops.iter()));
    let (model, version) = all_ops
        .filter(|o| o.ok() && o.kind != Kind::Sample)
        .max_by_key(|o| o.end_ns)
        .map_or((0, 0), |o| (o.model, o.version));
    probe(&ctx, &daemon, model, version, &mut checks)?;
    drop(daemon);
    for rep in early..reps {
        drop(setups.time(|| setup_daemon(&ctx, spec, rep))?);
    }

    let (metrics, info) = match &traced {
        None => e2e_metrics(spec, &setups, &measured.ops, rss_mib, &host)?,
        Some((t, before, after)) => {
            let mut tracer = Tracer::new(epoch);
            for op in &t.ops {
                tracer.record("client.request", op.start_ns, op.end_ns, op.request);
            }
            let dir = spec.work_dir.join("replay");
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).map_err(|e| format!("creating replay dir: {e}"))?;
            let mut replayer = DaemonReplay::new(&ctx, &dir)?;
            let roots = replay_ops(spec, &t.ops, &mut checks, |op| {
                replayer.replay(&mut tracer, op)
            });
            let served = &ctx.input(version).model;
            let report = LayerReport {
                workload: spec.workload,
                tracer: &tracer,
                roots,
                untraced: &measured.ops,
                traced: &t.ops,
                counters: Some((before, after)),
                chunk: served.artifact().provenance.sample_chunk,
                decode_ns: replay::decode_samples_ns(served),
                torn_read_frac: replay::torn_read_frac(served, &dir)?,
            };
            let metrics = replay::layer_metrics(&report);
            write_trace(spec, &tracer)?;
            (metrics, Vec::new())
        }
    };
    failures.merge(measured.failures);
    if let Some((t, _, _)) = traced {
        failures.merge(t.failures);
    }
    Ok(Outcome {
        checks,
        attempted,
        failures,
        metrics,
        info,
    })
}

/// Re-derives the recorded sample windows in-process: each must match
/// the bytes the daemon served.
fn verify_windows(ctx: &DaemonCtx, ops: &[Op], checks: &mut Checks) {
    let mut checked = 0;
    let mut wrong = Vec::new();
    for op in ops.iter().filter(|o| o.kind == Kind::Sample && o.ok()) {
        let Some(digest) = op.digest else { continue };
        let model = &ctx.input(op.version).model;
        let (csv, _) = window(model, ctx.workload.profile(), op.offset, op.rows);
        checked += 1;
        if fnv1a64(&csv) != digest {
            wrong.push(op.request);
        }
    }
    checks.check(wrong.is_empty(), || {
        format!(
            "{} of {checked} served windows differ from in-process sampling (requests {wrong:?})",
            wrong.len()
        )
    });
}

/// Fetches a probe window of the final model over HTTP and checks it
/// byte for byte against in-process sampling of the artifact the daemon
/// wrote.
fn probe(
    ctx: &DaemonCtx,
    daemon: &Daemon,
    model: usize,
    version: usize,
    checks: &mut Checks,
) -> Result<(), String> {
    let rows = ctx.scale.probe_rows;
    let offset = derive(ctx.seed, 30) % OFFSET_SPACE;
    let mut conn = Conn::new(daemon.addr);
    let reply = conn.send(&ctx.sample_request(model, offset, rows));
    if !reply.ok() {
        return Err(format!(
            "probe window answered {}: {}",
            reply.status,
            reply.reason()
        ));
    }
    let path = daemon.model_dir.join(format!("{}.dpcm", ctx.models[model]));
    let saved = FittedModel::load(&path).map_err(|e| format!("loading {}: {e}", path.display()))?;
    let input = ctx.input(version);
    checks.check(saved.artifact().checksum() == input.checksum, || {
        format!(
            "{} on disk is not the model fitted in-process",
            path.display()
        )
    });
    let (csv, _) = window(&saved, ctx.workload.profile(), offset, rows);
    checks.same_bytes("probe window over HTTP vs in-process", &csv, &reply.body);
    Ok(())
}

/// `utility_rel_err` of a pinned release: the workload's kind of model
/// fit from the same rows with the same seed in every run, and a probe
/// window of its profile. Training rows and DP noise vary the error of
/// a seeded release by tens of percent from seed to seed; the pinned one
/// moves only when the code's output does.
fn pinned_utility(workload: Workload, s: Scale) -> Result<f64, String> {
    const PINNED: u64 = 0x5eed_0001;
    let (dataset, model) = match workload {
        // A quarter of the workload's rows: enough to pin the sharded
        // fit's quality at a quarter of the cost.
        Workload::FitSharded => {
            let dataset = datagen::census::brazil_census(s.sharded_rows / 4, PINNED);
            let model = inputs::sharded_fit(&dataset, PINNED).map_err(|e| e.to_string())?;
            (dataset, model)
        }
        _ => {
            let rows = match workload {
                Workload::SampleSmall | Workload::SampleBulk => s.train_rows,
                _ => s.fit_rows,
            };
            let input = FitInput::new(datagen::census::us_census(rows, PINNED), PINNED);
            (input.dataset, input.model)
        }
    };
    let probe = model
        .try_sample_range_profiled(workload.profile(), 0, s.probe_rows, SAMPLE_WORKERS)
        .map_err(|e| e.to_string())?;
    Ok(check::utility_rel_err(
        dataset.columns(),
        &dataset.domains(),
        &probe,
        s.queries,
        PINNED,
    ))
}

/// The end-to-end metrics of a run, and the ones printed beside them.
///
/// The timings the JSON line carries are scaled to the nominal host
/// speed (see [`HostRef`]). The latency is the 10th percentile: the
/// host's bursts only ever add time, so the run's fastest operations
/// are the ones that ran on an unhindered core, and a change to the
/// program's own work moves them all. The median, the tail and the
/// throughput follow the bursts; they are printed, as measured, for
/// the reader only.
fn e2e_metrics(
    spec: &RunSpec,
    setups: &Setups,
    ops: &[Op],
    rss_mib: f64,
    host: &HostRef,
) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let workload = spec.workload;
    let done: Vec<&Op> = ops
        .iter()
        .filter(|o| o.ok() && o.primary(workload))
        .collect();
    let n = done.len();
    let latencies: Vec<f64> = done.iter().map(|o| o.ms()).collect();
    let p10 = percentile_of(&latencies, 0.1);
    let setup = percentile_of(&setups.seconds, 0.5);
    let reps = setups.seconds.len();
    let wall_s = match (done.first(), done.last()) {
        (Some(a), Some(b)) => (b.end_ns - a.start_ns) as f64 / 1e9,
        _ => 0.0,
    };
    let rows = done.iter().map(|o| o.rows).sum::<usize>() as f64;
    let metric = |name, unit, value, samples| Metric {
        name,
        unit,
        value,
        samples,
    };
    let metrics = vec![
        metric("setup_s", "s", setups.host.scale(setup, 0.5), reps),
        metric("p10_ms", "ms", host.scale(p10, 0.1), n),
        metric("peak_rss_mib", "MiB", rss_mib, 1),
        metric(
            "utility_rel_err",
            "ratio",
            pinned_utility(workload, spec.scale)?,
            spec.scale.queries,
        ),
    ];
    let info = vec![
        metric("raw.setup_s", "s", setup, reps),
        metric("raw.p10_ms", "ms", p10, n),
        metric("raw.p50_ms", "ms", percentile_of(&latencies, 0.5), n),
        metric("raw.p95_ms", "ms", percentile_of(&latencies, 0.95), n),
        metric(
            "raw.rows_per_s",
            "rows/s",
            if wall_s > 0.0 { rows / wall_s } else { 0.0 },
            n,
        ),
        metric("host.ref_p10_ms", "ms", host.ms(0.1), host.samples()),
        metric("host.ref_p50_ms", "ms", host.ms(0.5), host.samples()),
    ];
    Ok((metrics, info))
}

/// Replays the traced operations in request order until the replay
/// budget is spent (at least one measured operation always replays).
/// Returns each replayed request's root span and whether the operation
/// is the workload's measured one.
fn replay_ops(
    spec: &RunSpec,
    ops: &[Op],
    checks: &mut Checks,
    mut replay_one: impl FnMut(&Op) -> Result<(usize, Option<u64>), String>,
) -> Vec<(usize, bool)> {
    let budget_s = replay::budget_s(spec.seconds);
    let watch = Stopwatch::start();
    let mut roots: Vec<(usize, bool)> = Vec::new();
    let mut mismatches = Vec::new();
    for op in ops.iter().filter(|o| o.ok()) {
        if watch.elapsed().as_secs_f64() > budget_s && roots.iter().any(|&(_, p)| p) {
            break;
        }
        match replay_one(op) {
            Ok((root, digest)) => {
                if op.digest.is_some() && digest != op.digest {
                    mismatches.push(format!("request {:#x}: replay output differs", op.request));
                }
                roots.push((root, op.primary(spec.workload)));
            }
            Err(e) => mismatches.push(format!("request {:#x}: {e}", op.request)),
        }
    }
    checks.check(mismatches.is_empty(), || {
        format!(
            "traced replay disagrees with the run on {} of {} requests, first: {}",
            mismatches.len(),
            roots.len(),
            mismatches[0]
        )
    });
    roots
}

fn write_trace(spec: &RunSpec, tracer: &Tracer) -> Result<(), String> {
    std::fs::create_dir_all(&spec.out_dir).map_err(|e| format!("creating out dir: {e}"))?;
    let path = spec
        .out_dir
        .join(format!("trace-{}.json", spec.workload.name()));
    tracer
        .write_json(&path, &spec.header)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("trace: {} spans in {}", tracer.spans.len(), path.display());
    Ok(())
}

/// `fit-sharded`: `SynthesisRequest::fit()` with 4 shards and 2 workers
/// in a child process over a CSV it loads once at set-up.
fn run_sharded(spec: &RunSpec) -> Result<Outcome, String> {
    let s = spec.scale;
    let n = s.sharded_rows;
    let generated = datagen::census::brazil_census(n, derive(spec.seed, 3));
    let mut csv = Vec::new();
    datagen::io::write_csv(&generated, &mut csv).map_err(|e| e.to_string())?;
    let dataset = datagen::io::read_csv(&csv[..]).map_err(|e| e.to_string())?;
    let csv_path = spec.work_dir.join("sharded.csv");
    std::fs::write(&csv_path, &csv).map_err(|e| format!("writing training csv: {e}"))?;
    let csv_arg = csv_path.to_str().ok_or("work dir is not utf-8")?;

    let (early, reps) = setup_split(s);
    let mut setups = Setups::default();
    let mut child = None;
    for _ in 0..early {
        drop(child.take());
        child = Some(setups.time(|| setup_fit_child(csv_arg, &spec.work_dir))?);
    }
    let mut child = child.expect("at least one set-up");
    let epoch = Stopwatch::start();
    let mut host = HostRef::default();
    let first_seed = derive(spec.seed, 4);
    let phase_s = if spec.trace {
        spec.seconds / 2.0
    } else {
        spec.seconds
    };
    let (measured, mut rss_kib) =
        fit_phase(&mut child, phase_s, first_seed, 0, epoch, n, &mut host)?;
    let traced = if spec.trace {
        let next = measured.ops.last().map_or(first_seed, |o| o.seed + 1);
        let (traced, hwm) = fit_phase(&mut child, phase_s, next, 1, epoch, n, &mut host)?;
        rss_kib = rss_kib.max(hwm);
        Some(traced)
    } else {
        None
    };
    let last_seed = traced
        .as_ref()
        .unwrap_or(&measured)
        .ops
        .last()
        .map(|o| o.seed)
        .ok_or("no fit finished")?;
    let final_path = spec.work_dir.join("final.dpcm");
    child.send_line(&format!("save {}", final_path.display()))?;
    if child.read_line()? != "saved" {
        return Err("fit child did not save its model".into());
    }
    drop(child);
    for _ in early..reps {
        drop(setups.time(|| setup_fit_child(csv_arg, &spec.work_dir))?);
    }

    let mut checks = Checks::default();
    let saved = FittedModel::load(&final_path).map_err(|e| e.to_string())?;
    let saved_bytes = saved.artifact().encode();
    let reference = inputs::sharded_fit(&dataset, last_seed).map_err(|e| e.to_string())?;
    checks.same_bytes(
        "child fit vs in-process fit()",
        &reference.artifact().encode(),
        &saved_bytes,
    );
    let parts = inputs::shard_parts(&dataset);
    let mut scratch = Tracer::new(epoch);
    let merged = inputs::shard_then_merge(&parts, n, last_seed, &mut scratch, 0)
        .map_err(|e| e.to_string())?;
    checks.same_bytes(
        "fit_shard x4 + merge_shards vs fit()",
        &merged.artifact().encode(),
        &saved_bytes,
    );

    let mut attempted = measured.ops.len() as u64;
    let (metrics, info) = match &traced {
        None => e2e_metrics(spec, &setups, &measured.ops, rss_kib as f64 / 1024.0, &host)?,
        Some(PhaseOut { ops, .. }) => {
            attempted += ops.len() as u64;
            let mut tracer = Tracer::new(epoch);
            for op in ops {
                tracer.record("client.request", op.start_ns, op.end_ns, op.request);
            }
            let roots = replay_ops(spec, ops, &mut checks, |op| {
                let model = inputs::shard_then_merge(&parts, n, op.seed, &mut tracer, op.request)
                    .map_err(|e| e.to_string())?;
                let root = tracer
                    .spans
                    .iter()
                    .rposition(|s| s.parent.is_none())
                    .expect("root span");
                Ok((root, Some(model.artifact().checksum())))
            });
            let dir = spec.work_dir.join("replay");
            std::fs::create_dir_all(&dir).map_err(|e| format!("creating replay dir: {e}"))?;
            let report = LayerReport {
                workload: spec.workload,
                tracer: &tracer,
                roots,
                untraced: &measured.ops,
                traced: ops,
                counters: None,
                chunk: saved.artifact().provenance.sample_chunk,
                decode_ns: replay::decode_samples_ns(&saved),
                torn_read_frac: replay::torn_read_frac(&saved, &dir)?,
            };
            let metrics = replay::layer_metrics(&report);
            write_trace(spec, &tracer)?;
            (metrics, Vec::new())
        }
    };
    Ok(Outcome {
        checks,
        attempted,
        failures: Failures::default(),
        metrics,
        info,
    })
}

/// Starts a fit child, timing spawn → CSV loaded.
fn setup_fit_child(csv: &str, work_dir: &Path) -> Result<(ChildProc, f64), String> {
    let watch = Stopwatch::start();
    let mut child = ChildProc::spawn(&["fit-child", "--csv", csv], work_dir)?;
    let ready = child.read_line()?;
    if ready != "ready" {
        return Err(format!("fit child said `{ready}`"));
    }
    Ok((child, watch.elapsed().as_secs_f64()))
}

/// One timed phase of the fit child: fits back to back for `seconds`,
/// with seeds `first_seed`, `first_seed + 1`, … The child fits in runs
/// of at most [`hostref::EVERY_NS`]; before each, `host` samples the
/// host's speed while the child waits. Returns the phase and the
/// child's `VmHWM` in KiB.
fn fit_phase(
    child: &mut ChildProc,
    seconds: f64,
    first_seed: u64,
    phase: u64,
    epoch: Stopwatch,
    rows: usize,
    host: &mut HostRef,
) -> Result<(PhaseOut, u64), String> {
    let deadline_ns = epoch.elapsed_ns() + (seconds * 1e9) as u64;
    let mut ops: Vec<Op> = Vec::new();
    let mut hwm_kib = 0;
    while epoch.elapsed_ns() < deadline_ns {
        host.sample();
        let left_ns = deadline_ns.saturating_sub(epoch.elapsed_ns());
        let run_s = left_ns.min(hostref::EVERY_NS) as f64 / 1e9;
        let next_seed = ops.last().map_or(first_seed, |o| o.seed + 1);
        child.send_line(&format!("run {run_s} {next_seed}"))?;
        loop {
            let line = child.read_line()?;
            let words: Vec<&str> = line.split_whitespace().collect();
            let parse_err = || format!("bad fit child line `{line}`");
            match words.as_slice() {
                ["fit", seed, ns, checksum] => {
                    let end_ns = epoch.elapsed_ns();
                    let ns: u64 = ns.parse().map_err(|_| parse_err())?;
                    ops.push(Op {
                        kind: Kind::FitLib,
                        request: phase << 40 | ops.len() as u64,
                        model: 0,
                        version: 0,
                        offset: 0,
                        seed: seed.parse().map_err(|_| parse_err())?,
                        rows,
                        start_ns: end_ns.saturating_sub(ns),
                        end_ns,
                        status: 200,
                        bytes: 0,
                        digest: Some(u64::from_str_radix(checksum, 16).map_err(|_| parse_err())?),
                    });
                }
                ["end", hwm] => {
                    hwm_kib = hwm.parse().map_err(|_| parse_err())?;
                    break;
                }
                _ => return Err(parse_err()),
            }
        }
    }
    let out = PhaseOut {
        ops,
        failures: Failures::default(),
        bad: Vec::new(),
    };
    Ok((out, hwm_kib))
}
