//! The daemon: a thread-per-connection HTTP/1.1 server over
//! [`std::net::TcpListener`], connections dispatched onto a
//! [`parkit::TaskPool`], routing six endpoints:
//!
//! | route                     | what it does                                     |
//! |---------------------------|--------------------------------------------------|
//! | `GET /healthz`            | liveness: `ok\n`                                 |
//! | `GET /metrics`            | the full metric taxonomy, Prometheus text        |
//! | `GET /v1/models`          | watched-directory listing with cache state       |
//! | `POST /v1/sample`         | row window from a registry model, CSV or JSON    |
//! | `POST /v1/fit`            | ε-metered fit: CSV in, `.dpcm` + cache entry out |
//! | `DELETE /v1/models/{id}`  | removes the artifact and invalidates the cache   |
//!
//! ## Overload behavior
//!
//! Admission is bounded at two levels, and excess load is shed fast
//! with `503` + `Retry-After` instead of queueing unboundedly (the
//! `server_shed_total{route}` counter records every shed):
//!
//! - **Connections**: accepted connections occupy pool slots reserved
//!   via [`parkit::TaskPool::try_reserve`]; past
//!   [`ServeConfig::max_connections`] the accept thread writes the 503
//!   itself and closes.
//! - **Requests**: `/v1/sample` and `/v1/fit` each pass a per-route
//!   in-flight gate capped at [`ServeConfig::max_inflight`].
//!
//! Slow clients cannot pin workers: sockets carry read/write timeouts,
//! and the request head and body each have a wall-clock deadline —
//! exceeding one yields a named `408` (counted in
//! `serve_timeouts_total{phase}`) and the connection closes.
//!
//! ## ε admission
//!
//! Only `/v1/fit` passes the [`BudgetGate`]: fitting releases new noisy
//! statistics and spends the tenant's ε. `/v1/sample` draws rows from
//! statistics that were already released, which is post-processing and
//! ε-free — so sampling keeps serving (and stays unmetered) even for a
//! tenant whose fit budget is exhausted. Admission happens *after*
//! input validation (parsing a request body releases nothing) and
//! *before* the fit; a fit that fails after admission keeps its debit,
//! because partial pipelines may already have released noisy margins.
//!
//! ## Determinism
//!
//! Sampling goes through `FittedModel::try_sample_blocks`, the path
//! `try_sample_range_profiled` is built on, so a window fetched over
//! HTTP is byte-identical (as CSV) to the same window sampled
//! in-process, at any worker count.

use crate::budget::{BudgetGate, GateError, DEFAULT_TENANT};
use crate::http::{read_request_spooled, HttpError, ReadLimits, Request, Response, SpoolPolicy};
use crate::json::{quote, Json};
use crate::registry::{valid_model_id, ModelRegistry, RegistryError};
use datagen::RowSource;
use dpcopula::error::validate_budget;
use dpcopula::{DpCopulaConfig, DpCopulaError, SamplingProfile, SynthesisRequest};
use dpmech::Epsilon;
use modelstore::crc32::fnv1a64;
use obskit::{names, MetricsRegistry, MetricsSink, Stopwatch, Unit};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Everything the daemon needs to start.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:8787`. Port 0 binds an ephemeral
    /// port (query it back via [`Server::local_addr`]).
    pub addr: String,
    /// Directory of `.dpcm` artifacts the registry watches.
    pub model_dir: PathBuf,
    /// Tenant budget file (`name = epsilon` per line); `None` runs a
    /// single `default` tenant with [`ServeConfig::default_epsilon`].
    pub tenant_file: Option<PathBuf>,
    /// Budget of the implicit `default` tenant when no tenant file is
    /// given.
    pub default_epsilon: f64,
    /// Decoded models the registry keeps resident.
    pub cache_capacity: usize,
    /// Hard cap on request body size.
    pub max_body_bytes: usize,
    /// When larger than `max_body_bytes`, a `POST /v1/fit` body sent as
    /// `Content-Type: text/csv` up to this size is spooled to a temp
    /// file and fed through the out-of-core streaming fit instead of
    /// being refused with `413` — peak memory stays bounded by the
    /// ingestion block size, not the body. `0` (the default) disables
    /// spooling; every other route and body type keeps the
    /// `max_body_bytes` cap either way.
    pub max_fit_body_bytes: usize,
    /// Connection-handling threads.
    pub pool_workers: usize,
    /// Worker threads per sampling request (any value yields identical
    /// bytes; it only changes parallelism).
    pub sample_workers: usize,
    /// Hard cap on rows per sample request.
    pub max_rows: usize,
    /// Connections admitted at once (queued + running); excess is shed
    /// with `503` + `Retry-After` from the accept thread.
    pub max_connections: usize,
    /// In-flight requests per gated route (`sample`, `fit`); excess is
    /// shed with `503` + `Retry-After`.
    pub max_inflight: usize,
    /// Socket read timeout — how long one blocking read may wait. Also
    /// how long an idle keep-alive connection may sit between requests.
    pub read_timeout: Duration,
    /// Socket write timeout — a client that stops reading its response
    /// loses the connection after this long.
    pub write_timeout: Duration,
    /// Wall-clock deadline for receiving a complete request head once
    /// its first byte has arrived (slowloris defense).
    pub head_timeout: Duration,
    /// Wall-clock deadline for receiving a complete declared body.
    pub body_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8787".into(),
            model_dir: PathBuf::from("."),
            tenant_file: None,
            default_epsilon: 10.0,
            cache_capacity: 8,
            max_body_bytes: 8 * 1024 * 1024,
            max_fit_body_bytes: 0,
            pool_workers: 4,
            sample_workers: 1,
            max_rows: 10_000_000,
            max_connections: 256,
            max_inflight: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(10),
            head_timeout: Duration::from_secs(10),
            body_timeout: Duration::from_secs(60),
        }
    }
}

/// Startup failures, each naming what was wrong.
#[derive(Debug)]
pub enum ServeError {
    /// The listen address did not parse as `host:port`.
    BadAddr {
        /// The address as given.
        addr: String,
    },
    /// The model directory does not exist or is not a directory.
    ModelDirMissing {
        /// The path as given.
        path: String,
    },
    /// The tenant budget file could not be read.
    TenantFileIo {
        /// The path as given.
        path: String,
        /// Underlying I/O error.
        source: std::io::Error,
    },
    /// The tenant budget file did not parse.
    TenantConfig(crate::budget::TenantConfigError),
    /// The default tenant's epsilon was invalid.
    BadEpsilon(f64),
    /// Binding or accepting on the socket failed.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadAddr { addr } => {
                write!(f, "invalid listen address `{addr}`: expected host:port")
            }
            ServeError::ModelDirMissing { path } => {
                write!(f, "model directory `{path}` does not exist")
            }
            ServeError::TenantFileIo { path, source } => {
                write!(f, "reading tenant budget file {path}: {source}")
            }
            ServeError::TenantConfig(e) => write!(f, "{e}"),
            ServeError::BadEpsilon(v) => {
                write!(f, "invalid default epsilon {v}: must be finite and > 0")
            }
            ServeError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// How long shutdown waits for in-flight connections to finish before
/// abandoning them.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

struct ServerState {
    /// The config the server was bound with, worker and connection
    /// counts clamped to at least 1.
    config: ServeConfig,
    registry: ModelRegistry,
    gate: BudgetGate,
    metrics: Arc<MetricsRegistry>,
    sink: MetricsSink,
    sample_gate: InflightGate,
    fit_gate: InflightGate,
    stop: Arc<AtomicBool>,
}

/// A CAS-bounded in-flight counter: one per shed-gated route.
struct InflightGate {
    inflight: AtomicUsize,
    cap: usize,
}

/// RAII slot in an [`InflightGate`], released on drop.
struct InflightPermit<'a>(&'a InflightGate);

impl InflightGate {
    fn new(cap: usize) -> Self {
        Self {
            inflight: AtomicUsize::new(0),
            cap: cap.max(1),
        }
    }

    fn try_acquire(&self) -> Option<InflightPermit<'_>> {
        let mut current = self.inflight.load(Ordering::Acquire);
        loop {
            if current >= self.cap {
                return None;
            }
            match self.inflight.compare_exchange(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(InflightPermit(self)),
                Err(seen) => current = seen,
            }
        }
    }
}

impl Drop for InflightPermit<'_> {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A bound, not-yet-running server. [`Server::run`] blocks; use
/// [`Server::shutdown_handle`] from another thread to stop it.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

/// Stops a running [`Server`] from another thread.
#[derive(Clone)]
pub struct ShutdownHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Flags the accept loop to stop and pokes the listener so it
    /// notices immediately.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop only observes the flag on wakeup; a throwaway
        // connection provides one. Failure is fine — the listener may
        // already be gone.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Validates the config, binds the socket, builds the registry and
    /// gate, and pre-registers the full metric taxonomy (so `/metrics`
    /// always carries every series name).
    pub fn bind(mut config: ServeConfig) -> Result<Self, ServeError> {
        let addr: SocketAddr = config.addr.parse().map_err(|_| ServeError::BadAddr {
            addr: config.addr.clone(),
        })?;
        if !config.model_dir.is_dir() {
            return Err(ServeError::ModelDirMissing {
                path: config.model_dir.display().to_string(),
            });
        }
        let gate = match &config.tenant_file {
            Some(path) => {
                let text = std::fs::read_to_string(path).map_err(|e| ServeError::TenantFileIo {
                    path: path.display().to_string(),
                    source: e,
                })?;
                BudgetGate::from_config(&text).map_err(ServeError::TenantConfig)?
            }
            None => BudgetGate::single_tenant(
                Epsilon::new(config.default_epsilon)
                    .map_err(|_| ServeError::BadEpsilon(config.default_epsilon))?,
            ),
        };
        let metrics = Arc::new(MetricsRegistry::new());
        names::register_taxonomy(&metrics);
        let sink = MetricsSink::to_registry(Arc::clone(&metrics));
        let listener = TcpListener::bind(addr).map_err(ServeError::Io)?;
        config.sample_workers = config.sample_workers.max(1);
        config.pool_workers = config.pool_workers.max(1);
        config.max_connections = config.max_connections.max(1);
        let state = Arc::new(ServerState {
            registry: ModelRegistry::new(
                config.model_dir.clone(),
                config.cache_capacity,
                sink.clone(),
            ),
            gate,
            metrics,
            sink,
            sample_gate: InflightGate::new(config.max_inflight),
            fit_gate: InflightGate::new(config.max_inflight),
            stop: Arc::new(AtomicBool::new(false)),
            config,
        });
        Ok(Self { listener, state })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        self.listener.local_addr().map_err(ServeError::Io)
    }

    /// A handle that stops [`Server::run`] from another thread.
    pub fn shutdown_handle(&self) -> Result<ShutdownHandle, ServeError> {
        Ok(ShutdownHandle {
            addr: self.local_addr()?,
            stop: Arc::clone(&self.state.stop),
        })
    }

    /// Accepts connections until shut down, dispatching each onto the
    /// pool. Blocks the calling thread. Admission is bounded: past
    /// `max_connections` in flight, new connections get a direct `503`
    /// from the accept thread instead of a pool slot.
    pub fn run(self) -> Result<(), ServeError> {
        let pool = parkit::TaskPool::new(self.state.config.pool_workers);
        for conn in self.listener.incoming() {
            if self.state.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                // A single failed accept (peer gone before we got to
                // it) must not take the daemon down.
                Err(_) => continue,
            };
            match pool.try_reserve(self.state.config.max_connections) {
                Ok(permit) => {
                    let state = Arc::clone(&self.state);
                    permit.submit(move || handle_connection(stream, &state));
                }
                Err(_) => shed_connection(stream, &self.state),
            }
        }
        // Graceful drain: the listener stops accepting (it is dropped
        // with `self`), in-flight connections finish, and past the
        // deadline the pool is abandoned rather than joined — a pinned
        // worker must not wedge shutdown.
        let watch = Stopwatch::start();
        let deadline_ns = DRAIN_DEADLINE.as_nanos() as u64;
        while pool.pending() > 0 && watch.elapsed_ns() < deadline_ns {
            std::thread::sleep(Duration::from_millis(2));
        }
        if pool.pending() > 0 {
            std::mem::forget(pool);
        }
        Ok(())
    }
}

/// Writes the connection-level shed response directly on the accept
/// thread (bounded by the write timeout) and closes.
fn shed_connection(mut stream: TcpStream, state: &ServerState) {
    state.sink.add_labeled(
        names::SERVER_SHED_TOTAL,
        &[("route", "connection")],
        Unit::Count,
        1,
    );
    let _ = stream.set_write_timeout(Some(state.config.write_timeout));
    let _ = stream.set_nodelay(true);
    let _ = Response::error(503, "server at connection capacity", &[])
        .with_header("Retry-After", "1")
        .write_to(&mut stream, false);
}

fn handle_connection(stream: TcpStream, state: &ServerState) {
    let config = &state.config;
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let limits = ReadLimits {
        max_body: config.max_body_bytes,
        head_deadline: Some(config.head_timeout),
        body_deadline: Some(config.body_timeout),
    };
    // CSV fit bodies past the in-memory cap spool to a temp file when
    // the operator opted in with a larger `max_fit_body_bytes`.
    let spool = (config.max_fit_body_bytes > config.max_body_bytes).then(|| SpoolPolicy {
        path: "/v1/fit".to_string(),
        max_body: config.max_fit_body_bytes,
        dir: std::env::temp_dir(),
    });
    loop {
        // Wait for the next request's first byte before starting the
        // clocks: an idle keep-alive wait is neither head time (the
        // head deadline runs from the first byte) nor request time.
        // EOF or a read timeout here is an idle close.
        match reader.fill_buf() {
            Ok([]) => return,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        let watch = Stopwatch::start();
        let request = read_request_spooled(&mut reader, &mut writer, limits, spool.as_ref());
        let (endpoint, response, permit, keep_alive) = match &request {
            Ok(req) => {
                let (endpoint, response, permit) = route(req, state);
                (endpoint, response, permit, req.keep_alive())
            }
            Err(HttpError::Closed) | Err(HttpError::Io(_)) => return,
            Err(e @ HttpError::PayloadTooLarge { .. }) => {
                // Drain (a bounded amount of) the refused body before
                // closing: closing with unread bytes in the receive
                // buffer sends a TCP RST, which discards the 413 the
                // client is about to read.
                if let HttpError::PayloadTooLarge { declared, .. } = e {
                    drain(&mut reader, *declared);
                }
                (
                    "other",
                    Response::error(413, &e.to_string(), &[]),
                    None,
                    false,
                )
            }
            Err(e @ (HttpError::BadRequest { .. } | HttpError::TruncatedBody { .. })) => (
                "other",
                Response::error(400, &e.to_string(), &[]),
                None,
                false,
            ),
            Err(e @ (HttpError::HeadTimeout { .. } | HttpError::BodyTimeout { .. })) => {
                let phase = match e {
                    HttpError::HeadTimeout { .. } => "head",
                    _ => "body",
                };
                state.sink.add_labeled(
                    names::SERVE_TIMEOUTS_TOTAL,
                    &[("phase", phase)],
                    Unit::Count,
                    1,
                );
                (
                    "other",
                    Response::error(408, &e.to_string(), &[]),
                    None,
                    false,
                )
            }
        };
        // The in-flight permit (if the route took one) is held across
        // the response write: a slow-reading client keeps occupying its
        // slot until its bytes are actually delivered.
        let ok = response.write_to(&mut writer, keep_alive).is_ok();
        drop(permit);
        record_request(state, endpoint, response.status, &watch);
        // A draining server closes keep-alive connections at the next
        // request boundary.
        if !ok || !keep_alive || state.stop.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Reads and discards up to `declared` bytes (capped at 1 MiB — a body
/// claiming gigabytes is not worth draining; those clients lose the
/// response to the reset, which is acceptable).
fn drain<R: std::io::Read>(reader: &mut R, declared: usize) {
    let mut remaining = declared.min(1 << 20);
    let mut scratch = [0u8; 8192];
    while remaining > 0 {
        let want = remaining.min(scratch.len());
        match reader.read(&mut scratch[..want]) {
            Ok(0) | Err(_) => return,
            Ok(n) => remaining -= n,
        }
    }
}

fn record_request(state: &ServerState, endpoint: &str, status: u16, watch: &Stopwatch) {
    let status = status.to_string();
    state.sink.add_labeled(
        names::SERVE_REQUESTS_TOTAL,
        &[("endpoint", endpoint), ("status", status.as_str())],
        Unit::Count,
        1,
    );
    state.sink.observe_labeled(
        names::SERVE_REQUEST_NS,
        &[("endpoint", endpoint)],
        Unit::Nanos,
        watch.elapsed_ns(),
    );
}

/// Dispatches one request; returns the endpoint label (for metrics),
/// the response, and — for gated routes — the in-flight permit, which
/// the caller holds until the response bytes are written. Each path
/// names its endpoint once; a known endpoint with the wrong method is
/// `405`, an unknown path `404`.
fn route<'a>(
    req: &Request,
    state: &'a ServerState,
) -> (&'static str, Response, Option<InflightPermit<'a>>) {
    let endpoint = match req.path.as_str() {
        "/healthz" => "healthz",
        "/metrics" => "metrics",
        "/v1/models" => "models",
        "/v1/sample" => "sample",
        "/v1/fit" => "fit",
        path if path.starts_with("/v1/models/") => "delete",
        path => {
            let response = Response::error(404, &format!("no route for {path}"), &[]);
            return ("other", response, None);
        }
    };
    let (response, permit) = match (req.method.as_str(), endpoint) {
        ("GET", "healthz") => (Response::text(200, "ok\n".into()), None),
        ("GET", "metrics") => (
            Response::text(200, state.metrics.snapshot().to_prometheus()),
            None,
        ),
        ("GET", "models") => (handle_models(state), None),
        ("POST", "sample") => gated(state, endpoint, &state.sample_gate, || {
            handle_sample(req, state).unwrap_or_else(|refusal| refusal)
        }),
        ("POST", "fit") => gated(state, endpoint, &state.fit_gate, || {
            handle_fit(req, state).unwrap_or_else(|refusal| refusal)
        }),
        ("DELETE", "delete") => (handle_delete(&req.path["/v1/models/".len()..], state), None),
        (method, _) => (
            Response::error(405, &format!("method {method} not allowed"), &[]),
            None,
        ),
    };
    (endpoint, response, permit)
}

/// Runs `f` under a route's in-flight gate, or sheds with `503` +
/// `Retry-After` when the gate is full. On admission the permit is
/// returned alongside the response so the slot stays occupied through
/// response delivery, not just handler execution.
fn gated<'a, F: FnOnce() -> Response>(
    state: &ServerState,
    route: &'static str,
    gate: &'a InflightGate,
    f: F,
) -> (Response, Option<InflightPermit<'a>>) {
    match gate.try_acquire() {
        Some(permit) => (f(), Some(permit)),
        None => {
            state.sink.add_labeled(
                names::SERVER_SHED_TOTAL,
                &[("route", route)],
                Unit::Count,
                1,
            );
            (
                Response::error(
                    503,
                    &format!("`{route}` at capacity: {} requests in flight", gate.cap),
                    &[],
                )
                .with_header("Retry-After", "1"),
                None,
            )
        }
    }
}

fn handle_delete(id: &str, state: &ServerState) -> Response {
    match state.registry.delete(id) {
        Ok(()) => Response::json(200, format!("{{\"deleted\":{}}}\n", quote(id))),
        Err(e) => registry_error_response(&e),
    }
}

fn handle_models(state: &ServerState) -> Response {
    let listing = match state.registry.list() {
        Ok(l) => l,
        Err(e) => return Response::error(500, &e.to_string(), &[]),
    };
    let mut body = String::from("{\"models\":[");
    for (i, m) in listing.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        // 64-bit checksums exceed JSON's exact-integer range; hex string.
        body.push_str(&format!(
            "{{\"id\":{},\"bytes\":{},\"checksum\":\"{:016x}\",\"cached\":{}",
            quote(&m.id),
            m.bytes,
            m.checksum,
            m.cached
        ));
        if let Some(err) = &m.error {
            body.push_str(&format!(",\"error\":{}", quote(err)));
        }
        body.push('}');
    }
    body.push_str("]}\n");
    Response::json(200, body)
}

/// Parses the request body as a JSON object, or explains why not.
fn parse_body(req: &Request) -> Result<Json, Response> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| Response::error(400, "request body is not utf-8", &[]))?;
    match Json::parse(text) {
        Ok(doc @ Json::Obj(_)) => Ok(doc),
        Ok(_) => Err(Response::error(
            400,
            "request body must be a JSON object",
            &[],
        )),
        Err(e) => Err(Response::error(
            400,
            &format!("invalid JSON body: {e}"),
            &[],
        )),
    }
}

fn registry_error_response(e: &RegistryError) -> Response {
    let status = match e {
        RegistryError::InvalidModelId { .. } => 400,
        RegistryError::UnknownModel { .. } => 404,
        RegistryError::Corrupt { .. } | RegistryError::Io { .. } => 500,
    };
    Response::error(status, &e.to_string(), &[])
}

/// The sample route: the window `[offset, offset + rows)` of a registry
/// model as a body of blocks — the CSV header line or the JSON head, one
/// block per chunk of rows, encoded by the chunk's own task on the
/// worker that drew it (`FittedModel::try_sample_blocks`), then the JSON
/// tail. The CSV is the exact bytes `datagen::io::write_csv` emits.
fn handle_sample(req: &Request, state: &ServerState) -> Result<Response, Response> {
    let doc = parse_body(req)?;
    let Some(model_id) = doc.get("model").and_then(Json::as_str) else {
        return Err(bad_request("missing required string field `model`".into()));
    };
    let Some(rows) = doc.get("rows").and_then(Json::as_u64) else {
        return Err(bad_request("missing required integer field `rows`".into()));
    };
    let offset = match doc.get("offset") {
        None => 0,
        Some(v) => v
            .as_u64()
            .ok_or_else(|| bad_request("`offset` must be a non-negative integer".into()))?,
    };
    if rows as usize > state.config.max_rows {
        let cap = state.config.max_rows;
        return Err(bad_request(format!(
            "`rows` {rows} exceeds the per-request cap {cap}"
        )));
    }
    let profile = match one_of(&doc, "profile", ["reference", "fast"])? {
        "fast" => SamplingProfile::Fast,
        _ => SamplingProfile::Reference,
    };
    let json = one_of(&doc, "format", ["csv", "json"])? == "json";
    let model = state
        .registry
        .get(model_id)
        .map_err(|e| registry_error_response(&e))?;
    let attributes: Vec<datagen::Attribute> = model
        .artifact()
        .schema
        .iter()
        .map(|a| datagen::Attribute::new(a.name.clone(), a.domain))
        .collect();
    let (offset, rows, workers) = (offset as usize, rows as usize, state.config.sample_workers);
    let window = model.try_sample_blocks(profile, offset, rows, workers, |i, columns| {
        let mut block = Vec::new();
        let encoded = if json {
            datagen::io::encode_json_rows(&mut block, &attributes, &columns, i == 0)
        } else {
            datagen::io::encode_csv_rows(&mut block, &attributes, &columns)
        };
        encoded.map(|()| block)
    });
    let blocks = match window {
        Ok(blocks) => blocks.into_iter().collect::<std::io::Result<Vec<_>>>(),
        Err(e @ DpCopulaError::RowWindowOverflow { .. }) => return Err(bad_request(e.to_string())),
        Err(e) => return Err(Response::error(500, &e.to_string(), &[])),
    };
    let mut body = blocks.map_err(|e| Response::error(500, &format!("encoding rows: {e}"), &[]))?;
    if json {
        let names: Vec<String> = attributes.iter().map(|a| quote(&a.name)).collect();
        body.insert(
            0,
            format!("{{\"columns\":[{}],\"rows\":[", names.join(",")).into(),
        );
        body.push(b"]}\n".to_vec());
        Ok(Response::blocks(200, "application/json", body))
    } else {
        body.insert(0, datagen::io::csv_header(&attributes));
        Ok(Response::blocks(200, "text/csv", body))
    }
}

/// The optional string field `name` of `doc`, which must be one of
/// `options`; absent, it is the first.
fn one_of<'a>(doc: &'a Json, name: &str, options: [&'a str; 2]) -> Result<&'a str, Response> {
    match doc.get(name).map(Json::as_str) {
        None => Ok(options[0]),
        Some(Some(v)) if options.contains(&v) => Ok(v),
        Some(other) => Err(bad_request(format!(
            "`{name}` must be \"{}\" or \"{}\", got {:?}",
            options[0],
            options[1],
            other.unwrap_or("<non-string>")
        ))),
    }
}

/// The fit route, for both request shapes: the JSON envelope (CSV
/// embedded as a string field), and a raw `text/csv` body — in memory
/// under the cap, spooled to disk above it — with the fit parameters in
/// the query string. Every parameter and CSV check, and the
/// per-mechanism budget floor, runs before the tenant is debited, so a
/// malformed request costs no ε.
fn handle_fit(req: &Request, state: &ServerState) -> Result<Response, Response> {
    let envelope;
    let (params, input) = if req.is_csv() {
        let params = fit_params("query parameter", |name| {
            query_param(&req.query, name).map(Param::Text)
        })?;
        let input = match &req.spooled {
            None => FitInput::Resident(datagen::io::read_csv(&req.body[..]).map_err(invalid_csv)?),
            Some(spooled) => spooled_source(spooled.path())?,
        };
        (params, input)
    } else {
        envelope = parse_body(req)?;
        let params = fit_params("field", |name| envelope.get(name).map(Param::Json))?;
        let Some(csv) = envelope.get("csv").and_then(Json::as_str) else {
            return Err(bad_request("missing required string field `csv`".into()));
        };
        let dataset = datagen::io::read_csv(csv.as_bytes()).map_err(invalid_csv)?;
        (params, FitInput::Resident(dataset))
    };

    let mut config = DpCopulaConfig::kendall(params.epsilon);
    if let Some(k) = params.k_ratio {
        config = config.with_k_ratio(k);
    }
    let attributes = match &input {
        FitInput::Resident(dataset) => dataset.attributes().len(),
        FitInput::Spooled { source, .. } => source.attributes().len(),
    };
    validate_budget(config.epsilon, config.k_ratio, attributes)
        .map_err(|e| bad_request(e.to_string()))?;
    admit_tenant(state, params.tenant, params.epsilon)?;
    let domains;
    let (request, rows, names) = match input {
        FitInput::Resident(ref dataset) => {
            domains = dataset.domains();
            let names: Vec<&str> = dataset
                .attributes()
                .iter()
                .map(|a| a.name.as_str())
                .collect();
            let request = SynthesisRequest::from_config(dataset.columns(), &domains, config);
            (request, dataset.len(), Some(names))
        }
        // The streaming fit names the schema from the CSV header itself.
        FitInput::Spooled { source, rows } => (
            SynthesisRequest::from_source_config(source, config),
            rows,
            None,
        ),
    };
    let (mut model, _report) = request
        .seed(params.seed)
        .metrics(state.sink.clone())
        .fit()
        .map_err(|e| bad_request(format!("fit failed: {e}")))?;
    if let Some(names) = names {
        model.set_attribute_names(&names);
    }
    Ok(respond_fitted(state, params.id, params.tenant, model, rows))
}

fn bad_request(reason: String) -> Response {
    Response::error(400, &reason, &[])
}

fn invalid_csv(e: impl std::fmt::Display) -> Response {
    bad_request(format!("invalid csv body: {e}"))
}

/// The training rows of one fit.
enum FitInput {
    /// Parsed into memory, fitted eagerly.
    Resident(datagen::Dataset),
    /// A spooled body, validated and counted, rewound for the streaming
    /// fit.
    Spooled {
        source: datagen::CsvFileSource,
        rows: usize,
    },
}

/// Streams a spooled body once to validate it and count rows — a
/// malformed body must cost the tenant no ε, same as a resident one —
/// then rewinds it for the out-of-core fit.
fn spooled_source(path: &std::path::Path) -> Result<FitInput, Response> {
    let mut source = datagen::CsvFileSource::open(path).map_err(invalid_csv)?;
    let mut rows = 0usize;
    while let Some(block) = source.next_block().map_err(invalid_csv)? {
        rows += block.rows();
    }
    source
        .rewind()
        .map_err(|e| Response::error(500, &format!("rewinding spooled body: {e}"), &[]))?;
    Ok(FitInput::Spooled { source, rows })
}

/// One fit parameter as sent: a JSON envelope field or a query-string
/// value.
#[derive(Clone, Copy)]
enum Param<'a> {
    Json(&'a Json),
    Text(&'a str),
}

impl<'a> Param<'a> {
    fn as_str(self) -> Option<&'a str> {
        match self {
            Param::Json(v) => v.as_str(),
            Param::Text(t) => Some(t),
        }
    }

    fn as_f64(self) -> Option<f64> {
        match self {
            Param::Json(v) => v.as_f64(),
            Param::Text(t) => t.parse().ok(),
        }
    }

    fn as_u64(self) -> Option<u64> {
        match self {
            Param::Json(v) => v.as_u64(),
            Param::Text(t) => t.parse().ok(),
        }
    }
}

/// The validated parameters of one fit.
struct FitParams<'a> {
    id: &'a str,
    epsilon: Epsilon,
    tenant: &'a str,
    seed: u64,
    k_ratio: Option<f64>,
}

/// Reads and validates the fit parameters through `get`, for either
/// request shape; `noun` ("field" or "query parameter") is the only
/// word in which the two shapes' refusals differ.
fn fit_params<'a>(
    noun: &str,
    get: impl Fn(&str) -> Option<Param<'a>>,
) -> Result<FitParams<'a>, Response> {
    let missing = |name: &str| bad_request(format!("missing required {noun} `{name}`"));
    let id = param(&get, "id", "a string", Param::as_str)?.ok_or_else(|| missing("id"))?;
    if !valid_model_id(id) {
        return Err(bad_request(format!(
            "invalid model id `{id}`: expected [A-Za-z0-9_-]+"
        )));
    }
    let eps_value =
        param(&get, "epsilon", "a number", Param::as_f64)?.ok_or_else(|| missing("epsilon"))?;
    let tenant = param(&get, "tenant", "a string", Param::as_str)?.unwrap_or(DEFAULT_TENANT);
    let seed = param(&get, "seed", "a non-negative integer", Param::as_u64)?.unwrap_or(0);
    let k_ratio = param(&get, "k", "a positive number", |k| {
        k.as_f64().filter(|k| k.is_finite() && *k > 0.0)
    })?;
    let epsilon = Epsilon::new(eps_value).map_err(|e| bad_request(e.to_string()))?;
    Ok(FitParams {
        id,
        epsilon,
        tenant,
        seed,
        k_ratio,
    })
}

/// One fit parameter through `get`: `Ok(None)` when absent, a 400
/// naming the expected form when sent but malformed.
fn param<'a, T>(
    get: &impl Fn(&str) -> Option<Param<'a>>,
    name: &str,
    must_be: &str,
    value: impl FnOnce(Param<'a>) -> Option<T>,
) -> Result<Option<T>, Response> {
    get(name)
        .map(|v| value(v).ok_or_else(|| bad_request(format!("`{name}` must be {must_be}"))))
        .transpose()
}

/// One `key=value` out of a query string. Fit parameters are plain
/// identifiers and numbers, so no percent-decoding is applied.
fn query_param<'a>(query: &'a str, name: &str) -> Option<&'a str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == name).then_some(v)
    })
}

/// Debits `tenant` before fitting, or renders the refusal. The debit is
/// kept even if the fit fails — a pipeline that dies halfway may
/// already have released noisy margins.
fn admit_tenant(state: &ServerState, tenant: &str, epsilon: Epsilon) -> Result<(), Response> {
    state.gate.admit(tenant, epsilon).map_err(|e| match e {
        GateError::UnknownTenant { .. } => Response::error(403, &e.to_string(), &[]),
        GateError::Exhausted { remaining_neps, .. } => {
            state.sink.add_labeled(
                names::BUDGET_REJECTIONS_TOTAL,
                &[("tenant", tenant)],
                Unit::Count,
                1,
            );
            Response::error(
                429,
                &e.to_string(),
                &[format!("\"remaining_eps\":{}", remaining_neps as f64 / 1e9)],
            )
        }
    })
}

/// Persists the fitted model, registers it, and renders the fit
/// response.
fn respond_fitted(
    state: &ServerState,
    id: &str,
    tenant: &str,
    model: dpcopula::FittedModel,
    rows: usize,
) -> Response {
    // One encode serves the file, the response checksum and the cache
    // entry (`FittedModel::save` plus `checksum()` would encode twice).
    let bytes = model.artifact().encode();
    let path = state.registry.path_for(id);
    if let Err(e) = modelstore::write_atomic(&path, &bytes) {
        return Response::error(500, &format!("writing {}: {e}", path.display()), &[]);
    }
    let checksum = fnv1a64(&bytes);
    let spent = model.artifact().ledger.spent();
    let attributes = model.dims();
    state.registry.insert_written(id, bytes, Arc::new(model));

    let remaining = state
        .gate
        .remaining_neps(tenant)
        .map_or(0.0, |n| n as f64 / 1e9);
    Response::json(
        200,
        format!(
            "{{\"id\":{},\"checksum\":\"{checksum:016x}\",\"epsilon_spent\":{},\"remaining_eps\":{},\"rows\":{},\"attributes\":{}}}\n",
            quote(id),
            spent,
            remaining,
            rows,
            attributes,
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_validates_config_with_named_errors() {
        let bad_addr = ServeConfig {
            addr: "not-an-address".into(),
            model_dir: std::env::temp_dir(),
            ..ServeConfig::default()
        };
        assert!(matches!(
            Server::bind(bad_addr),
            Err(ServeError::BadAddr { .. })
        ));

        let bad_dir = ServeConfig {
            addr: "127.0.0.1:0".into(),
            model_dir: PathBuf::from("/no/such/model/dir"),
            ..ServeConfig::default()
        };
        assert!(matches!(
            Server::bind(bad_dir),
            Err(ServeError::ModelDirMissing { .. })
        ));

        let bad_eps = ServeConfig {
            addr: "127.0.0.1:0".into(),
            model_dir: std::env::temp_dir(),
            default_epsilon: -1.0,
            ..ServeConfig::default()
        };
        assert!(matches!(
            Server::bind(bad_eps),
            Err(ServeError::BadEpsilon(_))
        ));
    }

    #[test]
    fn bind_on_port_zero_reports_the_real_port() {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            model_dir: std::env::temp_dir(),
            ..ServeConfig::default()
        })
        .unwrap();
        assert_ne!(server.local_addr().unwrap().port(), 0);
    }
}
