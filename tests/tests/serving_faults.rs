//! Fault-injection tests of the `dpcopula-serve` daemon: every fault
//! `faultline` can inject maps to a pinned status code and metrics
//! delta, and none of them leak a pool worker.
//!
//! Layout per test: a real server on an ephemeral port (usually with
//! `pool_workers = 1`, so a leaked worker turns into a hang the next
//! request would expose), a [`faultline::FaultProxy`] in front of it
//! where the fault shapes the request bytes, and `/metrics` scraped
//! before and after to pin the exact counter movement.

use dpcopula_serve::{ModelRegistry, RegistryError, ServeConfig, Server, ShutdownHandle};
use faultline::{flood, send_request, Fault, FaultProxy, HttpReply};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// One running daemon over a temp model dir, torn down on drop.
struct TestServer {
    addr: SocketAddr,
    handle: ShutdownHandle,
    model_dir: PathBuf,
    join: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    fn start(tag: &str, configure: impl FnOnce(&mut ServeConfig)) -> Self {
        let model_dir =
            std::env::temp_dir().join(format!("dpcopula-faults-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&model_dir);
        std::fs::create_dir_all(&model_dir).unwrap();
        let mut config = ServeConfig {
            addr: "127.0.0.1:0".into(),
            model_dir: model_dir.clone(),
            ..ServeConfig::default()
        };
        configure(&mut config);
        let server = Server::bind(config).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle().unwrap();
        let join = std::thread::spawn(move || server.run().unwrap());
        Self {
            addr,
            handle,
            model_dir,
            join: Some(join),
        }
    }

    fn metrics(&self) -> String {
        let reply = send_request(
            self.addr,
            b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
        assert_eq!(reply.status, 200);
        String::from_utf8(reply.body).unwrap()
    }

    /// The current value of one rendered metric line, 0 when absent.
    fn metric(&self, line_prefix: &str) -> u64 {
        self.metrics()
            .lines()
            .find(|l| l.starts_with(line_prefix) && l[line_prefix.len()..].starts_with(' '))
            .and_then(|l| l.rsplit(' ').next()?.parse().ok())
            .unwrap_or(0)
    }

    fn healthy(&self) {
        let reply = send_request(
            self.addr,
            b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body, b"ok\n");
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
        let _ = std::fs::remove_dir_all(&self.model_dir);
    }
}

/// Escapes `s` into a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn training_csv() -> String {
    let mut csv = String::from("age:5,income:4,region:3\n");
    for i in 0..80u32 {
        csv.push_str(&format!("{},{},{}\n", i % 5, (i / 3) % 4, (i * 7) % 3));
    }
    csv
}

/// Frames `body` as a `POST path` request with explicit close.
fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Fits a model over HTTP and asserts success.
fn fit_model(server: &TestServer, id: &str, seed: u64) {
    let body = format!(
        "{{\"id\":\"{id}\",\"epsilon\":1.0,\"seed\":{seed},\"csv\":{}}}",
        json_str(&training_csv())
    );
    let reply = send_request(server.addr, &post("/v1/fit", &body)).unwrap();
    assert_eq!(
        reply.status,
        200,
        "fit failed: {}",
        String::from_utf8_lossy(&reply.body)
    );
}

#[test]
fn slowloris_head_gets_408_and_does_not_pin_the_worker() {
    let server = TestServer::start("slowloris", |c| {
        c.pool_workers = 1; // a leaked worker would hang the follow-up
        c.read_timeout = Duration::from_millis(80);
        c.head_timeout = Duration::from_millis(120);
    });
    let proxy = FaultProxy::start(
        server.addr,
        vec![Fault::Throttle {
            chunk: 2,
            pause: Duration::from_millis(25),
        }],
    )
    .unwrap();
    // ~27 chunks * 25ms ≈ 700ms of trickling against a 120ms head
    // deadline: the server must cut it off with a named 408.
    let reply = send_request(
        proxy.addr(),
        b"GET /healthz HTTP/1.1\r\nHost: somewhere-slow\r\n\r\n",
    )
    .unwrap();
    assert_eq!(reply.status, 408);
    let body = String::from_utf8(reply.body).unwrap();
    assert!(body.contains("request head timed out"), "{body}");
    assert_eq!(server.metric("serve_timeouts_total{phase=\"head\"}"), 1);
    assert_eq!(server.metric("serve_timeouts_total{phase=\"body\"}"), 0);
    // The single worker is free again: a normal request answers.
    server.healthy();
}

#[test]
fn an_idle_keep_alive_wait_does_not_count_against_the_head_deadline() {
    let server = TestServer::start("idlehead", |c| {
        c.read_timeout = Duration::from_millis(700);
        c.head_timeout = Duration::from_millis(800);
    });
    // Idle on the open connection, then send the head in two parts.
    // Each gap is under the read timeout and the head itself takes
    // 450 ms of its 800 ms deadline; only the idle wait and the head
    // together would exceed it.
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream.set_nodelay(true).unwrap();
    std::thread::sleep(Duration::from_millis(450));
    stream.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(450));
    stream
        .write_all(b"Host: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let reply = HttpReply::read_from(&mut BufReader::new(stream)).unwrap();
    assert_eq!(
        reply.status,
        200,
        "{}",
        String::from_utf8_lossy(&reply.body)
    );
    assert_eq!(server.metric("serve_timeouts_total{phase=\"head\"}"), 0);
}

#[test]
fn the_request_clock_skips_the_idle_wait_between_keep_alive_requests() {
    let server = TestServer::start("idleclock", |_| {});
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for pause in [0, 200] {
        std::thread::sleep(Duration::from_millis(pause));
        stream
            .write_all(b"GET /v1/models HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        assert_eq!(HttpReply::read_from(&mut reader).unwrap().status, 200);
    }
    // The daemon records a request after writing its response, so the
    // second one may reach /metrics a moment after its reply.
    let count = "serve_request_ns_count{endpoint=\"models\"}";
    for _ in 0..400 {
        if server.metric(count) == 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.metric(count), 2);
    // Both answers take microseconds: a sum near 200 ms would be the
    // client's pause, not the daemon's work.
    let sum_ns = server.metric("serve_request_ns_sum{endpoint=\"models\"}");
    assert!(sum_ns < 50_000_000, "serve_request_ns_sum = {sum_ns} ns");
}

#[test]
fn stalled_body_gets_408_in_the_body_phase() {
    let server = TestServer::start("bodystall", |c| {
        c.pool_workers = 1;
        c.read_timeout = Duration::from_millis(80);
        c.body_timeout = Duration::from_millis(200);
    });
    let request = post("/v1/sample", "{\"model\":\"x\",\"rows\":1}");
    // The head (everything up to the blank line) arrives instantly;
    // the body then goes silent for longer than the socket timeout.
    let head_len = request.len() - "{\"model\":\"x\",\"rows\":1}".len();
    let proxy = FaultProxy::start(
        server.addr,
        vec![Fault::StallAfter {
            bytes: head_len,
            pause: Duration::from_millis(400),
        }],
    )
    .unwrap();
    let reply = send_request(proxy.addr(), &request).unwrap();
    assert_eq!(reply.status, 408);
    let body = String::from_utf8(reply.body).unwrap();
    assert!(body.contains("request body timed out"), "{body}");
    assert_eq!(server.metric("serve_timeouts_total{phase=\"body\"}"), 1);
    assert_eq!(server.metric("serve_timeouts_total{phase=\"head\"}"), 0);
    server.healthy();
}

#[test]
fn mid_body_disconnect_is_a_counted_400_and_the_daemon_survives() {
    let server = TestServer::start("midbody", |c| {
        c.pool_workers = 1;
        c.read_timeout = Duration::from_millis(200);
    });
    let request = post("/v1/sample", "{\"model\":\"x\",\"rows\":1}");
    let head_len = request.len() - "{\"model\":\"x\",\"rows\":1}".len();
    // Cut 8 bytes into the declared body: the server sees EOF before
    // Content-Length is satisfied — a truncated body, not a timeout.
    let proxy = FaultProxy::start(
        server.addr,
        vec![Fault::CutAfter {
            bytes: head_len + 8,
        }],
    )
    .unwrap();
    let err = send_request(proxy.addr(), &request).unwrap_err();
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::UnexpectedEof
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::BrokenPipe
        ),
        "client should see the cut, got {:?}",
        err.kind()
    );
    // The undeliverable 400 is still typed and counted.
    let mut seen = false;
    for _ in 0..400 {
        if server.metric("serve_requests_total{endpoint=\"other\",status=\"400\"}") == 1 {
            seen = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(seen, "truncated-body 400 never reached /metrics");
    assert_eq!(server.metric("serve_timeouts_total{phase=\"body\"}"), 0);
    server.healthy();
}

#[test]
fn split_writes_reassemble_to_a_byte_identical_response() {
    let server = TestServer::start("splitwrites", |c| {
        c.pool_workers = 2;
    });
    fit_model(&server, "census", 42);
    let request = post(
        "/v1/sample",
        "{\"model\":\"census\",\"offset\":100,\"rows\":64}",
    );
    let direct = send_request(server.addr, &request).unwrap();
    assert_eq!(direct.status, 200);
    // The same request dripped 3 bytes per TCP write must reassemble
    // to the same parse and the same sampled bytes.
    let proxy = FaultProxy::start(server.addr, vec![Fault::SplitWrites { chunk: 3 }]).unwrap();
    let split = send_request(proxy.addr(), &request).unwrap();
    assert_eq!(split.status, 200);
    assert_eq!(split.body, direct.body);
    // And both match in-process sampling of the saved artifact.
    let model = dpcopula::FittedModel::load(server.model_dir.join("census.dpcm")).unwrap();
    let columns = model
        .try_sample_range_profiled(dpcopula::SamplingProfile::Reference, 100, 64, 1)
        .unwrap();
    let attributes: Vec<datagen::Attribute> = model
        .artifact()
        .schema
        .iter()
        .map(|a| datagen::Attribute::new(a.name.clone(), a.domain))
        .collect();
    let mut in_process = Vec::new();
    datagen::io::write_csv(&datagen::Dataset::new(attributes, columns), &mut in_process).unwrap();
    assert_eq!(split.body, in_process);
}

#[test]
fn connection_flood_past_the_cap_sheds_503_with_retry_after() {
    let server = TestServer::start("connflood", |c| {
        c.pool_workers = 2;
        c.max_connections = 2;
        c.read_timeout = Duration::from_secs(2);
        c.head_timeout = Duration::from_secs(2);
    });
    // Pin both admitted slots with half-sent requests. The two pinned
    // connections are dispatched in accept order, so by the time the
    // third connects the pool's pending count is 2 — the shed is
    // deterministic, not a scheduling accident.
    let mut pinned: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut s = TcpStream::connect(server.addr).unwrap();
            s.write_all(b"GET /healthz HTT").unwrap();
            s.flush().unwrap();
            s
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));

    let reply = send_request(
        server.addr,
        b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    assert_eq!(reply.status, 503);
    assert_eq!(reply.header("retry-after"), Some("1"));
    assert!(String::from_utf8_lossy(&reply.body).contains("connection capacity"));

    // Finish the pinned requests: both slots drain and service resumes.
    for s in &mut pinned {
        s.write_all(b"P/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        assert!(
            String::from_utf8_lossy(&out).starts_with("HTTP/1.1 200 OK"),
            "pinned connection should complete normally"
        );
    }
    // Only now is the pool drained enough to admit the scrape itself.
    assert!(server.metric("server_shed_total{route=\"connection\"}") > 0);
    server.healthy();
}

#[test]
fn seeded_route_flood_sheds_deterministically_while_one_sample_holds_the_gate() {
    let server = TestServer::start("routeflood", |c| {
        c.pool_workers = 8;
        c.max_inflight = 1; // sample gate: one in flight
    });
    fit_model(&server, "census", 7);

    // Occupy the sample gate deterministically: ask for a CSV far
    // larger than the socket buffers and do not read it. The handler
    // blocks inside the response write — gate held — until we drain.
    let big = post("/v1/sample", "{\"model\":\"census\",\"rows\":2000000}");
    let mut holder = TcpStream::connect(server.addr).unwrap();
    holder.write_all(&big).unwrap();
    holder.flush().unwrap();
    // The first response byte proves the handler is in its write (and
    // therefore holds the gate).
    let mut first = [0u8; 1];
    holder.peek(&mut first).unwrap();

    // A seeded flood of small samples: with the gate held, every one
    // of them must shed — same statuses for the same base seed.
    let shed_before = server.metric("server_shed_total{route=\"sample\"}");
    let replies = flood(
        server.addr,
        0xD5C0_9A11,
        4,
        5,
        &post("/v1/sample", "{\"model\":\"census\",\"rows\":8}"),
    );
    for reply in &replies {
        let reply = reply.as_ref().expect("shed replies are still delivered");
        assert_eq!(reply.status, 503);
        assert_eq!(reply.header("retry-after"), Some("1"));
        assert!(String::from_utf8_lossy(&reply.body).contains("`sample` at capacity"));
    }
    assert_eq!(
        server.metric("server_shed_total{route=\"sample\"}"),
        shed_before + 4,
        "exactly the flooded requests shed"
    );

    // Drain the held response: the admitted request completes intact.
    let mut raw = Vec::new();
    holder.read_to_end(&mut raw).unwrap();
    let text_head = String::from_utf8_lossy(&raw[..64.min(raw.len())]);
    assert!(text_head.starts_with("HTTP/1.1 200 OK"), "{text_head}");
    let newlines = raw.iter().filter(|&&b| b == b'\n').count();
    // Head lines + CSV header + 2_000_000 rows.
    assert!(newlines > 2_000_000, "admitted sample truncated");

    // Gate released: small samples are admitted again.
    let reply = send_request(
        server.addr,
        &post("/v1/sample", "{\"model\":\"census\",\"rows\":8}"),
    )
    .unwrap();
    assert_eq!(reply.status, 200);
}

#[test]
fn delete_while_sampling_finishes_the_sample_and_404s_afterwards() {
    let server = TestServer::start("delete", |c| {
        c.pool_workers = 4;
    });
    fit_model(&server, "victim", 11);

    // Start a long sample, then delete the model while it runs. The
    // in-flight sample holds its own Arc and must finish complete.
    let sample = post("/v1/sample", "{\"model\":\"victim\",\"rows\":400000}");
    let addr = server.addr;
    let sampler = std::thread::spawn(move || send_request(addr, &sample).unwrap());
    std::thread::sleep(Duration::from_millis(15));
    let reply = send_request(
        server.addr,
        b"DELETE /v1/models/victim HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    assert_eq!(
        reply.status,
        200,
        "{}",
        String::from_utf8_lossy(&reply.body)
    );
    assert!(String::from_utf8_lossy(&reply.body).contains("\"deleted\":\"victim\""));

    let sampled = sampler.join().unwrap();
    assert_eq!(sampled.status, 200);
    assert_eq!(
        sampled.body.iter().filter(|&&b| b == b'\n').count(),
        400_001,
        "in-flight sample must deliver every row"
    );

    // Afterwards: artifact gone, 404 on sample and on re-delete,
    // exactly one delete counted.
    assert!(!server.model_dir.join("victim.dpcm").exists());
    let reply = send_request(
        server.addr,
        &post("/v1/sample", "{\"model\":\"victim\",\"rows\":1}"),
    )
    .unwrap();
    assert_eq!(reply.status, 404);
    let reply = send_request(
        server.addr,
        b"DELETE /v1/models/victim HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    assert_eq!(reply.status, 404);
    let reply = send_request(
        server.addr,
        b"GET /v1/models/victim HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    assert_eq!(reply.status, 405, "only DELETE is routed under /v1/models/");
    assert_eq!(server.metric("registry_deletes_total"), 1);
    assert_eq!(
        server.metric("serve_requests_total{endpoint=\"delete\",status=\"200\"}"),
        1
    );
    server.healthy();
}

#[test]
fn concurrent_gets_decode_once_and_a_racing_delete_converges() {
    let dir = std::env::temp_dir().join(format!("dpcopula-faults-registry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = Arc::new(obskit::MetricsRegistry::new());
    let sink = obskit::MetricsSink::to_registry(Arc::clone(&metrics));
    let registry = Arc::new(ModelRegistry::new(&dir, 4, sink));

    // Fit one small artifact directly.
    let columns = vec![
        (0..40u32).map(|i| i % 4).collect::<Vec<u32>>(),
        (0..40u32).map(|i| (i / 2) % 3).collect(),
    ];
    let (model, _) =
        dpcopula::SynthesisRequest::new(&columns, &[4usize, 3], dpmech::Epsilon::new(2.0).unwrap())
            .seed(1)
            .fit()
            .unwrap();
    model.save(registry.path_for("m")).unwrap();

    let loads = |m: &obskit::MetricsRegistry| {
        m.snapshot()
            .get("modelstore_loads_total")
            .and_then(|e| e.value.as_u64())
            .unwrap_or(0)
    };

    // Phase 1 — two cold gets race: single-flight means one decode.
    let barrier = Arc::new(Barrier::new(2));
    let racers: Vec<_> = (0..2)
        .map(|_| {
            let registry = Arc::clone(&registry);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                registry.get("m").expect("artifact is on disk")
            })
        })
        .collect();
    for r in racers {
        r.join().expect("no panic in concurrent get");
    }
    assert_eq!(loads(&metrics), 1, "exactly one decode for two cold gets");

    // Phase 2 — two hot-loading threads race a deleting third. Any
    // interleaving is legal per call (a get sees the model or a 404),
    // but nothing may panic and the registry must converge to absent.
    let barrier = Arc::new(Barrier::new(3));
    let panics = Arc::new(AtomicUsize::new(0));
    let mut workers = Vec::new();
    for _ in 0..2 {
        let registry = Arc::clone(&registry);
        let barrier = Arc::clone(&barrier);
        workers.push(std::thread::spawn(move || {
            barrier.wait();
            for _ in 0..50 {
                match registry.get("m") {
                    Ok(_) | Err(RegistryError::UnknownModel { .. }) => {}
                    Err(other) => panic!("unexpected registry error: {other}"),
                }
            }
        }));
    }
    {
        let registry = Arc::clone(&registry);
        let barrier = Arc::clone(&barrier);
        workers.push(std::thread::spawn(move || {
            barrier.wait();
            match registry.delete("m") {
                Ok(()) | Err(RegistryError::UnknownModel { .. }) => {}
                Err(other) => panic!("unexpected delete error: {other}"),
            }
        }));
    }
    for w in workers {
        if w.join().is_err() {
            panics.fetch_add(1, Ordering::SeqCst);
        }
    }
    assert_eq!(panics.load(Ordering::SeqCst), 0, "no panics under the race");

    // Deterministic final state: the file is gone, the next get says
    // so, and nothing stale stays cached.
    assert!(!registry.path_for("m").exists());
    assert!(matches!(
        registry.get("m"),
        Err(RegistryError::UnknownModel { .. })
    ));
    assert_eq!(registry.cached_models(), 0);
    // Decodes stay bounded: the initial one, plus at most a handful of
    // legitimate re-decodes while gets raced the eviction — never one
    // per get.
    assert!(loads(&metrics) <= 4, "decode storm: {}", loads(&metrics));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `BufReader`/`HttpReply` round-trip against the real daemon, kept
/// here so a faultline parser regression is caught by the serving tier
/// and not only by faultline's own unit tests.
#[test]
fn http_reply_parses_the_daemons_own_responses() {
    let server = TestServer::start("replyparse", |_| {});
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let reply = HttpReply::read_from(&mut BufReader::new(stream)).unwrap();
    assert_eq!(reply.status, 200);
    assert_eq!(
        reply.header("content-type"),
        Some("text/plain; charset=utf-8")
    );
    assert_eq!(reply.body, b"ok\n");
}
