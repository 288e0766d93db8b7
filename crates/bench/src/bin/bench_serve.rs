//! Emits `BENCH_serve.json`: load-test of the `dpcopula-serve` daemon —
//! closed-loop clients hammering `POST /v1/sample` over keep-alive
//! connections against an in-process server, reporting request latency
//! percentiles (p50/p95/p99) and end-to-end rows/s per client count.
//!
//! Doubles as the serving-overhead regression gate: the run exits
//! non-zero when the best HTTP throughput falls below
//! [`MIN_HTTP_EFFICIENCY`] of the in-process baseline (sampling the
//! same windows and CSV-encoding them without a socket). An absolute
//! rows/s floor would be a host-speed lottery; the ratio pins what the
//! daemon itself adds — framing, routing, registry lookup, metrics —
//! and fails CI if that overhead regresses.
//!
//! `QUICK=1` shrinks client/request counts for smoke runs and leaves
//! the committed `BENCH_serve.json` untouched.

use dpcopula_serve::{ServeConfig, Server};
use obskit::Stopwatch;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Regression gate: best end-to-end HTTP rows/s must be at least this
/// fraction of the in-process sample+encode baseline.
const MIN_HTTP_EFFICIENCY: f64 = 0.15;

fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// One keep-alive request/response cycle; returns the response body.
/// Panics unless the daemon answers 200 — for the load sections where
/// every request must be admitted.
fn roundtrip(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    path: &str,
    body: &[u8],
) -> Vec<u8> {
    let (status, body) = roundtrip_any(stream, reader, path, body);
    assert_eq!(status, 200, "bench requests must succeed");
    body
}

/// One keep-alive request/response cycle; returns status and body.
/// Tolerates non-200 answers — the overload section *expects* 503s.
fn roundtrip_any(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    path: &str,
    body: &[u8],
) -> (u16, Vec<u8>) {
    // Head and body in one write: a separate small head write trips
    // client-side Nagle against server-side delayed ACK (~40ms stalls).
    let mut request = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    stream.write_all(&request).expect("request");
    let mut content_length = 0usize;
    let mut status = 0u16;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response head line");
        let line = line.trim_end();
        if status == 0 {
            status = line
                .split(' ')
                .nth(1)
                .and_then(|s| s.parse().ok())
                .expect("status code");
        }
        if line.is_empty() {
            break;
        }
        if let Some(v) = line
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            content_length = v.parse().expect("content length");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("response body");
    (status, body)
}

fn sample_body(rows: usize, offset: usize) -> Vec<u8> {
    format!("{{\"model\":\"bench\",\"offset\":{offset},\"rows\":{rows}}}").into_bytes()
}

fn main() {
    let quick = std::env::var("QUICK").map(|v| v == "1").unwrap_or(false);
    let records = if quick { 5_000 } else { 50_000 };
    let rows_per_request = if quick { 500 } else { 2_000 };
    let requests_per_client = if quick { 8 } else { 50 };
    let client_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };

    // Stage: a temp model dir and an in-process daemon on an ephemeral
    // port, sized like the CI smoke config.
    let model_dir =
        std::env::temp_dir().join(format!("dpcopula-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&model_dir);
    std::fs::create_dir_all(&model_dir).expect("create model dir");
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        model_dir: model_dir.clone(),
        pool_workers: 4,
        ..ServeConfig::default()
    })
    .expect("bind bench server");
    let addr = server.local_addr().expect("local addr");
    let handle = server.shutdown_handle().expect("shutdown handle");
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));

    // Fit once over HTTP — the budgeted step, timed end to end.
    let data = datagen::census::us_census(records, 0xbead);
    let mut csv = Vec::new();
    datagen::io::write_csv(&data, &mut csv).expect("encode training csv");
    let csv = String::from_utf8(csv).expect("csv utf8");
    let fit = format!(
        "{{\"id\":\"bench\",\"epsilon\":1.0,\"seed\":7,\"csv\":\"{}\"}}",
        csv.replace('\n', "\\n")
    );
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let t0 = Stopwatch::start();
    roundtrip(&mut stream, &mut reader, "/v1/fit", fit.as_bytes());
    let fit_s = t0.elapsed().as_secs_f64();
    println!("fit over HTTP: {fit_s:.4}s ({records} records)");

    // In-process baseline: the same windows sampled and CSV-encoded
    // directly — everything the sample handler does minus the socket.
    let model = dpcopula::FittedModel::load(model_dir.join("bench.dpcm")).expect("load model");
    let attributes: Vec<datagen::Attribute> = model
        .artifact()
        .schema
        .iter()
        .map(|a| datagen::Attribute::new(a.name.clone(), a.domain))
        .collect();
    let baseline_requests = requests_per_client.min(20);
    let t0 = Stopwatch::start();
    for i in 0..baseline_requests {
        let cols = model
            .try_sample_range_profiled(
                dpcopula::SamplingProfile::Reference,
                i * rows_per_request,
                rows_per_request,
                1,
            )
            .expect("baseline window");
        let dataset = datagen::Dataset::new(attributes.clone(), cols);
        let mut bytes = Vec::new();
        datagen::io::write_csv(&dataset, &mut bytes).expect("baseline encode");
        assert!(!bytes.is_empty());
    }
    let inprocess_rows_per_s =
        (baseline_requests * rows_per_request) as f64 / t0.elapsed().as_secs_f64();
    println!("in-process baseline: {inprocess_rows_per_s:.0} rows/s");

    // Closed-loop load: each client thread issues sequential keep-alive
    // sample requests; latency is per-request wall clock.
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"serve_daemon\",");
    let _ = writeln!(
        out,
        "  \"config\": {{\"records\": {records}, \"rows_per_request\": {rows_per_request}, \
         \"requests_per_client\": {requests_per_client}, \"quick\": {quick}, \
         \"host_cores\": {}}},",
        std::thread::available_parallelism().map_or(1, |c| c.get())
    );
    let _ = writeln!(out, "  \"fit_http_s\": {fit_s:.6},");
    let _ = writeln!(
        out,
        "  \"inprocess_rows_per_s\": {inprocess_rows_per_s:.1},"
    );
    let _ = writeln!(out, "  \"runs\": [");
    let mut best_rows_per_s = 0.0f64;
    let mut loaded_p99_ms = 0.0f64;
    for (ci, &clients) in client_counts.iter().enumerate() {
        let wall = Stopwatch::start();
        let workers: Vec<std::thread::JoinHandle<Vec<f64>>> = (0..clients)
            .map(|c| {
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("client connect");
                    stream.set_nodelay(true).expect("client nodelay");
                    let mut reader =
                        BufReader::new(stream.try_clone().expect("clone client stream"));
                    let mut latencies = Vec::with_capacity(requests_per_client);
                    for r in 0..requests_per_client {
                        // Distinct windows per client: identical request
                        // streams would measure a degenerate cache.
                        let offset = (c * requests_per_client + r) * rows_per_request;
                        let body = sample_body(rows_per_request, offset);
                        let t = Stopwatch::start();
                        let reply = roundtrip(&mut stream, &mut reader, "/v1/sample", &body);
                        latencies.push(t.elapsed().as_secs_f64());
                        assert!(!reply.is_empty());
                    }
                    latencies
                })
            })
            .collect();
        let mut latencies: Vec<f64> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect();
        let wall_s = wall.elapsed().as_secs_f64();
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
        let total_rows = (clients * requests_per_client * rows_per_request) as f64;
        let rows_per_s = total_rows / wall_s;
        best_rows_per_s = best_rows_per_s.max(rows_per_s);
        let (p50, p95, p99) = (
            percentile(&latencies, 0.50) * 1e3,
            percentile(&latencies, 0.95) * 1e3,
            percentile(&latencies, 0.99) * 1e3,
        );
        loaded_p99_ms = p99;
        println!(
            "clients={clients}: p50 {p50:.2}ms p95 {p95:.2}ms p99 {p99:.2}ms, {rows_per_s:.0} rows/s"
        );
        let comma = if ci + 1 < client_counts.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {{\"clients\": {clients}, \"p50_ms\": {p50:.3}, \"p95_ms\": {p95:.3}, \
             \"p99_ms\": {p99:.3}, \"rows_per_s\": {rows_per_s:.1}}}{comma}"
        );
    }
    let _ = writeln!(out, "  ],");

    // Overload: more concurrent clients than the sample gate admits,
    // against a second daemon with a deliberately tiny `max_inflight`.
    // The point under test is graceful shedding — the excess must turn
    // into fast 503s instead of a queue, so the tail latency of *every*
    // response (admitted or shed) stays bounded.
    let overload_clients = if quick { 4 } else { 8 };
    let overload_requests = if quick { 6 } else { 25 };
    let max_inflight = if quick { 1 } else { 2 };
    let overload_server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        model_dir: model_dir.clone(),
        pool_workers: overload_clients,
        max_inflight,
        ..ServeConfig::default()
    })
    .expect("bind overload server");
    let overload_addr = overload_server.local_addr().expect("overload addr");
    let overload_handle = overload_server.shutdown_handle().expect("overload handle");
    let overload_thread =
        std::thread::spawn(move || overload_server.run().expect("overload server run"));
    let workers: Vec<std::thread::JoinHandle<Vec<(u16, f64)>>> = (0..overload_clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(overload_addr).expect("overload connect");
                stream.set_nodelay(true).expect("overload nodelay");
                let mut reader = BufReader::new(stream.try_clone().expect("clone overload stream"));
                let mut outcomes = Vec::with_capacity(overload_requests);
                for r in 0..overload_requests {
                    let offset = (c * overload_requests + r) * rows_per_request;
                    let body = sample_body(rows_per_request, offset);
                    let t = Stopwatch::start();
                    let (status, _) = roundtrip_any(&mut stream, &mut reader, "/v1/sample", &body);
                    outcomes.push((status, t.elapsed().as_secs_f64()));
                }
                outcomes
            })
        })
        .collect();
    let outcomes: Vec<(u16, f64)> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("overload client thread"))
        .collect();
    overload_handle.shutdown();
    overload_thread.join().expect("overload server thread");
    let admitted = outcomes.iter().filter(|(s, _)| *s == 200).count();
    let shed = outcomes.iter().filter(|(s, _)| *s == 503).count();
    assert_eq!(
        admitted + shed,
        outcomes.len(),
        "overload responses must be 200 or 503, nothing else"
    );
    let mut overload_lat: Vec<f64> = outcomes.iter().map(|(_, l)| *l).collect();
    overload_lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let overload_p50 = percentile(&overload_lat, 0.50) * 1e3;
    let overload_p99 = percentile(&overload_lat, 0.99) * 1e3;
    println!(
        "overload clients={overload_clients} max_inflight={max_inflight}: \
         {admitted} admitted, {shed} shed, p50 {overload_p50:.2}ms p99 {overload_p99:.2}ms"
    );
    let _ = writeln!(
        out,
        "  \"overload\": {{\"clients\": {overload_clients}, \"max_inflight\": {max_inflight}, \
         \"requests\": {}, \"admitted\": {admitted}, \"shed\": {shed}, \
         \"p50_ms\": {overload_p50:.3}, \"p99_ms\": {overload_p99:.3}}},",
        outcomes.len()
    );

    let efficiency = best_rows_per_s / inprocess_rows_per_s;
    let _ = writeln!(out, "  \"best_rows_per_s\": {best_rows_per_s:.1},");
    let _ = writeln!(out, "  \"http_efficiency\": {efficiency:.3},");
    let _ = writeln!(out, "  \"http_efficiency_floor\": {MIN_HTTP_EFFICIENCY}");
    out.push_str("}\n");

    handle.shutdown();
    server_thread.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&model_dir);

    let path = "BENCH_serve.json";
    if quick {
        println!("quick run: leaving {path} untouched");
    } else {
        std::fs::write(path, &out).expect("write BENCH_serve.json");
        println!("wrote {path}");
    }

    println!(
        "http efficiency: {efficiency:.2} of in-process ({best_rows_per_s:.0} vs \
         {inprocess_rows_per_s:.0} rows/s, floor {MIN_HTTP_EFFICIENCY})"
    );
    if efficiency < MIN_HTTP_EFFICIENCY {
        eprintln!(
            "REGRESSION: HTTP serving reaches only {efficiency:.2} of the in-process \
             sampling throughput (floor {MIN_HTTP_EFFICIENCY})"
        );
        std::process::exit(1);
    }

    // Overload gates: the admission gate must actually shed under 4x
    // oversubscription, some requests must still get through, and
    // shedding must keep the tail bounded — p99 across *all* overload
    // responses may not exceed 25x the p99 of the fully-admitted run.
    // (Without shedding, the excess queues and the tail grows with the
    // queue; 25x is generous enough to absorb host-speed noise.)
    let p99_bound_ms = 25.0 * loaded_p99_ms.max(1.0);
    if admitted == 0 || shed == 0 {
        eprintln!(
            "REGRESSION: overload run expected both admissions and sheds, \
             got {admitted} admitted / {shed} shed"
        );
        std::process::exit(1);
    }
    if overload_p99 > p99_bound_ms {
        eprintln!(
            "REGRESSION: overload p99 {overload_p99:.2}ms exceeds bound {p99_bound_ms:.2}ms \
             (25x loaded p99 {loaded_p99_ms:.2}ms) — shedding is not keeping the tail bounded"
        );
        std::process::exit(1);
    }
}
