//! End-to-end tests of the `dpcopula-serve` daemon: a real server on an
//! ephemeral port, a hand-rolled `std::net` HTTP client, and the two
//! contracts the serving layer promises —
//!
//! 1. a row window fetched over HTTP is **byte-identical** to the same
//!    window sampled in-process from the same artifact (sampling is
//!    deterministic post-processing, the transport adds nothing);
//! 2. per-tenant ε admission refuses fits once the budget is spent
//!    (429, with the remaining budget in the body) while sampling keeps
//!    serving, because it is ε-free.

#[path = "../../crates/core/tests/pins/mod.rs"]
mod pins;

use dpcopula::FittedModel;
use dpcopula_serve::{ServeConfig, Server, ShutdownHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};

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
            std::env::temp_dir().join(format!("dpcopula-serve-it-{tag}-{}", std::process::id()));
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
        let join = std::thread::spawn(move || {
            server.run().unwrap();
        });
        Self {
            addr,
            handle,
            model_dir,
            join: Some(join),
        }
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

/// Sends one request, reads the full response, returns (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    // The server may refuse (413) and close without reading the body;
    // a broken-pipe here is part of the behaviour under test.
    let _ = stream.write_all(body);
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> (u16, Vec<u8>) {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("complete response head");
    let head = std::str::from_utf8(&raw[..split]).unwrap();
    let status: u16 = head
        .split(' ')
        .nth(1)
        .expect("status code in status line")
        .parse()
        .unwrap();
    (status, raw[split + 4..].to_vec())
}

/// Escapes `s` into a JSON string literal (for embedding CSV bodies).
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

/// A small deterministic CSV in datagen's `name:domain` header format.
fn training_csv() -> String {
    let mut csv = String::from("age:5,income:4,region:3\n");
    for i in 0..80u32 {
        csv.push_str(&format!("{},{},{}\n", i % 5, (i / 3) % 4, (i * 7) % 3));
    }
    csv
}

fn fit_body(id: &str, tenant: &str, epsilon: f64, seed: u64) -> Vec<u8> {
    format!(
        "{{\"id\":\"{id}\",\"tenant\":\"{tenant}\",\"epsilon\":{epsilon},\"seed\":{seed},\"csv\":{}}}",
        json_str(&training_csv())
    )
    .into_bytes()
}

fn write_tenants(dir: &Path, text: &str) -> PathBuf {
    let path = dir.join("tenants.conf");
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn http_sample_window_is_byte_identical_to_in_process_sampling() {
    let server = TestServer::start("identity", |c| {
        c.sample_workers = 2; // any worker count must yield the same bytes
    });
    let (status, body) = http(
        server.addr,
        "POST",
        "/v1/fit",
        &fit_body("census", "default", 1.5, 42),
    );
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let fit_reply = String::from_utf8(body).unwrap();
    assert!(fit_reply.contains("\"id\":\"census\""), "{fit_reply}");
    assert!(fit_reply.contains("\"checksum\":\""), "{fit_reply}");

    // A mid-stream window over HTTP...
    let (status, http_csv) = http(
        server.addr,
        "POST",
        "/v1/sample",
        br#"{"model":"census","offset":1000,"rows":200}"#,
    );
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&http_csv));

    // ...must be byte-for-byte what in-process sampling of the same
    // artifact produces, at an unrelated worker count.
    let model = FittedModel::load(server.model_dir.join("census.dpcm")).unwrap();
    let columns = model
        .try_sample_range_profiled(dpcopula::SamplingProfile::Reference, 1000, 200, 3)
        .unwrap();
    let attributes: Vec<datagen::Attribute> = model
        .artifact()
        .schema
        .iter()
        .map(|a| datagen::Attribute::new(a.name.clone(), a.domain))
        .collect();
    let dataset = datagen::Dataset::new(attributes, columns);
    let mut in_process = Vec::new();
    datagen::io::write_csv(&dataset, &mut in_process).unwrap();
    assert_eq!(http_csv, in_process);

    // The fitted attribute names round-tripped into the CSV header.
    assert!(in_process.starts_with(b"age:5,income:4,region:3\n"));

    // JSON format serves the same rows: the exact body, rendered here
    // from the in-process columns.
    let (status, json_rows) = http(
        server.addr,
        "POST",
        "/v1/sample",
        br#"{"model":"census","offset":1000,"rows":200,"format":"json"}"#,
    );
    assert_eq!(status, 200);
    let rows: Vec<String> = (0..200)
        .map(|r| {
            let fields: Vec<String> = dataset.columns().iter().map(|c| c[r].to_string()).collect();
            format!("[{}]", fields.join(","))
        })
        .collect();
    let want = format!(
        "{{\"columns\":[\"age\",\"income\",\"region\"],\"rows\":[{}]}}\n",
        rows.join(",")
    );
    assert_eq!(std::str::from_utf8(&json_rows).unwrap(), want);

    // Both bodies above are compared with renderings of the same
    // encoders; these digests pin the served bytes from outside them.
    let pin_file = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../crates/core/tests/fixtures/sharded_pins.txt");
    let [csv_pin, json_pin, _] = pins::INTEGRATION_PINS.map(String::from);
    pins::assert_digests_pinned(&pin_file, &[(csv_pin, http_csv), (json_pin, json_rows)]);

    // An empty window is the CSV header alone, or an empty row list.
    let (status, empty_csv) = http(
        server.addr,
        "POST",
        "/v1/sample",
        br#"{"model":"census","offset":1000,"rows":0}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(empty_csv, b"age:5,income:4,region:3\n");
    let (status, empty_json) = http(
        server.addr,
        "POST",
        "/v1/sample",
        br#"{"model":"census","offset":1000,"rows":0,"format":"json"}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(
        String::from_utf8(empty_json).unwrap(),
        "{\"columns\":[\"age\",\"income\",\"region\"],\"rows\":[]}\n"
    );
}

/// The `"format":"json"` body as the daemon rendered it row by row
/// before it served chunk blocks, kept as the block path's reference.
fn reference_json_body(names: &[&str], columns: &[Vec<u32>]) -> String {
    let mut body = String::from("{\"columns\":[");
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&dpcopula_serve::json::quote(name));
    }
    body.push_str("],\"rows\":[");
    for r in 0..columns[0].len() {
        if r > 0 {
            body.push(',');
        }
        body.push('[');
        for (j, col) in columns.iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            body.push_str(&col[r].to_string());
        }
        body.push(']');
    }
    body.push_str("]}\n");
    body
}

#[test]
fn served_blocks_equal_the_in_process_window_at_every_chunk_edge() {
    use dpcopula::{DpCopulaConfig, SamplingProfile, SynthesisRequest};
    // A Gaussian model on a 512-row chunk grid, and its Student-t twin
    // (family set by hand, as the `t5_window_*` pins build it).
    let census = datagen::census::us_census(4_000, 7);
    let config = DpCopulaConfig::kendall(dpmech::Epsilon::new(1.0).unwrap());
    let (mut gaussian, _) =
        SynthesisRequest::from_config(census.columns(), &census.domains(), config)
            .seed(77)
            .sample_chunk(512)
            .fit()
            .unwrap();
    let names: Vec<&str> = census
        .attributes()
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    gaussian.set_attribute_names(&names);
    let mut artifact = gaussian.artifact().clone();
    artifact.family = modelstore::CopulaFamily::StudentT { dof: 5.0 };
    let student = FittedModel::from_artifact(artifact).unwrap();

    // (offset, rows): empty; one row; inside one chunk; across one
    // chunk edge; from mid-chunk across three edges; past 2^32.
    let windows = [
        (1_000, 0),
        (700, 1),
        (600, 300),
        (500, 100),
        (300, 1_500),
        ((1usize << 32) + 100, 700),
    ];
    for workers in [1, 2, 3] {
        let server = TestServer::start(&format!("blocks-w{workers}"), |c| {
            c.sample_workers = workers;
        });
        gaussian.save(server.model_dir.join("gauss.dpcm")).unwrap();
        student.save(server.model_dir.join("t5.dpcm")).unwrap();
        for (id, model) in [("gauss", &gaussian), ("t5", &student)] {
            for profile in [SamplingProfile::Reference, SamplingProfile::Fast] {
                for (offset, rows) in windows {
                    let columns = model
                        .try_sample_range_profiled(profile, offset, rows, 4 - workers)
                        .unwrap();
                    let json = reference_json_body(&names, &columns);
                    let dataset = datagen::Dataset::new(census.attributes().to_vec(), columns);
                    let mut csv = Vec::new();
                    datagen::io::write_csv(&dataset, &mut csv).unwrap();
                    let case = format!(
                        "{id} {} [{offset}, +{rows}) at {workers} workers",
                        profile.name()
                    );
                    for (format, want) in [("csv", csv), ("json", json.into_bytes())] {
                        let request = format!(
                            "{{\"model\":\"{id}\",\"offset\":{offset},\"rows\":{rows},\
                             \"profile\":\"{}\",\"format\":\"{format}\"}}",
                            profile.name()
                        );
                        let (status, body) =
                            http(server.addr, "POST", "/v1/sample", request.as_bytes());
                        assert_eq!(status, 200, "{case}: {}", String::from_utf8_lossy(&body));
                        assert!(body == want, "{case}: served {format} differs");
                    }
                }
            }
        }
    }
}

#[test]
fn exhausted_tenant_gets_429_while_sampling_keeps_serving() {
    let server = TestServer::start("budget", |c| {
        c.tenant_file = Some(write_tenants(&c.model_dir, "alpha = 1.0\nbeta = 0.25\n"));
    });

    // alpha's first fit spends its whole budget.
    let (status, _) = http(
        server.addr,
        "POST",
        "/v1/fit",
        &fit_body("m1", "alpha", 1.0, 7),
    );
    assert_eq!(status, 200);

    // The second is refused with the remaining budget in the body.
    let (status, body) = http(
        server.addr,
        "POST",
        "/v1/fit",
        &fit_body("m2", "alpha", 0.5, 8),
    );
    assert_eq!(status, 429);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("budget exhausted"), "{text}");
    assert!(text.contains("\"remaining_eps\":0"), "{text}");

    // A rejected fit writes no artifact.
    assert!(!server.model_dir.join("m2.dpcm").exists());

    // Unknown tenants are 403, not 429.
    let (status, body) = http(
        server.addr,
        "POST",
        "/v1/fit",
        &fit_body("m3", "mallory", 0.1, 9),
    );
    assert_eq!(status, 403);
    assert!(String::from_utf8(body).unwrap().contains("unknown tenant"));

    // Sampling from the fitted model still serves: ε-free post-processing.
    let (status, csv) = http(
        server.addr,
        "POST",
        "/v1/sample",
        br#"{"model":"m1","rows":10}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(csv.iter().filter(|&&b| b == b'\n').count(), 11);

    // The rejection is visible on /metrics, per tenant.
    let (status, metrics) = http(server.addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    let metrics = String::from_utf8(metrics).unwrap();
    assert!(
        metrics.contains("budget_rejections_total{tenant=\"alpha\"} 1"),
        "missing rejection counter"
    );
    assert!(metrics.contains("serve_requests_total{endpoint=\"fit\",status=\"429\"} 1"));
    assert!(metrics.contains("serve_requests_total{endpoint=\"sample\",status=\"200\"} 1"));
}

#[test]
fn error_paths_are_typed_and_never_kill_the_daemon() {
    let server = TestServer::start("errors", |c| {
        c.max_body_bytes = 4096;
    });

    // Unknown model → 404.
    let (status, body) = http(
        server.addr,
        "POST",
        "/v1/sample",
        br#"{"model":"nope","rows":1}"#,
    );
    assert_eq!(status, 404);
    assert!(String::from_utf8(body)
        .unwrap()
        .contains("unknown model `nope`"));

    // Unknown route → 404; wrong method → 405.
    assert_eq!(http(server.addr, "GET", "/v2/everything", b"").0, 404);
    assert_eq!(http(server.addr, "GET", "/v1/sample", b"").0, 405);

    // Corrupt artifact → 500 naming the damaged entry. Flip one byte in
    // the middle of a valid artifact so a section checksum fails.
    let fit = fit_body("good", "default", 1.0, 3);
    assert_eq!(http(server.addr, "POST", "/v1/fit", &fit).0, 200);
    let mut bytes = std::fs::read(server.model_dir.join("good.dpcm")).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(server.model_dir.join("bad.dpcm"), &bytes).unwrap();
    let (status, body) = http(
        server.addr,
        "POST",
        "/v1/sample",
        br#"{"model":"bad","rows":1}"#,
    );
    assert_eq!(status, 500);
    let text = String::from_utf8(body).unwrap();
    assert!(
        text.contains("model directory entry") && text.contains("bad.dpcm"),
        "{text}"
    );

    // Oversized body → 413 before the body is read.
    let huge = vec![b' '; 8192];
    let (status, body) = http(server.addr, "POST", "/v1/fit", &huge);
    assert_eq!(status, 413);
    assert!(String::from_utf8(body).unwrap().contains("8192"));

    // Truncated body (Content-Length larger than what arrives) → 400.
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream
        .write_all(b"POST /v1/fit HTTP/1.1\r\nContent-Length: 512\r\n\r\nshort")
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let (status, body) = parse_response(&raw);
    assert_eq!(status, 400);
    assert!(String::from_utf8(body).unwrap().contains("truncated"));

    // Malformed JSON and malformed CSV → 400 with positions.
    let (status, body) = http(server.addr, "POST", "/v1/sample", b"{nope");
    assert_eq!(status, 400);
    assert!(String::from_utf8(body)
        .unwrap()
        .contains("invalid JSON body"));
    let (status, body) = http(
        server.addr,
        "POST",
        "/v1/fit",
        br#"{"id":"x","epsilon":1.0,"csv":"not a header\n"}"#,
    );
    assert_eq!(status, 400);
    assert!(String::from_utf8(body)
        .unwrap()
        .contains("invalid csv body"));

    // After all of that, the daemon still answers.
    let (status, body) = http(server.addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);
    assert_eq!(body, b"ok\n");

    // /v1/models lists the good and the damaged artifact side by side.
    let (status, listing) = http(server.addr, "GET", "/v1/models", b"");
    assert_eq!(status, 200);
    let listing = String::from_utf8(listing).unwrap();
    assert!(listing.contains("\"id\":\"good\""), "{listing}");
    assert!(listing.contains("\"id\":\"bad\""), "{listing}");
}

/// Sends raw bytes on a fresh connection and returns everything the
/// server answers before closing.
fn raw_exchange(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(bytes).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    raw
}

#[test]
fn request_head_exactly_at_the_cap_parses_and_one_byte_over_is_refused() {
    use dpcopula_serve::http::MAX_HEAD_BYTES;
    let server = TestServer::start("headcap", |_| {});
    // The head budget covers the request-line content plus, per header
    // line, its content and CRLF — and the final blank line still needs
    // room for its CR. The longest padding that fits:
    let overhead =
        "GET /healthz HTTP/1.1".len() + "X-Pad: ".len() + 2 + "Connection: close".len() + 2 + 1;
    let pad_max = MAX_HEAD_BYTES - overhead;
    for (pad, expect) in [(pad_max, 200u16), (pad_max + 1, 400u16)] {
        let head = format!(
            "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\nConnection: close\r\n\r\n",
            "a".repeat(pad)
        );
        let (status, body) = parse_response(&raw_exchange(server.addr, head.as_bytes()));
        assert_eq!(status, expect, "pad {pad}");
        if expect == 400 {
            assert!(
                String::from_utf8_lossy(&body).contains("request head exceeds"),
                "pad {pad}: {}",
                String::from_utf8_lossy(&body)
            );
        } else {
            assert_eq!(body, b"ok\n", "pad {pad}");
        }
    }
}

#[test]
fn pipelined_keep_alive_serves_the_valid_request_then_refuses_the_malformed() {
    let server = TestServer::start("pipeline", |_| {});
    // Both requests in one write: the first is valid and keeps the
    // connection alive, the second is garbage. The server must answer
    // 200 then 400, then close — not tear down before replying, not
    // let the garbage poison the first response.
    let raw = raw_exchange(
        server.addr,
        b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\nNOT-A-REQUEST\r\n\r\n",
    );
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
    assert!(text.contains("ok\n"), "{text}");
    let second = text
        .find("HTTP/1.1 400")
        .expect("second response on the same connection");
    assert!(text[second..].contains("malformed request line"), "{text}");
    // The 400 closes the session: no third response, stream ended.
    assert!(text.ends_with("}\n"), "{text}");
}

/// Sends one raw-CSV request (`Content-Type: text/csv`, fit params in
/// the query string) and returns (status, body).
fn http_csv(addr: SocketAddr, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Type: text/csv\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    let _ = stream.write_all(body);
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    parse_response(&raw)
}

/// A deterministic CSV with enough rows to exceed a byte budget.
fn csv_rows(rows: u32) -> String {
    let mut csv = String::from("age:5,income:4,region:3\n");
    for i in 0..rows {
        csv.push_str(&format!("{},{},{}\n", i % 5, (i / 3) % 4, (i * 7) % 3));
    }
    csv
}

/// The 16-hex-digit checksum out of a fit response body.
fn checksum_of(reply: &str) -> &str {
    let at = reply.find("\"checksum\":\"").expect("checksum field") + "\"checksum\":\"".len();
    &reply[at..at + 16]
}

#[test]
fn oversized_fit_body_spools_to_disk_and_matches_the_eager_fit() {
    let csv = csv_rows(1000); // ~6 KiB, past the 4 KiB in-memory cap
    assert!(csv.len() > 4096 && csv.len() < 16 * 1024);

    let spooling = TestServer::start("spool", |c| {
        c.max_body_bytes = 4096;
        c.max_fit_body_bytes = 16 * 1024;
        c.tenant_file = Some(write_tenants(&c.model_dir, "default = 10.0\ngamma = 1.0\n"));
    });

    // The oversized body spools, streams through the out-of-core fit,
    // and fits the same model the eager path releases.
    let (status, body) = http_csv(
        spooling.addr,
        "/v1/fit?id=big&epsilon=1.0&seed=42",
        csv.as_bytes(),
    );
    let reply = String::from_utf8(body).unwrap();
    assert_eq!(status, 200, "{reply}");
    assert!(reply.contains("\"rows\":1000"), "{reply}");
    let spooled_checksum = checksum_of(&reply).to_string();

    // Reference: the same CSV through the JSON envelope on a server
    // with a cap large enough to hold it in memory.
    let eager = TestServer::start("spool-ref", |_| {});
    let json = format!(
        "{{\"id\":\"ref\",\"epsilon\":1.0,\"seed\":42,\"csv\":{}}}",
        json_str(&csv)
    );
    let (status, body) = http(eager.addr, "POST", "/v1/fit", json.as_bytes());
    let reply = String::from_utf8(body).unwrap();
    assert_eq!(status, 200, "{reply}");
    assert_eq!(
        checksum_of(&reply),
        spooled_checksum,
        "spooled fit must release the same artifact as the eager fit"
    );

    // The spooled-fit model serves rows like any other.
    let (status, rows) = http(
        spooling.addr,
        "POST",
        "/v1/sample",
        br#"{"model":"big","rows":10}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(rows.iter().filter(|&&b| b == b'\n').count(), 11);

    // A small raw-CSV body (under the in-memory cap) takes the same
    // query-parameter surface without spooling.
    let small = csv_rows(40);
    assert!(small.len() < 4096);
    let (status, body) = http_csv(
        spooling.addr,
        "/v1/fit?id=small&epsilon=0.5&seed=7",
        small.as_bytes(),
    );
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));

    // Past the spool cap the 413 contract is unchanged — refused before
    // the body is read, naming the declared size.
    let giant = csv_rows(4000); // ~24 KiB > the 16 KiB spool cap
    let (status, body) = http_csv(
        spooling.addr,
        "/v1/fit?id=nope&epsilon=0.5",
        giant.as_bytes(),
    );
    assert_eq!(status, 413);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains(&giant.len().to_string()), "{text}");
    assert!(!spooling.model_dir.join("nope.dpcm").exists());

    // Spooling is fit-only: other routes keep the in-memory cap.
    let (status, _) = http(spooling.addr, "POST", "/v1/sample", &vec![b' '; 8192]);
    assert_eq!(status, 413);

    // ...and CSV-only: a JSON envelope past the in-memory cap is refused
    // before reading, naming the in-memory limit, not spooled and then
    // misread as a raw CSV body.
    let (status, body) = http(spooling.addr, "POST", "/v1/fit", json.as_bytes());
    let text = String::from_utf8(body).unwrap();
    assert_eq!(status, 413, "{text}");
    assert!(text.contains("4096-byte limit"), "{text}");
    assert!(!spooling.model_dir.join("ref.dpcm").exists());

    // A malformed spooled body is a 400 that costs the tenant no ε:
    // gamma's whole 1.0 budget is still there for the real fit.
    let garbage = vec![b'#'; 6000];
    let (status, body) = http_csv(
        spooling.addr,
        "/v1/fit?id=junk&epsilon=1.0&tenant=gamma",
        &garbage,
    );
    assert_eq!(status, 400);
    assert!(String::from_utf8_lossy(&body).contains("invalid csv body"));
    let (status, _) = http_csv(
        spooling.addr,
        "/v1/fit?id=gamma-model&epsilon=1.0&tenant=gamma&seed=3",
        csv.as_bytes(),
    );
    assert_eq!(status, 200, "the failed fit must not have debited gamma");

    // Spool files are deleted once their request is done.
    let pid = std::process::id();
    let mut leftovers = usize::MAX;
    for _ in 0..400 {
        leftovers = std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                e.file_name()
                    .to_string_lossy()
                    .starts_with(&format!("dpcopula-spool-{pid}-"))
            })
            .count();
        if leftovers == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(leftovers, 0, "spool files must not outlive their request");

    // Missing query parameters on the raw surface are named.
    let (status, body) = http_csv(spooling.addr, "/v1/fit?epsilon=1.0", small.as_bytes());
    assert_eq!(status, 400);
    assert!(String::from_utf8_lossy(&body).contains("query parameter `id`"));
}

/// The `error` reason out of a JSON error body.
fn error_reason(body: &[u8]) -> String {
    let doc = dpcopula_serve::json::Json::parse(std::str::from_utf8(body).unwrap()).unwrap();
    doc.get("error")
        .and_then(|e| e.as_str())
        .unwrap()
        .to_string()
}

#[test]
fn both_fit_shapes_refuse_bad_parameters_alike_and_debit_nothing() {
    // The budget covers exactly one fit: any 400 that debited would
    // make the final fit a 429.
    let server = TestServer::start("params", |c| {
        c.tenant_file = Some(write_tenants(&c.model_dir, "default = 1.0\n"));
    });
    let csv = training_csv();
    // (JSON envelope fields, the same parameters as a query string,
    // the JSON shape's reason); `None` for JSON-only cases.
    let cases = [
        (
            r#""epsilon":1.0"#,
            Some("epsilon=1.0"),
            "missing required field `id`",
        ),
        (
            r#""id":"../x","epsilon":1.0"#,
            Some("id=../x&epsilon=1.0"),
            "invalid model id `../x`",
        ),
        (
            r#""id":"m""#,
            Some("id=m"),
            "missing required field `epsilon`",
        ),
        (
            r#""id":"m","epsilon":"abc""#,
            Some("id=m&epsilon=abc"),
            "`epsilon` must be a number",
        ),
        (
            r#""id":"m","epsilon":-1"#,
            Some("id=m&epsilon=-1"),
            "invalid epsilon -1: must be finite and > 0",
        ),
        (
            r#""id":"m","epsilon":1.0,"seed":-1"#,
            Some("id=m&epsilon=1.0&seed=-1"),
            "`seed` must be a non-negative integer",
        ),
        (
            r#""id":"m","epsilon":1.0,"k":0"#,
            Some("id=m&epsilon=1.0&k=0"),
            "`k` must be a positive number",
        ),
        (
            r#""id":"m","epsilon":1.0,"tenant":7"#,
            None,
            "`tenant` must be a string",
        ),
    ];
    for (fields, query, expected) in cases {
        let envelope = format!("{{{fields},\"csv\":{}}}", json_str(&csv));
        let (status, body) = http(server.addr, "POST", "/v1/fit", envelope.as_bytes());
        assert_eq!(status, 400, "{fields}");
        let json_reason = error_reason(&body);
        assert!(json_reason.contains(expected), "{fields}: {json_reason}");
        if let Some(query) = query {
            let (status, body) = http_csv(server.addr, &format!("/v1/fit?{query}"), csv.as_bytes());
            assert_eq!(status, 400, "{query}");
            assert_eq!(
                error_reason(&body),
                json_reason.replace("field", "query parameter"),
                "{query}"
            );
        }
    }
    assert!(!server.model_dir.join("m.dpcm").exists());

    let (status, body) = http(
        server.addr,
        "POST",
        "/v1/fit",
        &fit_body("m", "default", 1.0, 5),
    );
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let (status, _) = http(
        server.addr,
        "POST",
        "/v1/fit",
        &fit_body("m2", "default", 1.0, 6),
    );
    assert_eq!(status, 429, "the budget covered exactly one fit");
}

#[test]
fn tiny_per_mechanism_budget_is_a_400_that_debits_nothing() {
    // Below the floor, ε₁/m or ε₂/C(m,2) overflows a mechanism's
    // arithmetic. The refusal comes before admission, so the budget that
    // covers exactly one fit still covers it afterwards.
    let server = TestServer::start("tiny-budget", |c| {
        c.tenant_file = Some(write_tenants(&c.model_dir, "default = 1.0\n"));
    });
    let csv = training_csv();
    for query in ["epsilon=1e-150", "epsilon=1e-310", "epsilon=1&k=1e-150"] {
        let path = format!("/v1/fit?id=tiny&seed=99&{query}");
        let (status, body) = http_csv(server.addr, &path, csv.as_bytes());
        assert_eq!(status, 400, "{query}: {}", String::from_utf8_lossy(&body));
        assert!(error_reason(&body).contains("below the floor"), "{query}");
    }
    let (status, body) = http(
        server.addr,
        "POST",
        "/v1/fit",
        &fit_body("tiny", "default", 1e-150, 5),
    );
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));
    assert!(!server.model_dir.join("tiny.dpcm").exists());

    let (status, body) = http(
        server.addr,
        "POST",
        "/v1/fit",
        &fit_body("whole", "default", 1.0, 5),
    );
    let reply = String::from_utf8(body).unwrap();
    assert_eq!(status, 200, "{reply}");
    assert!(reply.contains("\"remaining_eps\":0"), "{reply}");
}

#[test]
fn content_length_mismatch_with_early_close_is_recorded_and_survivable() {
    let server = TestServer::start("clmismatch", |_| {});

    // Under-delivery then full close: the client declares 64 bytes,
    // sends 8, and vanishes. The 400 may be undeliverable, but it is
    // still typed, counted, and the daemon survives.
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream
        .write_all(b"POST /v1/sample HTTP/1.1\r\nContent-Length: 64\r\n\r\n{\"model\"")
        .unwrap();
    stream.shutdown(std::net::Shutdown::Both).unwrap();
    drop(stream);
    let deadline = 400; // polls of 5ms — the handler races our assert
    let mut seen = false;
    for _ in 0..deadline {
        let (status, metrics) = http(server.addr, "GET", "/metrics", b"");
        assert_eq!(status, 200);
        if String::from_utf8_lossy(&metrics)
            .contains("serve_requests_total{endpoint=\"other\",status=\"400\"} 1")
        {
            seen = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(seen, "truncated-body 400 never showed up in /metrics");

    // Over-delivery on keep-alive: 4 declared, 14 sent. The surplus is
    // parsed as the next pipelined request and refused.
    let raw = raw_exchange(
        server.addr,
        b"GET /healthz HTTP/1.1\r\nContent-Length: 4\r\n\r\nokokEXTRA JUNK\r\n\r\n",
    );
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
    assert!(text.contains("HTTP/1.1 400"), "{text}");
    assert!(text.contains("malformed request line"), "{text}");

    let (status, body) = http(server.addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);
    assert_eq!(body, b"ok\n");
}

#[test]
fn tiny_epsilon_fit_answers_200_and_serves_a_window() {
    // At ε = 1e-20, 50·m(m−1)/ε₂ overflows usize: the Kendall sample
    // target saturates to every row instead of wrapping to zero.
    let server = TestServer::start("tiny-eps", |_| {});
    let (status, body) = http_csv(
        server.addr,
        "/v1/fit?id=tiny&epsilon=1e-20&seed=99",
        training_csv().as_bytes(),
    );
    let reply = String::from_utf8(body).unwrap();
    assert_eq!(status, 200, "{reply}");
    assert!(reply.contains("\"id\":\"tiny\""), "{reply}");
    let (status, rows) = http(
        server.addr,
        "POST",
        "/v1/sample",
        br#"{"model":"tiny","rows":10}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(rows.iter().filter(|&&b| b == b'\n').count(), 11);
}
