//! Property tests of the request reader (`dpcopula_serve::http`):
//! generated requests, and mutated and truncated renderings of them,
//! read from memory.
//!
//! - No input panics, and over an in-memory stream every refusal is
//!   `Closed`, `BadRequest`, `PayloadTooLarge` or `TruncatedBody` —
//!   never an I/O error or a timeout.
//! - A valid request reads back as sent, up to header-name case.
//! - A `POST /v1/fit` `text/csv` body read a second time through a
//!   [`SpoolPolicy`] whose in-memory cap is below it fails the same way,
//!   or lands in a spool file holding exactly the in-memory body: the
//!   memory and disk destinations share one copy loop.

use dpcopula_serve::http::{
    read_request, read_request_spooled, HttpError, ReadLimits, Request, SpoolPolicy,
};
use rngkit::rngs::StdRng;
use rngkit::Rng;
use std::io::BufReader;
use testkit::prop::Gen;
use testkit::{prop_assert, prop_assert_eq, property_tests};

/// In-memory body cap of the plain reads; generated bodies stay below.
const CAP: usize = 4096;

/// A generated request: what the reader must hand back.
#[derive(Debug, Clone)]
struct Sent {
    method: String,
    path: String,
    query: String,
    /// Header names in generated case; `Content-Length` is added by
    /// [`Sent::render`].
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Sent {
    fn render(&self) -> Vec<u8> {
        let mut head = format!("{} {}", self.method, self.path);
        if !self.query.is_empty() {
            head.push('?');
            head.push_str(&self.query);
        }
        head.push_str(" HTTP/1.1\r\n");
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\n\r\n", self.body.len()));
        let mut raw = head.into_bytes();
        raw.extend_from_slice(&self.body);
        raw
    }
}

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

/// `len` bytes of `alphabet`.
fn token(rng: &mut StdRng, alphabet: &[u8], len: usize) -> String {
    (0..len)
        .map(|_| char::from(alphabet[rng.gen_range(0..alphabet.len())]))
        .collect()
}

/// Randomly upper-cases ASCII letters: header names match in any case.
fn any_case(rng: &mut StdRng, name: &str) -> String {
    name.chars()
        .map(|c| {
            if rng.gen_range(0..2u32) == 0 {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect()
}

const PATH_BYTES: &[u8] = b"abcxyz019_-.";
const QUERY_BYTES: &[u8] = b"abcxyz019_-.%+/?:";

/// A well-formed request on a random method, path, query, header set
/// and body of up to 3 KiB. Framing headers (`Content-Length`,
/// `Transfer-Encoding`, `Expect`) are left to [`Sent::render`].
fn request() -> Gen<Sent> {
    Gen::new(
        |rng| {
            let method = pick(rng, &["GET", "POST", "PUT", "DELETE", "PATCH", "OPTIONS"]);
            let path = if rng.gen_range(0..2u32) == 0 {
                pick(
                    rng,
                    &[
                        "/healthz",
                        "/metrics",
                        "/v1/models",
                        "/v1/sample",
                        "/v1/fit",
                    ],
                )
                .to_string()
            } else {
                let segments = rng.gen_range(0..4usize);
                let mut path = String::new();
                for _ in 0..segments {
                    let len = rng.gen_range(1..8usize);
                    path.push('/');
                    path.push_str(&token(rng, PATH_BYTES, len));
                }
                if path.is_empty() {
                    path.push('/');
                }
                path
            };
            let pairs = rng.gen_range(0..4usize);
            let query = (0..pairs)
                .map(|_| {
                    let (k, v) = (rng.gen_range(1..6usize), rng.gen_range(0..10usize));
                    format!(
                        "{}={}",
                        token(rng, PATH_BYTES, k),
                        token(rng, QUERY_BYTES, v)
                    )
                })
                .collect::<Vec<_>>()
                .join("&");
            let header_count = rng.gen_range(0..6usize);
            let headers = (0..header_count)
                .map(|_| {
                    let (name, value) = match rng.gen_range(0..4u32) {
                        0 => (
                            "Content-Type",
                            pick(
                                rng,
                                &["text/csv", "application/json", "Text/CSV; charset=utf-8"],
                            )
                            .to_string(),
                        ),
                        1 => (
                            "Connection",
                            pick(rng, &["close", "keep-alive"]).to_string(),
                        ),
                        _ => {
                            let name = pick(rng, &["Host", "Accept", "User-Agent", "X-Trace"]);
                            let len = rng.gen_range(0..24usize);
                            (name, token(rng, b"az09 :;/=,.-_*", len).trim().to_string())
                        }
                    };
                    (any_case(rng, name), value)
                })
                .collect();
            let len = rng.gen_range(0..=3072usize);
            let body = (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect();
            Sent {
                method: method.to_string(),
                path,
                query,
                headers,
                body,
            }
        },
        |_| Vec::new(),
    )
}

/// A raw-CSV fit request: `POST /v1/fit`, `Content-Type: text/csv`, a
/// non-empty body.
fn csv_fit_request() -> Gen<Sent> {
    request().map(|mut sent| {
        sent.method = "POST".into();
        sent.path = "/v1/fit".into();
        sent.headers
            .retain(|(name, _)| !name.eq_ignore_ascii_case("content-type"));
        sent.headers
            .push(("content-TYPE".into(), "text/csv; charset=utf-8".into()));
        if sent.body.is_empty() {
            sent.body.push(b'\n');
        }
        sent
    })
}

/// Bytes a mutation may write: framing, separators and non-UTF-8.
const MUTANTS: [u8; 10] = [b'\r', b'\n', b' ', b':', b'?', b'9', b'x', 0, 0x80, 0xff];

/// `raw` with one byte replaced.
fn mutate(raw: &[u8], at: usize, with: u8) -> Vec<u8> {
    let mut bytes = raw.to_vec();
    if !bytes.is_empty() {
        let at = at % bytes.len();
        bytes[at] = with;
    }
    bytes
}

fn read(raw: &[u8], cap: usize, spool: Option<&SpoolPolicy>) -> Result<Request, HttpError> {
    read_request_spooled(
        &mut BufReader::new(raw),
        &mut Vec::new(),
        ReadLimits::size_only(cap),
        spool,
    )
}

property_tests! {
    fn valid_requests_read_back_as_sent(sent in request()) {
        let raw = sent.render();
        let got = read_request(&mut BufReader::new(&raw[..]), &mut Vec::new(), ReadLimits::size_only(CAP))
            .map_err(|e| format!("refused a valid request: {e}"))?;
        let mut headers: Vec<(String, String)> = sent
            .headers
            .iter()
            .map(|(name, value)| (name.to_ascii_lowercase(), value.clone()))
            .collect();
        headers.push(("content-length".into(), sent.body.len().to_string()));
        prop_assert_eq!(&got.method, &sent.method);
        prop_assert_eq!(&got.path, &sent.path);
        prop_assert_eq!(&got.query, &sent.query);
        prop_assert_eq!(&got.headers, &headers);
        prop_assert_eq!(&got.body, &sent.body);
        prop_assert!(got.spooled.is_none());
    }

    fn damaged_requests_fail_cleanly(
        sent in request(),
        at in 0usize..8192,
        with in 0usize..MUTANTS.len(),
        cut in 0usize..8192,
    ) {
        let raw = sent.render();
        for bytes in [mutate(&raw, at, MUTANTS[with]), raw[..cut % (raw.len() + 1)].to_vec()] {
            let text = String::from_utf8_lossy(&bytes);
            match std::panic::catch_unwind(|| read(&bytes, CAP, None)) {
                Err(_) => return Err(format!("panicked on {text:?}")),
                Ok(Ok(_))
                | Ok(Err(HttpError::Closed))
                | Ok(Err(HttpError::BadRequest { .. }))
                | Ok(Err(HttpError::PayloadTooLarge { .. }))
                | Ok(Err(HttpError::TruncatedBody { .. })) => {}
                Ok(Err(e)) => return Err(format!("{e:?} on {text:?}")),
            }
        }
    }

    fn spooled_csv_bodies_equal_the_in_memory_read(sent in csv_fit_request(), cut in 0usize..8192) {
        let dir = std::env::temp_dir().join(format!("dpcopula-http-props-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let policy = SpoolPolicy {
            path: "/v1/fit".into(),
            max_body: CAP,
            dir: dir.clone(),
        };
        let raw = sent.render();
        for bytes in [raw.clone(), raw[..cut % (raw.len() + 1)].to_vec()] {
            let in_memory = read(&bytes, CAP, None);
            let spooled = read(&bytes, sent.body.len() - 1, Some(&policy));
            match (in_memory, spooled) {
                (Ok(memory), Ok(disk)) => {
                    let file = disk.spooled.as_ref().ok_or("a body past the cap did not spool")?;
                    prop_assert_eq!(std::fs::read(file.path()).map_err(|e| e.to_string())?, memory.body);
                    prop_assert!(disk.body.is_empty());
                }
                (Err(memory), Err(disk)) => prop_assert_eq!(memory.to_string(), disk.to_string()),
                (memory, disk) => return Err(format!("in memory {memory:?}, spooled {disk:?}")),
            }
        }
        // Removing the directory fails unless every spool file is gone.
        std::fs::remove_dir(&dir).map_err(|e| format!("spool file outlived its request: {e}"))?;
    }
}
