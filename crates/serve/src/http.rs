//! Hand-rolled HTTP/1.1 framing over [`std::net::TcpStream`] — just
//! enough of RFC 9112 for a JSON API daemon: request-line + header
//! parsing, `Content-Length` bodies with hard size limits, `Expect:
//! 100-continue`, and keep-alive. Anything outside that subset (chunked
//! transfer encoding, upgrades, multiple `Content-Length`s) is refused
//! with a named error rather than guessed at.
//!
//! Limits are enforced *before* allocation: a request declaring a body
//! beyond the configured cap is rejected with
//! [`HttpError::PayloadTooLarge`] without reading it, and header blocks
//! are capped at [`MAX_HEAD_BYTES`].
//!
//! Time limits defend the workers: [`ReadLimits`] carries a wall-clock
//! deadline for the head and one for the body, so a slowloris client
//! trickling header bytes — or a body that stops arriving — is cut off
//! with a named `408`-mapped error ([`HttpError::HeadTimeout`] /
//! [`HttpError::BodyTimeout`]) instead of pinning a pool worker. The
//! deadlines compose with the socket read timeout: a fully silent peer
//! is noticed by the socket timeout, a trickling one by the deadline.

use obskit::Stopwatch;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Maximum bytes of request line + headers accepted per request.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Size and time limits applied while reading one request.
#[derive(Debug, Clone, Copy)]
pub struct ReadLimits {
    /// Hard cap on the declared body size.
    pub max_body: usize,
    /// Wall-clock budget for the head (request line + headers),
    /// measured from the first head byte. `None` disables the check.
    pub head_deadline: Option<Duration>,
    /// Wall-clock budget for the body, measured from the end of the
    /// head. `None` disables the check.
    pub body_deadline: Option<Duration>,
}

impl ReadLimits {
    /// Limits with only the body-size cap (no wall-clock deadlines) —
    /// what in-memory parsing tests use.
    pub fn size_only(max_body: usize) -> Self {
        Self {
            max_body,
            head_deadline: None,
            body_deadline: None,
        }
    }
}

/// Spooling policy for one route: `text/csv` bodies too large for the
/// in-memory cap are streamed to a temp file instead of refused, up to a
/// larger cap. Used by `POST /v1/fit` for out-of-core CSV ingestion.
#[derive(Debug, Clone)]
pub struct SpoolPolicy {
    /// The only request path eligible for spooling (and only for
    /// `Content-Type: text/csv` bodies).
    pub path: String,
    /// Hard cap on a spooled body (bytes on disk, not in memory).
    pub max_body: usize,
    /// Directory the spool files are created in.
    pub dir: PathBuf,
}

/// A request body spooled to disk. The file is deleted when the last
/// clone of the owning [`Request`] drops.
#[derive(Debug)]
pub struct SpooledBody {
    path: PathBuf,
}

/// Distinguishes concurrent spool files within one process.
static SPOOL_SEQ: AtomicU64 = AtomicU64::new(0);

impl SpooledBody {
    /// Creates a new spool file in `dir`, readable by this user only:
    /// it holds raw training rows. The names are predictable, so the
    /// file is opened with `create_new`, which never truncates or
    /// follows a file or symlink planted at the name; a taken name
    /// moves on to the next sequence number.
    fn create(dir: &Path) -> std::io::Result<(std::fs::File, Self)> {
        let mut options = std::fs::OpenOptions::new();
        options.write(true).create_new(true);
        #[cfg(unix)]
        std::os::unix::fs::OpenOptionsExt::mode(&mut options, 0o600);
        loop {
            let seq = SPOOL_SEQ.fetch_add(1, Ordering::Relaxed);
            let path = dir.join(format!("dpcopula-spool-{}-{seq}.csv", std::process::id()));
            match options.open(&path) {
                Ok(file) => return Ok((file, Self { path })),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Where the body bytes landed.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for SpooledBody {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, upper-case as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path, query string stripped.
    pub path: String,
    /// The raw query string (after `?`, empty when none was sent).
    pub query: String,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent, or
    /// when the body was spooled to disk).
    pub body: Vec<u8>,
    /// A body too large for memory, spooled to disk under a
    /// [`SpoolPolicy`]. Mutually exclusive with a non-empty `body`.
    pub spooled: Option<Arc<SpooledBody>>,
}

impl Request {
    /// Case-insensitive header lookup (names are stored lower-case).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open after the
    /// response (HTTP/1.1 default unless `Connection: close`).
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// Whether the body is declared `Content-Type: text/csv` (parameters
    /// after `;` ignored): the raw-CSV fit shape, and the only body that
    /// may spool.
    pub(crate) fn is_csv(&self) -> bool {
        self.header("content-type").is_some_and(|v| {
            v.split(';')
                .next()
                .unwrap_or("")
                .trim()
                .eq_ignore_ascii_case("text/csv")
        })
    }
}

/// Everything that can go wrong reading one request off a connection.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before sending any request byte —
    /// the clean end of a keep-alive session, not a protocol error.
    Closed,
    /// Socket-level failure (includes read timeouts on idle keep-alive
    /// connections).
    Io(std::io::Error),
    /// The request violates the supported HTTP subset; the reason names
    /// the violation.
    BadRequest {
        /// What was malformed.
        reason: String,
    },
    /// The declared body exceeds the configured cap. Detected before
    /// the body is read, so oversized uploads cost no memory.
    PayloadTooLarge {
        /// `Content-Length` the client declared.
        declared: usize,
        /// The configured cap.
        limit: usize,
    },
    /// The connection ended mid-body: fewer bytes arrived than
    /// `Content-Length` declared.
    TruncatedBody {
        /// Bytes the client declared.
        declared: usize,
        /// Bytes that actually arrived.
        got: usize,
    },
    /// The request head (line + headers) did not complete within the
    /// head deadline — the slowloris signature. → `408`.
    HeadTimeout {
        /// Head bytes that had arrived when the deadline fired.
        got: usize,
    },
    /// The declared body stopped arriving (socket read timed out or
    /// the body deadline fired before `Content-Length` bytes). → `408`.
    BodyTimeout {
        /// Bytes the client declared.
        declared: usize,
        /// Bytes that actually arrived.
        got: usize,
    },
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Io(e) => write!(f, "io error: {e}"),
            HttpError::BadRequest { reason } => write!(f, "bad request: {reason}"),
            HttpError::PayloadTooLarge { declared, limit } => write!(
                f,
                "request body of {declared} bytes exceeds the {limit}-byte limit"
            ),
            HttpError::TruncatedBody { declared, got } => write!(
                f,
                "request body truncated: Content-Length {declared}, got {got} bytes"
            ),
            HttpError::HeadTimeout { got } => write!(
                f,
                "request head timed out after {got} bytes (slow or stalled client)"
            ),
            HttpError::BodyTimeout { declared, got } => write!(
                f,
                "request body timed out: Content-Length {declared}, got {got} bytes"
            ),
        }
    }
}

impl std::error::Error for HttpError {}

/// Whether an I/O error is a socket read timeout (`set_read_timeout`
/// surfaces as `WouldBlock` on Unix, `TimedOut` on Windows).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads one request from `stream` under `limits`. `reply` is the write
/// half, used only to acknowledge `Expect: 100-continue` before the
/// body is read.
///
/// The head deadline runs from this call and is enforced once head
/// bytes have arrived; a connection that sends nothing is closed by the
/// socket read timeout (surfaced as [`HttpError::Closed`]), not blamed
/// with a timeout. A caller that waits on an idle keep-alive connection
/// should wait for the first byte (`fill_buf`) before calling, so that
/// the deadline counts from that byte and not the idle wait, as the
/// daemon does. Configure the socket read timeout at or below the head
/// deadline so idle and stalled connections are told apart correctly.
pub fn read_request<R: BufRead, W: Write>(
    stream: &mut R,
    reply: &mut W,
    limits: ReadLimits,
) -> Result<Request, HttpError> {
    read_request_spooled(stream, reply, limits, None)
}

/// [`read_request`] with an optional [`SpoolPolicy`]: a `text/csv` body
/// that exceeds `limits.max_body` on the policy's path is streamed to a
/// temp file (never held in memory) up to the policy's own cap, and
/// surfaced via [`Request::spooled`]. Everything else is unchanged —
/// in particular, oversized bodies of any other path or type (or past
/// the spool cap) are still refused with [`HttpError::PayloadTooLarge`]
/// before any byte of the body is read.
pub fn read_request_spooled<R: BufRead, W: Write>(
    stream: &mut R,
    reply: &mut W,
    limits: ReadLimits,
    spool: Option<&SpoolPolicy>,
) -> Result<Request, HttpError> {
    let watch = Stopwatch::start();
    let request_line = read_head_line(stream, 0, &watch, limits.head_deadline, true)?;
    if request_line.is_empty() {
        return Err(HttpError::Closed);
    }
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::BadRequest {
                reason: format!("malformed request line `{request_line}`"),
            })
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::BadRequest {
            reason: format!("unsupported protocol version `{version}`"),
        });
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut headers = Vec::new();
    let mut head_bytes = request_line.len();
    loop {
        let line = read_head_line(stream, head_bytes, &watch, limits.head_deadline, false)?;
        head_bytes += line.len() + 2;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest {
                reason: format!("header line without `:` — `{line}`"),
            });
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    if headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::BadRequest {
            reason: "chunked transfer encoding is not supported".into(),
        });
    }
    let lengths: Vec<&str> = headers
        .iter()
        .filter(|(k, _)| k == "content-length")
        .map(|(_, v)| v.as_str())
        .collect();
    let declared = match lengths.as_slice() {
        [] => 0usize,
        [one] => one.parse().map_err(|_| HttpError::BadRequest {
            reason: format!("unparseable Content-Length `{one}`"),
        })?,
        _ => {
            return Err(HttpError::BadRequest {
                reason: "multiple Content-Length headers".into(),
            })
        }
    };
    let mut request = Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body: Vec::new(),
        spooled: None,
    };
    // A body past the in-memory cap either spools (a CSV body on the
    // policy's path, under the spool cap) or is refused before any byte
    // of it is read.
    let spool_to = if declared <= limits.max_body {
        None
    } else {
        let spool = spool.filter(|p| request.path == p.path && request.is_csv());
        match spool {
            Some(p) if declared <= p.max_body => Some(p),
            _ => {
                let limit = spool.map_or(limits.max_body, |p| p.max_body.max(limits.max_body));
                return Err(HttpError::PayloadTooLarge { declared, limit });
            }
        }
    };
    if declared == 0 {
        return Ok(request);
    }
    if request
        .header("expect")
        .is_some_and(|v| v.eq_ignore_ascii_case("100-continue"))
    {
        reply
            .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
            .and_then(|()| reply.flush())
            .map_err(HttpError::Io)?;
    }

    // One copy loop for both destinations. A spooled body goes to disk
    // one read at a time, so peak memory is the reader's buffer whatever
    // the declared size; the SpooledBody guard deletes the file on
    // every exit path.
    let mut spooled = match spool_to {
        Some(policy) => Some(SpooledBody::create(&policy.dir).map_err(HttpError::Io)?),
        None => None,
    };
    let dest: &mut dyn Write = match &mut spooled {
        Some((file, _)) => file,
        None => {
            request.body.reserve_exact(declared);
            &mut request.body
        }
    };
    let body_watch = Stopwatch::start();
    let mut got = 0;
    while got < declared {
        let n = match stream.fill_buf() {
            Ok([]) => return Err(HttpError::TruncatedBody { declared, got }),
            Ok(buf) => {
                let n = buf.len().min(declared - got);
                dest.write_all(&buf[..n]).map_err(HttpError::Io)?;
                n
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // A read timeout mid-body: the declared bytes stopped
            // arriving — the peer is stalled, not idle.
            Err(e) if is_timeout(&e) => return Err(HttpError::BodyTimeout { declared, got }),
            Err(e) => return Err(HttpError::Io(e)),
        };
        stream.consume(n);
        got += n;
        // A body that keeps trickling still has to finish within the
        // body deadline.
        if let Some(d) = limits.body_deadline {
            if got < declared && body_watch.elapsed() >= d {
                return Err(HttpError::BodyTimeout { declared, got });
            }
        }
    }
    request.spooled = spooled.map(|(_, body)| Arc::new(body));
    Ok(request)
}

/// Reads one CRLF-terminated head line (request line or header),
/// rejecting heads that exceed [`MAX_HEAD_BYTES`] in total or stall
/// past `deadline` on `watch`. `first` marks the request line: a
/// socket timeout or EOF before any byte of it is an idle or closed
/// keep-alive connection ([`HttpError::Closed`]), not a broken head.
fn read_head_line<R: BufRead>(
    stream: &mut R,
    already: usize,
    watch: &Stopwatch,
    deadline: Option<Duration>,
    first: bool,
) -> Result<String, HttpError> {
    use std::io::Read as _;
    let budget = MAX_HEAD_BYTES.saturating_sub(already);
    let mut line = Vec::new();
    // Byte-at-a-time via BufRead is buffered; heads are tiny.
    for byte in stream.bytes() {
        let b = match byte {
            Ok(b) => b,
            Err(e) if is_timeout(&e) => {
                if first && already == 0 && line.is_empty() {
                    // Nothing of the request arrived: idle, not slow.
                    return Err(HttpError::Closed);
                }
                return Err(HttpError::HeadTimeout {
                    got: already + line.len(),
                });
            }
            Err(e) => return Err(HttpError::Io(e)),
        };
        if b == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line).map_err(|_| HttpError::BadRequest {
                reason: "non-utf8 bytes in request head".into(),
            });
        }
        line.push(b);
        if line.len() > budget {
            return Err(HttpError::BadRequest {
                reason: format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
            });
        }
        // Enforced only once bytes have arrived: the deadline cuts off
        // trickling (slowloris) heads, never a quiet keep-alive wait.
        if let Some(d) = deadline {
            if watch.elapsed() >= d {
                return Err(HttpError::HeadTimeout {
                    got: already + line.len(),
                });
            }
        }
    }
    if first && line.is_empty() {
        // EOF between requests: clean close, signalled as empty line.
        Ok(String::new())
    } else {
        // EOF anywhere else in the head, even between two header lines,
        // leaves the request incomplete: it never reached its blank line.
        Err(HttpError::BadRequest {
            reason: "connection closed mid-head".into(),
        })
    }
}

/// A head and body of at most this many bytes leave in one `write`.
const ONE_WRITE_BYTES: usize = 64 * 1024;

/// One response, framed and written by [`Response::write_to`].
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra response headers (name, value), written verbatim after
    /// the standard set — `Retry-After` on shed responses.
    pub headers: Vec<(&'static str, String)>,
    /// Response body: blocks written in order and never joined;
    /// `Content-Length` is their sum.
    pub body: Vec<Vec<u8>>,
}

impl Response {
    /// A response whose body is `blocks`, in order.
    pub fn blocks(status: u16, content_type: &'static str, blocks: Vec<Vec<u8>>) -> Self {
        Self {
            status,
            content_type,
            headers: Vec::new(),
            body: blocks,
        }
    }

    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self::blocks(status, "application/json", vec![body.into_bytes()])
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Self {
        Self::blocks(status, "text/plain; charset=utf-8", vec![body.into_bytes()])
    }

    /// A CSV response (the exact bytes `datagen::io::write_csv` emits).
    pub fn csv(body: Vec<u8>) -> Self {
        Self::blocks(200, "text/csv", vec![body])
    }

    /// Adds an extra response header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    /// A JSON error body `{"error": reason}` with extra fields appended
    /// verbatim (each already rendered as `"key":value`).
    pub fn error(status: u16, reason: &str, extra: &[String]) -> Self {
        let mut body = String::from("{\"error\":");
        body.push_str(&crate::json::quote(reason));
        for field in extra {
            body.push(',');
            body.push_str(field);
        }
        body.push_str("}\n");
        Self::json(status, body)
    }

    /// Writes the framed response. `keep_alive` picks the `Connection`
    /// header; the caller closes the stream when it is `false`. A head
    /// and body of at most 64 KiB go out in one `write`; past that the
    /// head goes alone and then the body block by block.
    pub fn write_to<W: Write>(&self, stream: &mut W, keep_alive: bool) -> std::io::Result<()> {
        let body_len: usize = self.body.iter().map(Vec::len).sum();
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason_phrase(self.status),
            self.content_type,
            body_len,
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let mut head = head.into_bytes();
        if head.len() + body_len <= ONE_WRITE_BYTES {
            head.reserve(body_len);
            for block in &self.body {
                head.extend_from_slice(block);
            }
            stream.write_all(&head)?;
        } else {
            stream.write_all(&head)?;
            for block in &self.body {
                stream.write_all(block)?;
            }
        }
        stream.flush()
    }
}

/// The reason phrase for every status the daemon emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        let mut sink = Vec::new();
        read_request(
            &mut BufReader::new(raw),
            &mut sink,
            ReadLimits::size_only(1024),
        )
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /v1/sample?x=1 HTTP/1.1\r\nHost: localhost\r\nContent-Length: 11\r\n\r\nhello world";
        let r = parse(raw).unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/v1/sample");
        assert_eq!(r.header("host"), Some("localhost"));
        assert_eq!(r.header("HOST"), Some("localhost"));
        assert_eq!(r.body, b"hello world");
        assert!(r.keep_alive());
    }

    #[test]
    fn connection_close_is_honoured() {
        let raw = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
        assert!(!parse(raw).unwrap().keep_alive());
    }

    #[test]
    fn empty_stream_reports_clean_close() {
        assert!(matches!(parse(b"").unwrap_err(), HttpError::Closed));
    }

    #[test]
    fn oversized_declared_body_is_rejected_without_reading() {
        let raw = b"POST /v1/fit HTTP/1.1\r\nContent-Length: 4096\r\n\r\n";
        match parse(raw).unwrap_err() {
            HttpError::PayloadTooLarge { declared, limit } => {
                assert_eq!(declared, 4096);
                assert_eq!(limit, 1024);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn truncated_body_is_named() {
        let raw = b"POST /v1/fit HTTP/1.1\r\nContent-Length: 100\r\n\r\nonly-this";
        match parse(raw).unwrap_err() {
            HttpError::TruncatedBody { declared, got } => {
                assert_eq!(declared, 100);
                assert_eq!(got, 9);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn malformed_heads_are_bad_requests() {
        for raw in [
            b"GARBAGE\r\n\r\n".to_vec(),
            b"GET /x HTTP/2\r\n\r\n".to_vec(),
            b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n".to_vec(),
            b"POST /x HTTP/1.1\r\nContent-Length: many\r\n\r\n".to_vec(),
            b"POST /x HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab".to_vec(),
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
            b"POST /x HTTP/1.1\r\nHost: a\r\n".to_vec(),
        ] {
            assert!(
                matches!(parse(&raw), Err(HttpError::BadRequest { .. })),
                "accepted {:?}",
                String::from_utf8_lossy(&raw)
            );
        }
    }

    #[test]
    fn expect_100_continue_is_acknowledged() {
        let raw = b"POST /v1/fit HTTP/1.1\r\nContent-Length: 2\r\nExpect: 100-continue\r\n\r\nok";
        let mut ack = Vec::new();
        let r = read_request(
            &mut BufReader::new(&raw[..]),
            &mut ack,
            ReadLimits::size_only(1024),
        )
        .unwrap();
        assert_eq!(r.body, b"ok");
        assert_eq!(ack, b"HTTP/1.1 100 Continue\r\n\r\n");
    }

    #[cfg(unix)]
    #[test]
    fn spool_files_are_private_and_never_reuse_a_planted_name() {
        use std::os::unix::fs::PermissionsExt;
        let dir = std::env::temp_dir().join(format!("dpcopula-spool-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Another user plants the next spool names: a file, and a
        // symlink to a file of theirs.
        let next = SPOOL_SEQ.load(Ordering::Relaxed);
        let name = |seq: u64| dir.join(format!("dpcopula-spool-{}-{seq}.csv", std::process::id()));
        let victim = dir.join("victim");
        std::fs::write(&victim, b"victim").unwrap();
        std::fs::write(name(next), b"planted").unwrap();
        std::os::unix::fs::symlink(&victim, name(next + 1)).unwrap();

        let body = "a:2\n1\n0\n1\n";
        let raw = format!(
            "POST /v1/fit HTTP/1.1\r\nContent-Type: text/csv\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let policy = SpoolPolicy {
            path: "/v1/fit".into(),
            max_body: 1024,
            dir: dir.clone(),
        };
        let request = read_request_spooled(
            &mut BufReader::new(raw.as_bytes()),
            &mut Vec::new(),
            ReadLimits::size_only(4),
            Some(&policy),
        )
        .unwrap();
        let spooled = request.spooled.as_ref().expect("body past the cap spools");
        assert_eq!(std::fs::read(spooled.path()).unwrap(), body.as_bytes());
        let mode = std::fs::metadata(spooled.path())
            .unwrap()
            .permissions()
            .mode();
        assert_eq!(mode & 0o777, 0o600, "spool file mode {mode:o}");
        assert_eq!(std::fs::read(name(next)).unwrap(), b"planted");
        assert_eq!(std::fs::read(&victim).unwrap(), b"victim");
        drop(request);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn extra_headers_are_emitted_before_the_blank_line() {
        let mut out = Vec::new();
        Response::error(503, "shed", &[])
            .with_header("Retry-After", "1")
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        let head = text.split("\r\n\r\n").next().unwrap();
        assert!(head.contains("\r\nRetry-After: 1"), "{text}");
    }

    #[test]
    fn responses_are_framed_with_length_and_connection() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\":true}".into())
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("{\"ok\":true}"), "{text}");

        let mut out = Vec::new();
        Response::error(429, "budget exhausted", &["\"remaining_eps\":0.25".into()])
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(
            text.ends_with("{\"error\":\"budget exhausted\",\"remaining_eps\":0.25}\n"),
            "{text}"
        );
    }

    /// Takes at most `left` bytes, then fails every write; counts the
    /// `write` calls it sees.
    struct CountingWriter {
        got: Vec<u8>,
        writes: usize,
        left: usize,
    }

    impl CountingWriter {
        fn new(left: usize) -> Self {
            Self {
                got: Vec::new(),
                writes: 0,
                left,
            }
        }
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            if self.left == 0 {
                return Err(std::io::Error::other("peer gone"));
            }
            let n = buf.len().min(self.left);
            self.got.extend_from_slice(&buf[..n]);
            self.left -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A CSV response of one block per size, block `i` all `b'a' + i`.
    fn blocks_response(sizes: &[usize]) -> Response {
        let blocks = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| vec![b'a' + i as u8; n])
            .collect();
        Response::blocks(200, "text/csv", blocks)
    }

    #[test]
    fn a_block_body_is_its_blocks_in_order_under_their_summed_length() {
        for sizes in [&[3, 0, 5][..], &[70_000, 0, 2, 100_000]] {
            let response = blocks_response(sizes);
            let mut out = Vec::new();
            response.write_to(&mut out, true).unwrap();
            let split = out.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
            let head = std::str::from_utf8(&out[..split]).unwrap();
            let total: usize = sizes.iter().sum();
            assert!(
                head.contains(&format!("Content-Length: {total}\r\n")),
                "{head}"
            );
            assert_eq!(out.len() - split, total);
            assert_eq!(out[split..], response.body.concat()[..]);
        }
    }

    #[test]
    fn a_response_up_to_64_kib_leaves_in_one_write() {
        let head_len = |body: usize| {
            let mut out = Vec::new();
            blocks_response(&[body]).write_to(&mut out, true).unwrap();
            out.len() - body
        };
        // Bodies of 60,000 bytes or so share one head length.
        let fits = ONE_WRITE_BYTES - head_len(60_000);
        for (sizes, writes) in [
            (vec![fits], 1),
            (vec![fits - 10, 0, 10], 1),
            (vec![1, 2, 3], 1),
            (vec![fits + 1], 2),
            (vec![fits - 10, 0, 11], 3),
        ] {
            let mut w = CountingWriter::new(usize::MAX);
            blocks_response(&sizes).write_to(&mut w, true).unwrap();
            assert_eq!(w.writes, writes, "{sizes:?}");
        }
    }

    #[test]
    fn a_writer_failing_after_k_bytes_gets_its_error_back() {
        for sizes in [vec![100, 5], vec![70_000, 0, 30_000]] {
            let response = blocks_response(&sizes);
            let mut full = Vec::new();
            response.write_to(&mut full, false).unwrap();
            for k in [0, 1, 50, 70_050, full.len() / 2, full.len() - 1] {
                let k = k.min(full.len() - 1);
                let mut w = CountingWriter::new(k);
                let err = response.write_to(&mut w, false).unwrap_err();
                assert_eq!(err.to_string(), "peer gone");
                assert_eq!(w.got, full[..k], "{sizes:?} failing after {k}");
            }
        }
    }
}
