//! The load generator's HTTP/1.1 client: one keep-alive connection.
//! Unlike a test client it never panics on an answer it did not want — every non-200 or broken exchange comes back as a
//! [`Reply`] the caller counts.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A response: status (0 when the exchange broke) and body.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn ok(&self) -> bool {
        self.status == 200
    }

    /// The `error` field of a JSON error body, or the transport error.
    pub fn reason(&self) -> String {
        let text = String::from_utf8_lossy(&self.body);
        let reason = match dpcopula_serve::json::Json::parse(text.trim()) {
            Ok(doc) => doc
                .get("error")
                .and_then(|e| e.as_str())
                .map(str::to_string),
            Err(_) => None,
        };
        reason.unwrap_or_else(|| text.chars().take(120).collect())
    }
}

/// The exact bytes of one request — head and body in one buffer, so a
/// request is one write (a separate small head write trips client-side
/// Nagle against the server's delayed ACK). The layer replay parses
/// these same bytes.
pub fn request_bytes(method: &str, target: &str, content_type: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {target} HTTP/1.1\r\nHost: dpbench\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// One keep-alive connection.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, stream: None }
    }

    /// Sends `request` (from [`request_bytes`]) and reads the answer.
    /// A broken exchange drops the connection (the next call
    /// reconnects) and reports status 0.
    pub fn send(&mut self, request: &[u8]) -> Reply {
        match self.exchange(request) {
            Ok(reply) => reply,
            Err(e) => {
                self.stream = None;
                Reply {
                    status: 0,
                    body: format!("broken exchange: {e}").into_bytes(),
                }
            }
        }
    }

    pub fn get(&mut self, path: &str) -> Reply {
        self.send(&request_bytes("GET", path, "text/plain", b""))
    }

    fn exchange(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            let reader = BufReader::new(stream.try_clone()?);
            self.stream = Some((stream, reader));
        }
        let (stream, reader) = self.stream.as_mut().expect("connected above");
        stream.write_all(request)?;
        let mut status = 0u16;
        let mut content_length = 0usize;
        let mut close = false;
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let l = line.trim_end();
            if status == 0 {
                status = l
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or(std::io::ErrorKind::InvalidData)?;
                continue;
            }
            if l.is_empty() {
                break;
            }
            if let Some((name, value)) = l.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.parse().map_err(|_| std::io::ErrorKind::InvalidData)?;
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;
        if close {
            self.stream = None;
        }
        Ok(Reply { status, body })
    }
}

/// Failed exchanges by status and reason.
#[derive(Default)]
pub struct Failures {
    pub by_cause: BTreeMap<(u16, String), u64>,
}

impl Failures {
    pub fn record(&mut self, reply: &Reply) {
        *self
            .by_cause
            .entry((reply.status, reply.reason()))
            .or_default() += 1;
    }

    pub fn total(&self) -> u64 {
        self.by_cause.values().sum()
    }

    pub fn merge(&mut self, other: Failures) {
        for (cause, n) in other.by_cause {
            *self.by_cause.entry(cause).or_default() += n;
        }
    }
}
